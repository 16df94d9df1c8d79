package xrand

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

func TestLazyUniformDecisionProbability(t *testing.T) {
	r := New(1)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		const trials = 100000
		above := 0
		for i := 0; i < trials; i++ {
			lu := NewLazyUniform(r)
			if lu.Above(p) {
				above++
			}
		}
		got := float64(above) / trials
		want := 1 - p
		if math.Abs(got-want) > 0.006 {
			t.Errorf("P(U > %v) = %v, want %v", p, got, want)
		}
	}
}

func TestLazyUniformConsistency(t *testing.T) {
	// The decision must agree with the fully materialized value, in both
	// orders of operation.
	r := New(2)
	for i := 0; i < 200000; i++ {
		p := r.Float64()
		lu := NewLazyUniform(r)
		dec := lu.Above(p)
		val := lu.Value()
		if dec != (val > p) {
			t.Fatalf("decision %v inconsistent with value %v vs p %v", dec, val, p)
		}
		if val <= 0 || val >= 1 {
			t.Fatalf("materialized value out of (0,1): %v", val)
		}
	}
}

func TestLazyUniformMultipleComparisons(t *testing.T) {
	// Several comparisons against increasing thresholds must stay mutually
	// consistent with the final value.
	r := New(3)
	for i := 0; i < 50000; i++ {
		lu := NewLazyUniform(r)
		p1, p2 := 0.3, 0.7
		d1 := lu.Above(p1)
		d2 := lu.Above(p2)
		v := lu.Value()
		if d1 != (v > p1) || d2 != (v > p2) {
			t.Fatalf("inconsistent decisions d1=%v d2=%v for value %v", d1, d2, v)
		}
	}
}

func TestLazyUniformExpectedBits(t *testing.T) {
	// Each extra bit halves the ambiguous region, so decisions need an
	// expected ~2 bits regardless of p.
	r := New(4)
	total := 0
	const trials = 50000
	for i := 0; i < trials; i++ {
		lu := NewLazyUniform(r)
		lu.Above(0.37)
		total += lu.DecisionBits
	}
	avg := float64(total) / trials
	if avg > 4 {
		t.Errorf("average decision bits = %v, want O(1) (< 4)", avg)
	}
	if avg < 1 {
		t.Errorf("average decision bits = %v, impossibly low", avg)
	}
}

func TestLazyUniformExtremeP(t *testing.T) {
	r := New(5)
	lu := NewLazyUniform(r)
	if !lu.Above(-0.5) {
		t.Error("Above(-0.5) must be true")
	}
	if lu.Above(1.0) {
		t.Error("Above(1.0) must be false")
	}
	if lu.Above(1.5) {
		t.Error("Above(1.5) must be false")
	}
}

func TestThresholdExpDistribution(t *testing.T) {
	// P(key > u) = 1 - e^(-w/u).
	r := New(6)
	cases := []struct{ w, u float64 }{
		{1, 1}, {1, 10}, {5, 2}, {0.5, 4}, {100, 1000},
	}
	const trials = 100000
	for _, c := range cases {
		above := 0
		for i := 0; i < trials; i++ {
			te := NewThresholdExp(r, c.w)
			if te.Above(c.u) {
				above++
			}
		}
		got := float64(above) / trials
		want := -math.Expm1(-c.w / c.u)
		if math.Abs(got-want) > 0.006 {
			t.Errorf("P(key(w=%v) > %v) = %v, want %v", c.w, c.u, got, want)
		}
	}
}

func TestThresholdExpKeyConsistency(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		w := 1 + 9*r.Float64()
		u := 0.1 + 10*r.Float64()
		te := NewThresholdExp(r, w)
		above := te.Above(u)
		key := te.Key()
		if key <= 0 {
			t.Fatalf("non-positive key %v", key)
		}
		// Allow a sliver of float tolerance at the boundary (exp/log
		// round-trips); the algorithm itself re-checks v > u at the
		// coordinator so a boundary-grazing key is harmless.
		if above && key < u*(1-1e-9) {
			t.Fatalf("Above=true but key %v < threshold %v (w=%v)", key, u, w)
		}
		if !above && key > u*(1+1e-9) {
			t.Fatalf("Above=false but key %v > threshold %v (w=%v)", key, u, w)
		}
	}
}

func TestThresholdExpZeroThreshold(t *testing.T) {
	r := New(8)
	te := NewThresholdExp(r, 2)
	if !te.Above(0) {
		t.Error("Above(0) must always be true")
	}
	if te.DecisionBits() != 0 {
		t.Errorf("Above(0) consumed %d bits, want 0", te.DecisionBits())
	}
	if k := te.Key(); k <= 0 {
		t.Errorf("key %v", k)
	}
}

func TestThresholdExpKeyMatchesDirectDistribution(t *testing.T) {
	// The materialized key must follow the same distribution as w/Exp():
	// compare P(key > x) at several x between lazy and direct generation.
	r := New(9)
	const w, trials = 3.0, 200000
	thresholds := []float64{0.5, 1, 3, 10, 30}
	lazyCount := make([]int, len(thresholds))
	directCount := make([]int, len(thresholds))
	for i := 0; i < trials; i++ {
		te := NewThresholdExp(r, w)
		lk := te.Key()
		dk := r.ExpKey(w)
		for j, x := range thresholds {
			if lk > x {
				lazyCount[j]++
			}
			if dk > x {
				directCount[j]++
			}
		}
	}
	for j, x := range thresholds {
		lp := float64(lazyCount[j]) / trials
		dp := float64(directCount[j]) / trials
		want := -math.Expm1(-w / x)
		if math.Abs(lp-want) > 0.006 || math.Abs(dp-want) > 0.006 {
			t.Errorf("P(key > %v): lazy %v direct %v want %v", x, lp, dp, want)
		}
	}
}

func TestThresholdExpTotalBits(t *testing.T) {
	r := New(10)
	te := NewThresholdExp(r, 2)
	te.Above(1)
	_ = te.Key()
	if te.TotalBits() < te.DecisionBits() {
		t.Errorf("TotalBits %d < DecisionBits %d", te.TotalBits(), te.DecisionBits())
	}
	if te.TotalBits() < 53 {
		t.Errorf("materialized key used only %d bits", te.TotalBits())
	}
}

func TestLazyMaterializedValuesAreUniform(t *testing.T) {
	// KS test on materialized values after a decision: refinement must
	// not bias the final uniform.
	r := New(11)
	xs := make([]float64, 4000)
	for i := range xs {
		lu := NewLazyUniform(r)
		lu.Above(0.37) // decision first
		xs[i] = lu.Value()
	}
	d, p := ksAgainstUniform(xs)
	if p < 0.001 {
		t.Errorf("materialized values not uniform: D=%v p=%v", d, p)
	}
}

// ksAgainstUniform is a tiny local KS implementation to avoid importing
// internal/stats (which would create an import cycle in tests... it would
// not, but keeping xrand self-contained is cleaner).
func ksAgainstUniform(xs []float64) (dStat, p float64) {
	n := len(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, x := range sorted {
		f := x
		if lo := f - float64(i)/float64(n); lo > dStat {
			dStat = lo
		}
		if hi := float64(i+1)/float64(n) - f; hi > dStat {
			dStat = hi
		}
	}
	lambda := (math.Sqrt(float64(n)) + 0.12 + 0.11/math.Sqrt(float64(n))) * dStat
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * math.Exp(-2*lambda*lambda*float64(j)*float64(j))
		p += term
		sign = -sign
		if math.Abs(term) < 1e-12 {
			break
		}
	}
	p *= 2
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return dStat, p
}

// lazyThresholdExp is ThresholdExp run on the bit-serial LazyUniform:
// the reference the closed form must reproduce bit for bit.
type lazyThresholdExp struct {
	lu LazyUniform
	w  float64
}

func (t *lazyThresholdExp) Above(u float64) bool {
	if u <= 0 {
		return true
	}
	return t.lu.Above(math.Exp(-t.w / u))
}

func (t *lazyThresholdExp) Key() float64 { return t.w / -math.Log(t.lu.Value()) }

// matchLazy runs ThresholdExp and its LazyUniform reference on twin RNGs
// seeded with seed: Above for each u in turn, then Key when key is set.
// After every step both must agree on the decision, DecisionBits,
// TotalBits, the key's bits and the RNG position; the first
// disagreement is returned.
func matchLazy(seed uint64, w float64, key bool, us ...float64) error {
	rc, rl := New(seed), New(seed)
	ct, lt := NewThresholdExp(rc, w), lazyThresholdExp{lu: NewLazyUniform(rl), w: w}
	agree := func(step string) error {
		if ct.DecisionBits() != lt.lu.DecisionBits || ct.TotalBits() != lt.lu.Bits || rc.State() != rl.State() {
			return fmt.Errorf("seed %d, w %v, u %v, after %s: closed form has %d decision bits, %d total, RNG %x; lazy %d, %d, %x",
				seed, w, us, step, ct.DecisionBits(), ct.TotalBits(), rc.State(), lt.lu.DecisionBits, lt.lu.Bits, rl.State())
		}
		return nil
	}
	for _, u := range us {
		if c, l := ct.Above(u), lt.Above(u); c != l {
			return fmt.Errorf("seed %d, w %v: Above(%v) = %v, lazy reference %v", seed, w, u, c, l)
		}
		if err := agree("Above"); err != nil {
			return err
		}
	}
	if key {
		if c, l := ct.Key(), lt.Key(); math.Float64bits(c) != math.Float64bits(l) {
			return fmt.Errorf("seed %d, w %v, u %v: Key() = %v, lazy reference %v", seed, w, us, c, l)
		}
		if err := agree("Key"); err != nil {
			return err
		}
	}
	if c, l := rc.Uint64(), rl.Uint64(); c != l {
		return fmt.Errorf("seed %d, w %v, u %v: next Uint64 %x, lazy reference %x", seed, w, us, c, l)
	}
	return nil
}

// TestThresholdExpMatchesLazy pins the closed-form decision to the
// bit-serial process on random (w, u) pairs whose e^(-w/u) spans (0, 1),
// some compared twice and some materialized.
func TestThresholdExpMatchesLazy(t *testing.T) {
	r := New(12)
	for i := 0; i < 1_000_000; i++ {
		w := math.Ldexp(1+r.Float64(), r.Intn(120)-60)
		u := w * math.Ldexp(1+r.Float64(), r.Intn(24)-12)
		var err error
		switch i % 4 {
		case 0:
			err = matchLazy(uint64(i), w, false, u)
		case 1:
			err = matchLazy(uint64(i), w, true, u)
		case 2:
			err = matchLazy(uint64(i), w, true, u, u*math.Ldexp(1+r.Float64(), r.Intn(8)-4))
		default:
			err = matchLazy(uint64(i), w, true)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestThresholdExpMatchesLazyEdges covers the thresholds that take no
// draw (u <= 0: always above; u = +Inf: p = 1, never above), subnormal
// thresholds (p = 0) and NaN, on which the lazy loop spends all 53 bits
// and answers false.
func TestThresholdExpMatchesLazyEdges(t *testing.T) {
	us := []float64{0, math.Copysign(0, -1), -1, math.Inf(-1), math.Inf(1),
		5e-324, 1e-310, math.NaN(), math.MaxFloat64, 1}
	for seed := uint64(0); seed < 200; seed++ {
		for _, w := range []float64{5e-324, 1e-300, 0.5, 1, 3, 1e300, math.MaxFloat64} {
			for _, u := range us {
				for _, key := range []bool{false, true} {
					if err := matchLazy(seed, w, key, u); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for _, u := range []float64{0, -1, math.Inf(1)} {
		te := NewThresholdExp(New(1), 1)
		te.Above(u)
		if te.TotalBits() != 0 {
			t.Errorf("Above(%v) took %d bits, want no draw", u, te.TotalBits())
		}
	}
	te := NewThresholdExp(New(1), 1)
	if te.Above(math.NaN()) || te.DecisionBits() != 53 {
		t.Errorf("Above(NaN) = true after %d decision bits, want false after 53", te.DecisionBits())
	}
}

// TestDecideMatchesLazyOnTies forces X == P, where the closed form needs
// the materialized value, and its neighbours, by loading the lazy
// process's bit buffer with X directly.
func TestDecideMatchesLazyOnTies(t *testing.T) {
	r := New(13)
	check := func(X uint64, p float64) {
		lu := LazyUniform{buf: X << (64 - lazyMaxBits), bufn: 64}
		want := lu.Above(p)
		got, n := decide(X, p)
		if got != want || n != lu.DecisionBits {
			t.Fatalf("decide(%d, %v) = %v after %d bits, lazy %v after %d", X, p, got, n, want, lu.DecisionBits)
		}
	}
	for i := 0; i < 100_000; i++ {
		var p float64
		switch i % 3 {
		case 0:
			p = r.Float64()
		case 1:
			p = math.Ldexp(r.Float64(), -r.Intn(60))
		default:
			p = (float64(r.Uint64()>>(64-lazyMaxBits)) + float64(r.Intn(4))/4) * 0x1p-53
		}
		P := uint64(p * 0x1p53)
		check(P, p)
		check(P+1, p)
		if P > 0 {
			check(P-1, p)
		}
	}
	for _, p := range []float64{0, 5e-324, 0x1p-53, 0x1.8p-53, 0.5, 1 - 0x1p-53, math.NaN()} {
		for _, X := range []uint64{0, 1, 2, 1 << 52, 1<<53 - 1} {
			check(X, p)
		}
	}
}
