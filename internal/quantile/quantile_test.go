package quantile

import (
	"math"
	"sort"
	"testing"

	"wrs/internal/core"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		eps, delta float64
		ok         bool
	}{
		{0.1, 0.1, true},
		{0.5, 0.9, true},
		{0, 0.1, false},
		{1, 0.1, false},
		{0.1, 0, false},
		{0.1, 1, false},
		{-0.1, 0.5, false},
	}
	for _, c := range cases {
		err := Params{Eps: c.eps, Delta: c.delta}.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(eps=%v, delta=%v) = %v, want ok=%v", c.eps, c.delta, err, c.ok)
		}
	}
}

func TestSampleSizeMonotone(t *testing.T) {
	base := Params{Eps: 0.1, Delta: 0.1}.SampleSize()
	if tighter := (Params{Eps: 0.05, Delta: 0.1}).SampleSize(); tighter <= base {
		t.Errorf("halving eps did not grow s: %d vs %d", tighter, base)
	}
	if surer := (Params{Eps: 0.1, Delta: 0.01}).SampleSize(); surer <= base {
		t.Errorf("shrinking delta did not grow s: %d vs %d", surer, base)
	}
	want := int(math.Ceil(4 * math.Log(2/0.1) / (0.1 * 0.1)))
	if base != want {
		t.Errorf("SampleSize = %d, want %d (SFactor default 4)", base, want)
	}
}

// keysFor draws a precision-sampling key per weight, the same
// construction the protocol uses.
func keysFor(weights []float64, seed uint64) []core.SampleEntry {
	rng := xrand.New(seed)
	entries := make([]core.SampleEntry, len(weights))
	for i, w := range weights {
		entries[i] = core.SampleEntry{
			Key:  rng.ExpKey(w),
			Item: stream.Item{ID: uint64(i), Weight: w},
		}
	}
	return entries
}

func TestExactModeMatchesOracle(t *testing.T) {
	weights := []float64{5, 1, 3, 2, 8, 13, 1}
	entries := keysFor(weights, 1)
	var o Oracle
	for _, w := range weights {
		o.Observe(w)
	}
	sm := Summarize(entries, 100) // s far above the stream length
	if sm.Saturated() {
		t.Fatal("summary saturated on a short stream")
	}
	if sm.Support() != len(weights) {
		t.Fatalf("support %d, want %d", sm.Support(), len(weights))
	}
	if math.Abs(sm.Total()-o.Total()) > 1e-12*o.Total() {
		t.Errorf("exact Total = %v, want %v", sm.Total(), o.Total())
	}
	for _, x := range []float64{0, 0.5, 1, 2, 3, 5, 8, 12, 13, 99} {
		if got, want := sm.CDF(x), o.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("exact CDF(%v) = %v, want %v", x, got, want)
		}
	}
	for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got, ok1 := sm.Quantile(phi)
		want, ok2 := o.Quantile(phi)
		if !ok1 || !ok2 || got != want {
			t.Errorf("exact Quantile(%v) = %v (%v), want %v (%v)", phi, got, ok1, want, ok2)
		}
	}
}

// TestSaturatedAccuracy is the estimator's oracle bound: on streams far
// longer than s, the max CDF error over a weight grid stays within the
// provisioned eps, across seeds, on both smooth and heavy-tailed
// weight distributions.
func TestSaturatedAccuracy(t *testing.T) {
	p := Params{Eps: 0.1, Delta: 0.05}
	s := p.SampleSize()
	const n = 30000
	dists := map[string]func(r *xrand.RNG) float64{
		"uniform": func(r *xrand.RNG) float64 { return 1 + 99*r.Float64() },
		"pareto":  func(r *xrand.RNG) float64 { return math.Pow(1-r.OpenFloat64(), -1/1.5) },
		"bimodal": func(r *xrand.RNG) float64 {
			if r.Float64() < 0.01 {
				return 1000
			}
			return 1 + r.Float64()
		},
	}
	for name, draw := range dists {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := xrand.New(seed * 7919)
			weights := make([]float64, n)
			var o Oracle
			for i := range weights {
				weights[i] = draw(rng)
				o.Observe(weights[i])
			}
			sm := Summarize(keysFor(weights, seed), s)
			if !sm.Saturated() {
				t.Fatalf("%s/seed=%d: not saturated", name, seed)
			}
			var maxErr float64
			for _, w := range weights[:2000] { // grid over realized weights
				if err := math.Abs(sm.CDF(w) - o.CDF(w)); err > maxErr {
					maxErr = err
				}
			}
			if maxErr > p.Eps {
				t.Errorf("%s/seed=%d: max CDF error %.4f > eps %.2f (s=%d)", name, seed, maxErr, p.Eps, s)
			}
			if rel := math.Abs(sm.Total()-o.Total()) / o.Total(); rel > p.Eps {
				t.Errorf("%s/seed=%d: Total rel error %.4f > eps", name, seed, rel)
			}
		}
	}
}

// TestShardMergeInvariance pins the property the sharded fabric relies
// on: summarizing the concatenated per-shard top-s snapshots is
// identical to summarizing the whole stream's entries, because the
// top-s of a union is the top-s of the per-shard top-s sets.
func TestShardMergeInvariance(t *testing.T) {
	const n, s, shards = 5000, 200, 3
	rng := xrand.New(42)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 + 9*rng.Float64()
	}
	entries := keysFor(weights, 99)

	whole := Summarize(append([]core.SampleEntry(nil), entries...), s)

	var parts []core.SampleEntry
	for p := 0; p < shards; p++ {
		var part []core.SampleEntry
		for i, e := range entries {
			if i%shards == p {
				part = append(part, e)
			}
		}
		parts = append(parts, core.TopSample(part, s)...)
	}
	merged := Summarize(parts, s)

	if whole.Total() != merged.Total() || whole.Threshold() != merged.Threshold() {
		t.Fatalf("merge changed the summary: total %v vs %v, tau %v vs %v",
			whole.Total(), merged.Total(), whole.Threshold(), merged.Threshold())
	}
	for _, x := range []float64{1, 2, 5, 7.5, 10} {
		if whole.CDF(x) != merged.CDF(x) {
			t.Errorf("CDF(%v): whole %v != merged %v", x, whole.CDF(x), merged.CDF(x))
		}
	}
}

func TestCDFShape(t *testing.T) {
	weights := make([]float64, 3000)
	rng := xrand.New(7)
	for i := range weights {
		weights[i] = 1 + 9*rng.Float64()
	}
	sm := Summarize(keysFor(weights, 8), 150)
	prev := 0.0
	for x := 0.0; x <= 11; x += 0.25 {
		c := sm.CDF(x)
		if c < prev || c < 0 || c > 1 {
			t.Fatalf("CDF not a [0,1] nondecreasing function at %v: %v after %v", x, c, prev)
		}
		prev = c
	}
	if got := sm.CDF(1e18); got != 1 {
		t.Errorf("CDF(+inf-ish) = %v, want 1", got)
	}
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		x, ok := sm.Quantile(phi)
		if !ok {
			t.Fatalf("Quantile(%v) not ok", phi)
		}
		if sm.CDF(x) < phi {
			t.Errorf("CDF(Quantile(%v)) = %v < phi", phi, sm.CDF(x))
		}
	}
}

func TestEmptySummary(t *testing.T) {
	var zero Summary
	if zero.CDF(3) != 0 || zero.Total() != 0 || zero.Saturated() {
		t.Error("zero Summary not empty")
	}
	if _, ok := zero.Quantile(0.5); ok {
		t.Error("Quantile on empty summary reported ok")
	}
	sm := Summarize(nil, 10)
	if sm.Support() != 0 || sm.Total() != 0 {
		t.Error("Summarize(nil) not empty")
	}
	var o Oracle
	if o.CDF(1) != 0 {
		t.Error("empty Oracle CDF != 0")
	}
	if _, ok := o.Quantile(0.5); ok {
		t.Error("empty Oracle Quantile ok")
	}
}

// refPoint, refSummary and refSummarize are Summarize as it was when it
// sorted every candidate by key and then the survivors by weight (with
// core.TopSample's former sort-and-truncate inlined), kept as the
// reference the selection-based Summarize must match bit for bit.
type refPoint struct {
	item stream.Item
	adj  float64
	cum  float64
}

type refSummary struct {
	pts       []refPoint
	total     float64
	tau       float64
	saturated bool
}

func refSummarize(entries []core.SampleEntry, s int) refSummary {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key > entries[j].Key })
	if len(entries) > s {
		entries = entries[:s]
	}
	sm := refSummary{}
	if len(entries) >= s && s > 0 {
		sm.saturated = true
		sm.tau = entries[s-1].Key
		entries = entries[:s-1]
	}
	sm.pts = make([]refPoint, 0, len(entries))
	for _, e := range entries {
		adj := e.Item.Weight
		if sm.saturated {
			adj = e.Item.Weight / -math.Expm1(-e.Item.Weight/sm.tau)
		}
		sm.pts = append(sm.pts, refPoint{item: e.Item, adj: adj})
	}
	sort.Slice(sm.pts, func(i, j int) bool { return sm.pts[i].item.Weight < sm.pts[j].item.Weight })
	for i := range sm.pts {
		sm.total += sm.pts[i].adj
		sm.pts[i].cum = sm.total
	}
	return sm
}

func (sm refSummary) CDF(x float64) float64 {
	if sm.total <= 0 {
		return 0
	}
	i := sort.Search(len(sm.pts), func(i int) bool { return sm.pts[i].item.Weight > x })
	if i == 0 {
		return 0
	}
	return sm.pts[i-1].cum / sm.total
}

func (sm refSummary) Quantile(phi float64) (float64, bool) {
	if len(sm.pts) == 0 || sm.total <= 0 {
		return 0, false
	}
	target := phi * sm.total
	i := sort.Search(len(sm.pts), func(i int) bool { return sm.pts[i].cum >= target })
	if i == len(sm.pts) {
		i = len(sm.pts) - 1
	}
	return sm.pts[i].item.Weight, true
}

// referenceEntries draws n candidates whose weights are half discrete
// (heavy ties) and half Pareto, keyed like the protocol keys them.
func referenceEntries(n int, seed uint64) []core.SampleEntry {
	rng := xrand.New(seed)
	weights := make([]float64, n)
	for i := range weights {
		if i%2 == 0 {
			weights[i] = float64(1 + rng.Intn(50))
		} else {
			weights[i] = math.Pow(1-rng.OpenFloat64(), -1/1.5)
		}
	}
	return keysFor(weights, seed+1)
}

// TestSummarizeMatchesReference pins the selection-based Summarize to
// the sort-based reference at the benchmark's sample size, on both
// sides of the saturation boundary: every accessor must agree under ==.
func TestSummarizeMatchesReference(t *testing.T) {
	const s = 8477
	for _, n := range []int{s - 1, s, s + 1, 2 * s} {
		entries := referenceEntries(n, uint64(n))
		want := refSummarize(append([]core.SampleEntry(nil), entries...), s)
		got := Summarize(append([]core.SampleEntry(nil), entries...), s)
		if got.Total() != want.total || got.Threshold() != want.tau ||
			got.Saturated() != want.saturated || got.Support() != len(want.pts) {
			t.Fatalf("n=%d: total %v/%v, tau %v/%v, saturated %v/%v, support %d/%d (got/want)", n,
				got.Total(), want.total, got.Threshold(), want.tau,
				got.Saturated(), want.saturated, got.Support(), len(want.pts))
		}
		xs := []float64{0, math.Inf(1)}
		for i, p := range want.pts {
			xs = append(xs, p.item.Weight)
			if i > 0 {
				xs = append(xs, (want.pts[i-1].item.Weight+p.item.Weight)/2)
			}
		}
		for _, x := range xs {
			if g, w := got.CDF(x), want.CDF(x); g != w {
				t.Fatalf("n=%d: CDF(%v) = %v, want %v", n, x, g, w)
			}
		}
		for i := 0; i <= 1000; i++ {
			phi := float64(i) / 1000
			g, gok := got.Quantile(phi)
			w, wok := want.Quantile(phi)
			if g != w || gok != wok {
				t.Fatalf("n=%d: Quantile(%v) = (%v, %v), want (%v, %v)", n, phi, g, gok, w, wok)
			}
		}
	}
}

// BenchmarkSummarize measures one quantile query's math at the
// paced-quantiles sample size (eps 0.05, delta 0.01): 2s candidates,
// the most one shard's snapshot can hold. Each iteration summarizes a
// fresh copy, since Summarize reorders its input.
func BenchmarkSummarize(b *testing.B) {
	s := Params{Eps: 0.05, Delta: 0.01}.SampleSize()
	entries := referenceEntries(2*s, 1)
	buf := make([]core.SampleEntry, len(entries))
	b.ReportAllocs()
	for b.Loop() {
		copy(buf, entries)
		Summarize(buf, s)
	}
}
