package xrand

import (
	"math"
	"testing"
)

// FuzzLazyUniformConsistency drives the lazy uniform with arbitrary
// comparison points and checks the decisions stay consistent with the
// materialized value, for any seed.
func FuzzLazyUniformConsistency(f *testing.F) {
	f.Add(uint64(1), 0.5, 0.25)
	f.Add(uint64(2), 0.0, 1.0)
	f.Add(uint64(3), 1e-18, 1-1e-18)
	f.Fuzz(func(t *testing.T, seed uint64, p1, p2 float64) {
		if math.IsNaN(p1) || math.IsNaN(p2) {
			return
		}
		lu := NewLazyUniform(New(seed))
		d1 := lu.Above(p1)
		d2 := lu.Above(p2)
		v := lu.Value()
		if v <= 0 || v >= 1 {
			t.Fatalf("value %v out of (0,1)", v)
		}
		if p1 >= 0 && p1 < 1 && d1 != (v > p1) {
			t.Fatalf("decision for p1=%v inconsistent with value %v", p1, v)
		}
		if p2 >= 0 && p2 < 1 && d2 != (v > p2) {
			t.Fatalf("decision for p2=%v inconsistent with value %v", p2, v)
		}
	})
}

// FuzzThresholdExp checks the site-filter primitive against its
// LazyUniform reference (matchLazy: same decision, bits, key and RNG
// position) for arbitrary weights and thresholds, NaN and ±Inf
// included, and that for a valid weight it never panics and produces a
// key consistent with its decision.
func FuzzThresholdExp(f *testing.F) {
	f.Add(uint64(1), 1.0, 2.0)
	f.Add(uint64(2), 1e-9, 1e12)
	f.Add(uint64(3), 1e12, 1e-9)
	f.Add(uint64(4), 1.0, math.NaN())
	f.Add(uint64(5), 1.0, math.Inf(1))
	f.Add(uint64(6), 1.0, math.Inf(-1))
	f.Add(uint64(7), 1.0, 5e-324)
	f.Fuzz(func(t *testing.T, seed uint64, w, u float64) {
		for _, key := range []bool{false, true} {
			if err := matchLazy(seed, w, key, u); err != nil {
				t.Fatal(err)
			}
		}
		if !(w > 0) || math.IsInf(w, 0) {
			return
		}
		te := NewThresholdExp(New(seed), w)
		above := te.Above(u)
		key := te.Key()
		if !(key > 0) {
			t.Fatalf("key %v not positive (w=%v)", key, w)
		}
		if u > 0 {
			if above && key < u*(1-1e-9) {
				t.Fatalf("Above=true but key %v << u %v", key, u)
			}
			if !above && key > u*(1+1e-9) {
				t.Fatalf("Above=false but key %v >> u %v", key, u)
			}
		}
	})
}
