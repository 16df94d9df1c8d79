package sample

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"wrs/internal/xrand"
)

func TestTopKBruteForce(t *testing.T) {
	rng := xrand.New(1)
	f := func(kRaw uint8, nRaw uint16) bool {
		k := int(kRaw%20) + 1
		n := int(nRaw % 300)
		top := NewTopK[int](k)
		keys := make([]float64, n)
		for i := 0; i < n; i++ {
			keys[i] = rng.Float64()
			top.Offer(keys[i], i)
		}
		// Brute-force top-k keys.
		sorted := append([]float64(nil), keys...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		want := sorted
		if len(want) > k {
			want = want[:k]
		}
		got := top.SortedDesc()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Key != want[i] {
				return false
			}
		}
		// Min must match the smallest retained key.
		if len(want) > 0 {
			m, ok := top.Min()
			if !ok || m != want[len(want)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTopKEviction(t *testing.T) {
	top := NewTopK[string](2)
	_, _, ev, acc := top.Offer(1, "a")
	if ev || !acc {
		t.Fatal("first offer should be accepted without eviction")
	}
	top.Offer(2, "b")
	evKey, evVal, ev, acc := top.Offer(3, "c")
	if !ev || !acc || evKey != 1 || evVal != "a" {
		t.Fatalf("expected eviction of (1, a), got (%v, %v, %v, %v)", evKey, evVal, ev, acc)
	}
	evKey, evVal, ev, acc = top.Offer(0.5, "d")
	if !ev || acc || evKey != 0.5 || evVal != "d" {
		t.Fatalf("low offer should bounce: (%v, %v, %v, %v)", evKey, evVal, ev, acc)
	}
}

func TestTopKSortLargeSlice(t *testing.T) {
	rng := xrand.New(2)
	top := NewTopK[int](500)
	for i := 0; i < 2000; i++ {
		top.Offer(rng.Float64(), i)
	}
	got := top.SortedDesc()
	if len(got) != 500 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Key > got[i-1].Key {
			t.Fatalf("not sorted desc at %d", i)
		}
	}
}

func TestTopKReset(t *testing.T) {
	top := NewTopK[int](3)
	top.Offer(1, 1)
	top.Reset()
	if top.Len() != 0 {
		t.Fatal("reset did not clear")
	}
	if _, ok := top.Min(); ok {
		t.Fatal("Min on empty returned ok")
	}
}

// selectOrders are the comparators SelectTop is checked under: by key
// alone, where equal keys make the boundary ambiguous, and the total
// order key-then-ID, where the selected set is unique.
var selectOrders = []struct {
	name  string
	total bool
	cmp   func(a, b Entry[int]) int
}{
	{"key", false, func(a, b Entry[int]) int { return cmp.Compare(b.Key, a.Key) }},
	{"key,id", true, func(a, b Entry[int]) int {
		if c := cmp.Compare(b.Key, a.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Val, b.Val)
	}},
}

// checkSelectTop runs SelectTop over keys (entry i carries ID i) and
// compares the selected prefix, sorted, with the first s entries of a
// full slices.SortFunc order: equal keys under either comparator, equal
// IDs too under the total one. The input must come back permuted, not
// altered, with the selection as its prefix.
func checkSelectTop(t *testing.T, label string, keys []float64, s int) {
	t.Helper()
	in := make([]Entry[int], len(keys))
	for i, k := range keys {
		in[i] = Entry[int]{Key: k, Val: i}
	}
	for _, o := range selectOrders {
		want := slices.Clone(in)
		slices.SortFunc(want, o.cmp)
		want = want[:max(0, min(s, len(want)))]

		buf := slices.Clone(in)
		got := SelectTop(buf, s, o.cmp)
		if len(got) != len(want) {
			t.Fatalf("%s/%s s=%d: selected %d entries, want %d", label, o.name, s, len(got), len(want))
		}
		if len(got) > 0 && &got[0] != &buf[0] {
			t.Fatalf("%s/%s s=%d: selection is not a prefix of the input", label, o.name, s)
		}
		seen := make([]bool, len(buf))
		for _, e := range buf {
			if seen[e.Val] || e.Key != keys[e.Val] {
				t.Fatalf("%s/%s s=%d: input was not permuted in place", label, o.name, s)
			}
			seen[e.Val] = true
		}
		slices.SortFunc(got, o.cmp)
		for i := range want {
			if got[i].Key != want[i].Key || (o.total && got[i].Val != want[i].Val) {
				t.Fatalf("%s/%s s=%d: rank %d is %+v, want %+v", label, o.name, s, i, got[i], want[i])
			}
		}
	}
}

// TestSelectTop pins SelectTop to the sorted reference across lengths
// around s and the input orders that defeat naive pivots, including the
// heap layout TopK.Items returns (what coordinator snapshots hold).
func TestSelectTop(t *testing.T) {
	const s = 37
	orders := map[string]func(n int) []float64{
		"ascending":  func(n int) []float64 { return keysOf(n, func(i int) float64 { return float64(i) }) },
		"descending": func(n int) []float64 { return keysOf(n, func(i int) float64 { return float64(n - i) }) },
		"all-equal":  func(n int) []float64 { return keysOf(n, func(int) float64 { return 1 }) },
		"organ-pipe": func(n int) []float64 { return keysOf(n, func(i int) float64 { return float64(min(i, n-1-i)) }) },
		"heap": func(n int) []float64 {
			top := NewTopK[int](max(n, 1))
			rng := xrand.New(uint64(n))
			for i := 0; i < n; i++ {
				top.Offer(rng.Float64(), i)
			}
			return keysOf(n, func(i int) float64 { return top.Items()[i].Key })
		},
	}
	for name, gen := range orders {
		for _, n := range []int{0, 1, s - 1, s, s + 1, 2 * s, 14 * s} {
			checkSelectTop(t, fmt.Sprintf("%s/n=%d", name, n), gen(n), s)
		}
	}
	checkSelectTop(t, "s=0", []float64{3, 1, 2}, 0)
}

func keysOf(n int, key func(i int) float64) []float64 {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = key(i)
	}
	return keys
}

// FuzzSelectTop derives keys from fuzz bytes — 16 distinct values, so
// long runs of duplicates — and checks SelectTop against the sorted
// reference for any s from 0 past the input length.
func FuzzSelectTop(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint16(4))
	f.Add(bytes.Repeat([]byte{7}, 64), uint16(20))
	f.Add(bytes.Repeat([]byte{0, 15, 1, 14, 2, 13}, 8), uint16(30))
	f.Fuzz(func(t *testing.T, data []byte, sRaw uint16) {
		keys := make([]float64, len(data))
		for i, b := range data {
			keys[i] = float64(b % 16)
		}
		checkSelectTop(t, "fuzz", keys, int(sRaw)%(len(data)+2))
	})
}

// TestTopKRetainMatchesResetOffer pins Retain to its reference: the
// heap must equal, slot for slot, Reset followed by Offer of the kept
// entries in Items order, and drop must see the rest in Items order.
// Keys come from 8 values, so ties are common; the rows include keeping
// every entry and keeping none.
func TestTopKRetainMatchesResetOffer(t *testing.T) {
	rng := xrand.New(9)
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(40)
		top, ref := NewTopK[int](k), NewTopK[int](k)
		for i, n := 0, rng.Intn(3*k+1); i < n; i++ {
			key := float64(rng.Intn(8))
			top.Offer(key, i)
			ref.Offer(key, i)
		}
		mod := 1 + rng.Intn(4) // keep IDs not divisible by mod; mod 1 keeps none
		keep := func(e Entry[int]) bool { return e.Val%mod != 0 }
		switch trial % 10 {
		case 0:
			keep = func(Entry[int]) bool { return true }
		case 1:
			keep = func(Entry[int]) bool { return false }
		}

		var kept, wantDropped, dropped []Entry[int]
		for _, e := range ref.Items() {
			if keep(e) {
				kept = append(kept, e)
			} else {
				wantDropped = append(wantDropped, e)
			}
		}
		ref.Reset()
		for _, e := range kept {
			ref.Offer(e.Key, e.Val)
		}
		top.Retain(keep, func(e Entry[int]) { dropped = append(dropped, e) })

		if !slices.Equal(top.Items(), ref.Items()) {
			t.Fatalf("trial %d: Retain heap %v, Reset+Offer heap %v", trial, top.Items(), ref.Items())
		}
		if !slices.Equal(dropped, wantDropped) {
			t.Fatalf("trial %d: dropped %v, want %v in Items order", trial, dropped, wantDropped)
		}
	}
}

// TestTopKRetainAllocs pins Retain as allocation-free, closures
// included: the coordinator runs it on every level saturation.
func TestTopKRetainAllocs(t *testing.T) {
	const k = 64
	top := NewTopK[int](k)
	rng := xrand.New(10)
	keys := make([]float64, k)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	level := 0
	released := 0
	allocs := testing.AllocsPerRun(100, func() {
		top.Reset()
		for i, key := range keys {
			top.Offer(key, i)
		}
		level = (level + 1) % 4
		top.Retain(
			func(e Entry[int]) bool { return e.Val%4 != level },
			func(e Entry[int]) { released++ },
		)
	})
	if allocs != 0 {
		t.Errorf("Retain allocated %.1f times per call, want 0", allocs)
	}
	if released == 0 {
		t.Error("Retain dropped nothing")
	}
}
