// Package sample implements the centralized (single-stream) samplers that
// the distributed algorithms are built from and validated against:
//
//   - Efraimidis–Spirakis weighted sampling without replacement (the
//     sequential analogue of the paper's precision sampling),
//   - Vitter's reservoir sampling, algorithms R and L (the unweighted
//     classic the paper generalizes),
//   - sequential weighted sampling with replacement,
//   - priority sampling (Duffield–Lund–Thorup), a related key-based
//     scheme for subset-sum estimation,
//   - cascade sampling in the style of Braverman–Ostrovsky–Vorsanger,
//   - an exact brute-force oracle for weighted-SWOR inclusion
//     probabilities, used by the statistical tests.
package sample

import (
	"cmp"
	"math/bits"
	"slices"
)

// Entry is a keyed payload held by TopK.
type Entry[T any] struct {
	Key float64
	Val T
}

// TopK retains the k entries with the largest keys seen so far, using a
// min-heap so each offer is O(log k). Ties are broken arbitrarily; the
// samplers built on top of it use continuous keys, so ties occur with
// probability zero.
type TopK[T any] struct {
	k int
	h []Entry[T]
}

// NewTopK returns a TopK retaining the k largest-keyed entries, k >= 1.
func NewTopK[T any](k int) *TopK[T] {
	if k < 1 {
		panic("sample: NewTopK requires k >= 1")
	}
	return &TopK[T]{k: k}
}

// Len returns the number of retained entries (<= k).
func (t *TopK[T]) Len() int { return len(t.h) }

// K returns the retention capacity.
func (t *TopK[T]) K() int { return t.k }

// Min returns the smallest retained key. ok is false when empty.
func (t *TopK[T]) Min() (key float64, ok bool) {
	if len(t.h) == 0 {
		return 0, false
	}
	return t.h[0].Key, true
}

// Full reports whether k entries are retained.
func (t *TopK[T]) Full() bool { return len(t.h) == t.k }

// Offer inserts (key, val). If the structure overflows, the entry with
// the smallest key is evicted and returned with evicted=true. accepted
// reports whether the offered entry itself was retained.
func (t *TopK[T]) Offer(key float64, val T) (evKey float64, evVal T, evicted, accepted bool) {
	if len(t.h) < t.k {
		t.h = append(t.h, Entry[T]{key, val})
		t.up(len(t.h) - 1)
		return 0, evVal, false, true
	}
	if key <= t.h[0].Key {
		return key, val, true, false
	}
	ev := t.h[0]
	t.h[0] = Entry[T]{key, val}
	t.down(0)
	return ev.Key, ev.Val, true, true
}

// Items returns the retained entries in arbitrary (heap) order. The
// returned slice aliases internal storage; callers must not modify it.
func (t *TopK[T]) Items() []Entry[T] { return t.h }

// SortedDesc returns a fresh slice of the retained entries sorted by
// descending key.
func (t *TopK[T]) SortedDesc() []Entry[T] {
	out := append([]Entry[T](nil), t.h...)
	slices.SortFunc(out, func(a, b Entry[T]) int { return cmp.Compare(b.Key, a.Key) })
	return out
}

// Reset empties the structure, retaining capacity.
func (t *TopK[T]) Reset() { t.h = t.h[:0] }

// Retain keeps the entries for which keep reports true and hands every
// other entry to drop, both in Items order, without allocating. The
// heap ends up exactly as Reset followed by Offer of the kept entries in
// Items order would leave it: each kept entry is written to the next
// free slot w and sifted up at once, and the sift touches only slots
// below w, all of which have been read already.
func (t *TopK[T]) Retain(keep func(Entry[T]) bool, drop func(Entry[T])) {
	w := 0
	for _, e := range t.h {
		if !keep(e) {
			drop(e)
			continue
		}
		t.h[w] = e
		t.up(w)
		w++
	}
	t.h = t.h[:w]
}

func (t *TopK[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.h[parent].Key <= t.h[i].Key {
			break
		}
		t.h[parent], t.h[i] = t.h[i], t.h[parent]
		i = parent
	}
}

func (t *TopK[T]) down(i int) {
	n := len(t.h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && t.h[l].Key < t.h[small].Key {
			small = l
		}
		if r < n && t.h[r].Key < t.h[small].Key {
			small = r
		}
		if small == i {
			return
		}
		t.h[i], t.h[small] = t.h[small], t.h[i]
		i = small
	}
}

// SelectTop reorders xs in place so that its first min(s, len(xs))
// elements are the ones slices.SortFunc(xs, cmp) would put first, in
// unspecified order, and returns that prefix. Elements that compare
// equal across the boundary may trade places; under a total order the
// selected set is unique. It is an introselect — quickselect with a
// median-of-three pivot and no randomness — running in expected O(n);
// after about 2·log2(n) partition rounds it sorts the remaining range,
// so the worst case stays O(n log n). Sorting the prefix with the same
// cmp yields the first s elements of the full sort.
func SelectTop[E any](xs []E, s int, cmp func(a, b E) int) []E {
	if s <= 0 {
		return xs[:0]
	}
	if s >= len(xs) {
		return xs
	}
	// Invariant: xs[:lo] <= xs[lo:hi] <= xs[hi:] and lo < s < hi. A
	// range of 12 or fewer is left to slices.SortFunc, which
	// insertion-sorts it.
	lo, hi := 0, len(xs)
	for rounds := 2 * bits.Len(uint(len(xs))); hi-lo > 12 && rounds > 0; rounds-- {
		m := lo + partition(xs[lo:hi], cmp)
		switch {
		case s < m:
			hi = m
		case s > m+1:
			lo = m + 1
		default:
			return xs[:s]
		}
	}
	slices.SortFunc(xs[lo:hi], cmp)
	return xs[:s]
}

// partition reorders xs (len >= 3) around the median of its first,
// middle and last elements and returns the pivot's final index m, with
// xs[:m] <= xs[m] <= xs[m+1:] under cmp. Both scans stop on elements
// equal to the pivot, so a run of equal elements splits evenly instead
// of degrading to quadratic time.
func partition[E any](xs []E, cmp func(a, b E) int) int {
	last := len(xs) - 1
	mid := last / 2
	if cmp(xs[mid], xs[0]) < 0 {
		xs[mid], xs[0] = xs[0], xs[mid]
	}
	if cmp(xs[last], xs[mid]) < 0 {
		xs[last], xs[mid] = xs[mid], xs[last]
		if cmp(xs[mid], xs[0]) < 0 {
			xs[mid], xs[0] = xs[0], xs[mid]
		}
	}
	// The median becomes the pivot at xs[0]; xs[last] >= pivot and the
	// pivot itself bound the two scans.
	xs[0], xs[mid] = xs[mid], xs[0]
	pivot := xs[0]
	i, j := 0, len(xs)
	for {
		for i++; cmp(xs[i], pivot) < 0; i++ {
		}
		for j--; cmp(pivot, xs[j]) < 0; j-- {
		}
		if i >= j {
			break
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
	xs[0], xs[j] = xs[j], xs[0]
	return j
}
