// Package window implements weighted sampling without replacement over a
// sliding window — the extension the paper poses as future work in its
// conclusion ("extend our algorithm for weighted sampling to the sliding
// window model"). This is the centralized (single-stream) building block:
// a sequence-based window of the most recent `width` items, over which a
// weighted SWOR of size s is maintained at every step.
//
// It uses the same precision-sampling keys as the rest of the library
// (v = w/t, t ~ Exp(1)); the sample for any window is the top-s keys
// among the items in it. The structure retains exactly the items that
// could still enter some future sample: an item can be discarded once s
// *later* items hold larger keys, because every window that contains the
// item also contains all later items (windows are suffixes). The expected
// number of retained items is O(s·log(width/s)) — the classic bound for
// such dominance lists.
//
// The retention logic is factored into Retention, which is generalized
// for external sequence sources (caller-supplied positions, keys, and
// clock advances): the distributed windowed application (internal/core's
// WindowCoordinator) keeps one Retention per site sub-stream, fed from
// sequence-stamped protocol messages.
package window

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"wrs/internal/sample"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// Entry is a retained item with its key and arrival position within its
// sub-stream.
type Entry struct {
	Pos  int
	Key  float64
	Item stream.Item
}

// TopEntries reorders entries in place so that the s first in
// descending key order come first, sorted, and truncates to s. Ties,
// which have measure zero, break by item ID — in the selection as in
// the sort — so every windowed query path is a deterministic function
// of its candidate set. It selects the s in linear time and sorts only
// them. It is the finishing step for AppendEntries results, always run
// outside any ingest lock.
func TopEntries(entries []Entry, s int) []Entry {
	entries = sample.SelectTop(entries, s, compareEntries)
	slices.SortFunc(entries, compareEntries)
	return entries
}

// compareEntries is the windowed sample order: key descending, then
// item ID ascending.
func compareEntries(a, b Entry) int {
	if c := cmp.Compare(b.Key, a.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Item.ID, b.Item.ID)
}

// Sampler maintains a weighted SWOR of size s over the last `width`
// arrivals of a single stream: it draws a key per arrival from its own
// RNG and feeds the shared Retention structure in arrival order.
type Sampler struct {
	ret *Retention
	rng *xrand.RNG

	// KeyHook, when set, receives every generated key (tests).
	KeyHook func(id uint64, key float64)
}

type entry struct {
	Entry
	dominators int // later items with larger keys (monotone)
}

// New returns a sliding-window sampler with sample size s and window
// width in items.
func New(s, width int, rng *xrand.RNG) (*Sampler, error) {
	ret, err := NewRetention(s, width)
	if err != nil {
		return nil, err
	}
	return &Sampler{ret: ret, rng: rng}, nil
}

// Observe feeds one item; weights must be positive and finite.
func (w *Sampler) Observe(it stream.Item) error {
	if !(it.Weight > 0) || math.IsInf(it.Weight, 0) || math.IsNaN(it.Weight) {
		return fmt.Errorf("window: weight must be positive and finite, got %v", it.Weight)
	}
	key := w.rng.ExpKey(it.Weight)
	if w.KeyHook != nil {
		w.KeyHook(it.ID, key)
	}
	w.ret.Add(w.ret.Count(), key, it)
	return nil
}

// Sample returns the weighted SWOR of the current window: the items with
// the top min(s, window size) keys, largest first.
func (w *Sampler) Sample() []Entry { return w.ret.Sample() }

// Retained returns the number of items currently stored — expected
// O(s·log(width/s)), far below width.
func (w *Sampler) Retained() int { return w.ret.Retained() }

// N returns the number of items observed so far.
func (w *Sampler) N() int { return w.ret.Count() }
