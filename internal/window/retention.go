package window

import (
	"fmt"

	"wrs/internal/stream"
)

// Retention is the dominance-pruned retention structure over one
// position-stamped sub-stream, generalized for external sequence
// sources: positions and keys are supplied by the caller instead of
// being generated here, and the clock (how many positions the
// sub-stream has advanced) can move independently of insertions. It is
// the building block both of the centralized Sampler (which feeds it
// in arrival order with keys from its own RNG) and of the distributed
// windowed coordinator (which keeps one Retention per site, fed from
// sequence-stamped protocol messages and clock announcements).
//
// Invariant: kept[start:] holds, in ascending position order, a
// superset of the added items that (a) are inside the current window
// [count-width, count-1] and (b) have fewer than s *later* added items
// with larger keys. Later items outlive earlier ones in every window
// (windows are suffixes of the sub-stream), so an item with s later
// dominators can never re-enter a top-s sample — discarding it is
// safe, and the expected retained count is O(s·log(width/s)).
//
// The dominance rule is applied *lazily*: instead of updating dominator
// counts on every Add (an O(retained) scan per arrival), Compact runs a
// single backward pass with a suffix top-s min-heap whenever the live
// count doubles past its post-compaction size. This is equivalent to
// the eager rule — the s largest of any entry's later-larger arrivals
// always survive every compaction (each is itself beaten only by even
// larger, even later entries), so counting dominators among survivors
// counts exactly the entries the eager rule would — while making the
// per-arrival cost O(1) amortized plus O(log s) per compaction share.
// Between compactions a dominated entry may linger; it is never in the
// window top-s (its s live dominators outrank it), so Sample and
// AppendEntries consumers are unaffected. Retained is therefore an
// upper bound on the eager count, at most ~2x; call Compact first when
// an exact dominance-pruned count is needed.
//
// Expiry is always a prefix drop (positions ascend), handled by
// advancing start and compacting the array in place when the dead
// prefix would force a reallocation — the steady state recycles one
// backing array with zero allocations.
//
// core.WindowSite inlines the same lazy rule (its entries additionally
// carry sent flags and an incremental top-s threshold); the exactness
// of the distributed protocol depends on the two staying the same
// rule, pinned by TestWindowSiteRetentionLockstep in internal/core.
type Retention struct {
	s       int
	width   int
	count   int     // positions observed: the window is [count-width, count-1]
	start   int     // kept[start:] are the live entries
	kept    []Entry // ascending by Pos from start
	heap    []float64
	pruneAt int // live count that triggers the next dominance compaction
}

// NewRetention returns a retention structure for sample size s over a
// window of width positions.
func NewRetention(s, width int) (*Retention, error) {
	if s < 1 || width < 1 {
		return nil, fmt.Errorf("window: need s >= 1 and width >= 1, got %d, %d", s, width)
	}
	r := &Retention{s: s, width: width}
	r.setPruneAt(s)
	return r, nil
}

// setPruneAt schedules the next dominance compaction at roughly double
// the current live count n, clamped below width: the window never holds
// width positions' worth of lazy slack, so small windows stay
// near-eagerly pruned while large ones amortize the compaction cost.
func (r *Retention) setPruneAt(n int) {
	p := 2*n + r.s
	if p >= r.width {
		p = r.width - 1
	}
	r.pruneAt = p
}

// Add inserts the item observed at position pos with the given key.
// Positions need not arrive in order (the distributed protocol delivers
// promoted items after newer ones); an already-expired position is
// dropped. Adding position p advances the clock to at least p+1.
func (r *Retention) Add(pos int, key float64, it stream.Item) {
	if pos < 0 {
		return
	}
	if pos >= r.count {
		r.count = pos + 1
	}
	lo := r.count - r.width
	if pos < lo {
		return // expired before it arrived; it can never be sampled again
	}
	r.expire(lo)
	if len(r.kept) == cap(r.kept) && r.start > 0 {
		r.compactFront()
	}
	// Insert in position order (tail scan: sub-streams are nearly sorted).
	i := len(r.kept)
	r.kept = append(r.kept, Entry{})
	for i > r.start && r.kept[i-1].Pos > pos {
		r.kept[i] = r.kept[i-1]
		i--
	}
	r.kept[i] = Entry{Pos: pos, Key: key, Item: it}
	if r.Retained() > r.pruneAt {
		r.Compact()
	}
}

// Advance raises the clock to count positions observed (no-op if the
// clock is already there or past), expiring items that left the window.
// A jump past every retained position empties the structure — the
// all-items-expired case.
func (r *Retention) Advance(count int) {
	if count <= r.count {
		return
	}
	r.count = count
	r.expire(count - r.width)
}

// expire advances start past entries that left the window, zeroing the
// dead slots so expired items are released immediately.
func (r *Retention) expire(lo int) {
	for r.start < len(r.kept) && r.kept[r.start].Pos < lo {
		r.kept[r.start] = Entry{}
		r.start++
	}
	if r.start == len(r.kept) {
		r.kept = r.kept[:0]
		r.start = 0
	}
}

// compactFront slides the live entries to the front of the backing
// array, reclaiming the expired prefix without reallocating.
func (r *Retention) compactFront() {
	n := copy(r.kept, r.kept[r.start:])
	tail := r.kept[n:]
	for i := range tail {
		tail[i] = Entry{}
	}
	r.kept = r.kept[:n]
	r.start = 0
}

// Compact eagerly applies the dominance rule now: one backward pass
// maintaining the min-heap of the s largest keys seen so far (the live
// suffix top-s), dropping every entry those keys dominate. Afterwards
// Retained equals the eager dominance-pruned count exactly.
func (r *Retention) Compact() {
	live := r.kept[r.start:]
	h := r.heap[:0]
	out := len(live)
	for i := len(live) - 1; i >= 0; i-- {
		e := live[i]
		if len(h) == r.s && h[0] > e.Key {
			continue // >= s later live entries hold strictly larger keys
		}
		h = PushTopKey(h, e.Key, r.s)
		out--
		live[out] = e
	}
	n := copy(r.kept, live[out:])
	tail := r.kept[n:]
	for i := range tail {
		tail[i] = Entry{}
	}
	r.kept = r.kept[:n]
	r.start = 0
	r.heap = h
	r.setPruneAt(n)
}

// PushTopKey folds k into the min-heap h of the up-to-s largest keys:
// the compaction step of Retention and of core.WindowSite.
func PushTopKey(h []float64, k float64, s int) []float64 {
	if len(h) < s {
		h = append(h, k)
		for c := len(h) - 1; c > 0; {
			p := (c - 1) / 2
			if h[p] <= h[c] {
				break
			}
			h[p], h[c] = h[c], h[p]
			c = p
		}
		return h
	}
	if k <= h[0] {
		return h
	}
	h[0] = k
	for c := 0; ; {
		l, rr := 2*c+1, 2*c+2
		m := c
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if rr < len(h) && h[rr] < h[m] {
			m = rr
		}
		if m == c {
			break
		}
		h[m], h[c] = h[c], h[m]
		c = m
	}
	return h
}

// RetentionState is a self-contained checkpoint of one Retention: the
// clock and the live entries. The lazy-compaction bookkeeping (pruneAt,
// heap scratch) is derived state and deliberately not captured — a
// restored structure re-schedules its next compaction from the restored
// live count, which only changes *when* dominated entries are shed, not
// which entries any read path can observe.
type RetentionState struct {
	Count   int
	Entries []Entry // ascending by Pos, all inside [Count-width, Count-1]
}

// ExportState captures the retention structure as a RetentionState that
// shares nothing with the live structure.
func (r *Retention) ExportState() RetentionState {
	return RetentionState{
		Count:   r.count,
		Entries: append([]Entry(nil), r.kept[r.start:]...),
	}
}

// RestoreState overwrites the structure with a checkpoint in place,
// keeping outstanding pointers valid (the chaos engine's restart path).
// The checkpoint must have been taken from a structure with the same s
// and width: entries are validated against this structure's window.
func (r *Retention) RestoreState(st RetentionState) error {
	if st.Count < 0 {
		return fmt.Errorf("window: snapshot clock %d is negative", st.Count)
	}
	lo := st.Count - r.width
	prev := lo - 1
	for _, e := range st.Entries {
		if e.Pos < lo || e.Pos >= st.Count {
			return fmt.Errorf("window: snapshot entry at pos %d outside window [%d, %d]", e.Pos, lo, st.Count-1)
		}
		if e.Pos <= prev {
			return fmt.Errorf("window: snapshot entries not strictly ascending at pos %d", e.Pos)
		}
		prev = e.Pos
	}
	r.count = st.Count
	r.start = 0
	old := len(r.kept)
	r.kept = append(r.kept[:0], st.Entries...)
	if old > len(r.kept) {
		tail := r.kept[len(r.kept):old]
		for i := range tail {
			tail[i] = Entry{} // release items the checkpoint dropped
		}
	}
	r.setPruneAt(len(st.Entries))
	return nil
}

// Count returns the clock: the number of positions observed.
func (r *Retention) Count() int { return r.count }

// Live returns how many positions are currently inside the window:
// min(count, width).
func (r *Retention) Live() int {
	if r.count < r.width {
		return r.count
	}
	return r.width
}

// Retained returns the number of items currently stored — with lazy
// pruning, at most ~2x the eager dominance-pruned count (run Compact
// for the exact count).
func (r *Retention) Retained() int { return len(r.kept) - r.start }

// AppendEntries appends every retained entry (all inside the current
// window, unsorted beyond ascending position) to dst and returns it —
// the O(retained) read path; sort outside any lock.
func (r *Retention) AppendEntries(dst []Entry) []Entry {
	return append(dst, r.kept[r.start:]...)
}

// Sample returns the weighted SWOR of the current window: the retained
// items with the top min(s, live) keys, largest first.
func (r *Retention) Sample() []Entry {
	out := r.AppendEntries(make([]Entry, 0, r.Retained()))
	return TopEntries(out, r.s)
}
