package core

import (
	"fmt"

	"wrs/internal/stream"
	"wrs/internal/window"
	"wrs/internal/xrand"
)

// WindowSite is the per-site state machine of the distributed
// sliding-window application: weighted SWOR of size s over the most
// recent `width` items of each site's (shard-local) sub-stream. It is
// the first site machine whose relevant state is non-monotone — items
// expire — so it cannot use the epoch thresholds of Algorithm 1 (a
// threshold that is safe now may discard an item that re-enters the
// sample when heavier items expire). Instead it is push-only, built on
// the dominance structure of internal/window:
//
//   - Every arrival is stamped with the site-local position pos
//     (carried on the wire as WindowStamp(pos, site, k)) and keyed
//     immediately (one ExpKey per arrival, so seeded runs replay on
//     every runtime).
//   - The site keeps its own windowed retention structure and
//     maintains the invariant that every member of its *local window
//     top-s* has been sent: the union window top-s is contained in the
//     union of per-site top-s sets (any global top item has fewer than
//     s dominators in the union window, hence fewer than s in its own
//     site's window), so the coordinator always holds a superset of
//     the true sample — the same sandwich argument that makes sharded
//     merges exact. Items below the local top-s are buffered unsent;
//     when expiries promote one into the top-s (which can only happen
//     during a local arrival — the site's window only moves then), it
//     is sent with its original stamp.
//   - Exactness also needs the coordinator to *expire* what this site
//     has sent: whenever a sent item falls out of the local window and
//     no message of this arrival carries the current position, the
//     site emits a MsgClock stamp (amortized at most one clock per
//     sent item — each clock covers at least the expired minimum).
//
// The hot path is incremental (DESIGN.md §13): instead of re-deriving
// the top-s threshold from scratch and sweeping every retained entry
// per arrival, the site maintains
//
//   - top: a min-heap holding exactly the top-min(s, live) entries of
//     the retained set (each retained entry carries an inTop flag);
//     its root is the send threshold whenever more than s entries are
//     live, matching the old full-rebuild sthKey value bit for bit
//     (lazily retained dominated entries are never in the live top-s,
//     so the top-s multiset — and hence its minimum — is unchanged);
//   - rest: a lazy max-heap of (key, pos) records for entries below
//     the top; records of expired, compacted-away, or promoted entries
//     go stale and are skipped on pop (a record is live iff its pos
//     still resolves into the retained array and is not in top). The
//     heap order invariant max(rest) <= min(top) is restored after
//     each arrival with at most one promotion (the single possible
//     expiry) plus at most one swap (the single new arrival);
//   - dominance is pruned lazily exactly as in window.Retention: a
//     backward suffix-top-s compaction triggered when the live count
//     doubles, equivalent to the eager per-arrival rule because the s
//     largest of an entry's later-larger arrivals survive every
//     compaction. Expiry is a prefix drop handled by advancing start
//     and reusing the backing array in place.
//
// The common case — new key below threshold, no expiry touching the
// top — is O(log s): one heap push and one comparison. The message
// sequence is bit-identical to the per-arrival O(kept) implementation
// it replaced (same RNG draws, same sent sets in the same order, same
// clocks), which the pinned windowed-protocol suites verify.
//
// No broadcasts exist in this protocol: HandleBroadcast ignores
// everything, which is also what makes the machine trivially safe on
// asynchronous runtimes (there is no control plane to go stale).
type WindowSite struct {
	id    int
	cfg   Config
	width int
	rng   *xrand.RNG
	n     int // site-local (= shard-local per machine) arrivals

	start   int           // kept[start:] are the live entries
	kept    []windowEntry // ascending pos from start
	pruneAt int           // live count triggering the next dominance compaction

	top        []heapRec // min-heap by key: the live top-min(s, live)
	rest       []heapRec // max-heap by key: below-top records, lazily invalidated
	pending    []int     // scratch: positions to send this arrival
	keyScratch []float64 // scratch: compaction's suffix top-s heap

	frontier int   // highest pos stamped on any sent message; -1 before any
	sentPos  []int // min-heap: sent positions the coordinator may retain

	// Diagnostics.
	Observed int64
	Sent     int64 // total upstream messages (candidates + clocks)
	Clocks   int64 // MsgClock messages within Sent
	MaxKept  int   // high-water retained count (lazy, so up to ~2x eager)
}

type windowEntry struct {
	pos   int
	key   float64
	item  stream.Item
	sent  bool
	inTop bool
}

// heapRec is a (key, pos) record in the top and rest heaps.
type heapRec struct {
	key float64
	pos int
}

// NewWindowSite returns the windowed state machine for site id. Each
// site needs an independently seeded RNG (split order: see DESIGN.md
// §10 and docs/PLUGINS.md).
func NewWindowSite(id int, cfg Config, width int, rng *xrand.RNG) *WindowSite {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if width < 1 {
		panic(fmt.Sprintf("core: window width must be >= 1, got %d", width))
	}
	st := &WindowSite{id: id, cfg: cfg, width: width, rng: rng, frontier: -1}
	st.setPruneAt(cfg.S)
	return st
}

// ID returns the site's identifier.
func (st *WindowSite) ID() int { return st.id }

// Width returns the window width in sub-stream items.
func (st *WindowSite) Width() int { return st.width }

// N returns the number of items observed by this machine.
func (st *WindowSite) N() int { return st.n }

// Resume fast-forwards a fresh machine's sequence position to n, so a
// replacement site continues the sub-stream where a crashed machine
// left it. The windowed protocol's exactness depends on per-site
// positions never being reused: the coordinator's retention clock only
// moves forward, so a replacement starting again at position 0 would
// see every candidate it sends dropped as pre-expired. The machine
// starts with an empty local window — whatever the dead site retained
// is gone, which the delivery-relative oracle accounts for naturally
// (unsent candidates were never acknowledged).
func (st *WindowSite) Resume(n int) error {
	if n < 0 {
		return fmt.Errorf("core: cannot resume window site at negative position %d", n)
	}
	if st.n != 0 || st.Sent != 0 {
		return fmt.Errorf("core: Resume requires a fresh site machine (observed %d, sent %d)", st.n, st.Sent)
	}
	st.n = n
	return nil
}

// Buffered returns the current retention size (sent and unsent; lazy,
// so up to ~2x the eager dominance-pruned count — see Compact).
func (st *WindowSite) Buffered() int { return st.live() }

func (st *WindowSite) live() int { return len(st.kept) - st.start }

// setPruneAt mirrors window.Retention: next compaction at double the
// live count, clamped below width.
func (st *WindowSite) setPruneAt(n int) {
	p := 2*n + st.cfg.S
	if p >= st.width {
		p = st.width - 1
	}
	st.pruneAt = p
}

// Observe processes one local arrival, emitting any resulting
// sequence-stamped messages through send.
func (st *WindowSite) Observe(it stream.Item, send func(Message)) error {
	if err := validWeight(it.Weight); err != nil {
		return err
	}
	pos := st.n
	if pos > (MaxWindowStamp-st.id)/st.cfg.K {
		return fmt.Errorf("core: window sequence stamp overflow at position %d (site %d of %d)", pos, st.id, st.cfg.K)
	}
	st.n++
	st.Observed++
	key := st.rng.ExpKey(it.Weight)

	// Slide the local window: the clock advances by one, so at most the
	// single oldest live entry can expire.
	lo := st.n - st.width
	if st.start < len(st.kept) && st.kept[st.start].pos < lo {
		e := st.kept[st.start]
		st.kept[st.start] = windowEntry{}
		st.start++
		if e.inTop {
			st.topRemove(e.pos)
		}
		if st.start == len(st.kept) {
			st.kept = st.kept[:0]
			st.start = 0
		}
	}

	// Append the new arrival, recycling the backing array in place when
	// the expired prefix would otherwise force a reallocation.
	if len(st.kept) == cap(st.kept) && st.start > 0 {
		st.compactFront()
	}
	st.kept = append(st.kept, windowEntry{pos: pos, key: key, item: it})
	st.restPush(heapRec{key: key, pos: pos})
	if st.live() > st.MaxKept {
		st.MaxKept = st.live()
	}

	// Restore the top-s invariant and collect the entries the old
	// full-sweep would newly send: at most one promotion refilling the
	// expiry, the new arrival, and (measure-zero) ties at the threshold.
	st.pending = st.pending[:0]
	for len(st.top) < st.cfg.S {
		r, ok := st.restPopLive()
		if !ok {
			break
		}
		st.promote(r)
	}
	if len(st.top) == st.cfg.S && st.live() > st.cfg.S {
		// Only the new arrival can sit in rest above the top root; one
		// swap restores max(rest) <= min(top). The demoted root was sent
		// in an earlier arrival (every top member is), so it just moves
		// back below the threshold.
		if r, ok := st.restPeekLive(); ok && r.key > st.top[0].key {
			st.restPopMax()
			root := st.topPopRoot()
			st.restPush(root)
			st.promote(r)
		}
	}
	th := -1.0
	if st.live() > st.cfg.S {
		th = st.top[0].key
		st.collectTies(th)
	}
	if len(st.rest) > 2*st.live()+st.cfg.S {
		st.rebuildRest()
	}

	// Send pending promotions in ascending position order — the order
	// the old sweep over the position-sorted retained array produced.
	st.sortPending()
	for _, p := range st.pending {
		e := &st.kept[st.start+st.findLive(p)]
		e.sent = true
		st.Sent++
		if e.pos > st.frontier {
			st.frontier = e.pos
		}
		st.pushSent(e.pos)
		send(Message{Kind: MsgWindow, Item: e.item, Key: e.key, Level: WindowStamp(e.pos, st.id, st.cfg.K)})
	}
	st.dropCovered()

	// A sent item expired, but no message of this arrival carried the
	// current position (a promotion's stamp is its original, older pos):
	// advance the coordinator's clock explicitly so it can expire it.
	if len(st.sentPos) > 0 && st.sentPos[0] < lo {
		st.Sent++
		st.Clocks++
		st.frontier = pos
		send(Message{Kind: MsgClock, Level: WindowStamp(pos, st.id, st.cfg.K)})
		st.dropCovered()
	}

	// Dominance compaction runs last, once top is the exact top-s of
	// the live set including this arrival: a true top-s member has
	// fewer than s larger live keys anywhere, so in particular fewer
	// than s later-larger ones, and can never be dropped here. Running
	// it earlier would compact against a top heap that is stale with
	// respect to the new key.
	if st.live() > st.pruneAt {
		st.compact()
	}
	return nil
}

// HandleBroadcast ignores every announcement: the windowed protocol is
// push-only and has no coordinator-to-site control plane.
func (st *WindowSite) HandleBroadcast(Message) {}

// Threshold returns the current send threshold: the s-th largest live
// key, or -1 while at most s entries are live (diagnostics and the
// lockstep/fuzz suites).
func (st *WindowSite) Threshold() float64 {
	if st.live() > st.cfg.S {
		return st.top[0].key
	}
	return -1
}

// Compact eagerly applies the dominance rule (tests: makes Buffered
// comparable with an eagerly pruned reference).
func (st *WindowSite) Compact() { st.compact() }

// findLive returns the index of pos within the live slice kept[start:],
// or -1. Live entries are strictly ascending by pos.
func (st *WindowSite) findLive(pos int) int {
	live := st.kept[st.start:]
	lo, hi := 0, len(live)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if live[mid].pos < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(live) && live[lo].pos == pos {
		return lo
	}
	return -1
}

// promote moves a validated rest record into the top heap; unsent
// promotions are queued for sending.
func (st *WindowSite) promote(r heapRec) {
	e := &st.kept[st.start+st.findLive(r.pos)]
	e.inTop = true
	if !e.sent {
		st.pending = append(st.pending, r.pos)
	}
	st.top = append(st.top, r)
	for c := len(st.top) - 1; c > 0; {
		p := (c - 1) / 2
		if st.top[p].key <= st.top[c].key {
			break
		}
		st.top[p], st.top[c] = st.top[c], st.top[p]
		c = p
	}
}

// topPopRoot removes and returns the top heap's minimum, clearing its
// inTop flag and un-queuing it if it was promoted this same arrival
// (the spurious-promotion case: an entry refilled into the top that the
// new arrival immediately evicts was never in the final top-s, and the
// old sweep would not have sent it).
func (st *WindowSite) topPopRoot() heapRec {
	root := st.top[0]
	e := &st.kept[st.start+st.findLive(root.pos)]
	e.inTop = false
	for i, p := range st.pending {
		if p == root.pos {
			st.pending = append(st.pending[:i], st.pending[i+1:]...)
			break
		}
	}
	last := len(st.top) - 1
	st.top[0] = st.top[last]
	st.top = st.top[:last]
	st.topSiftDown(0)
	return root
}

// topRemove deletes the record for pos from the top heap (expiry path;
// O(s) find plus O(log s) repair).
func (st *WindowSite) topRemove(pos int) {
	for i := range st.top {
		if st.top[i].pos == pos {
			last := len(st.top) - 1
			st.top[i] = st.top[last]
			st.top = st.top[:last]
			if i < last {
				st.topSiftDown(i)
				st.topSiftUp(i)
			}
			return
		}
	}
}

func (st *WindowSite) topSiftUp(c int) {
	for c > 0 {
		p := (c - 1) / 2
		if st.top[p].key <= st.top[c].key {
			return
		}
		st.top[p], st.top[c] = st.top[c], st.top[p]
		c = p
	}
}

func (st *WindowSite) topSiftDown(c int) {
	for {
		l, r := 2*c+1, 2*c+2
		m := c
		if l < len(st.top) && st.top[l].key < st.top[m].key {
			m = l
		}
		if r < len(st.top) && st.top[r].key < st.top[m].key {
			m = r
		}
		if m == c {
			return
		}
		st.top[m], st.top[c] = st.top[c], st.top[m]
		c = m
	}
}

// restPush adds a record to the rest max-heap.
func (st *WindowSite) restPush(r heapRec) {
	st.rest = append(st.rest, r)
	for c := len(st.rest) - 1; c > 0; {
		p := (c - 1) / 2
		if st.rest[p].key >= st.rest[c].key {
			break
		}
		st.rest[p], st.rest[c] = st.rest[c], st.rest[p]
		c = p
	}
}

// restPopMax removes the maximum record without validation.
func (st *WindowSite) restPopMax() heapRec {
	root := st.rest[0]
	last := len(st.rest) - 1
	st.rest[0] = st.rest[last]
	st.rest = st.rest[:last]
	st.restSiftDown(0)
	return root
}

func (st *WindowSite) restSiftDown(c int) {
	for {
		l, r := 2*c+1, 2*c+2
		m := c
		if l < len(st.rest) && st.rest[l].key > st.rest[m].key {
			m = l
		}
		if r < len(st.rest) && st.rest[r].key > st.rest[m].key {
			m = r
		}
		if m == c {
			return
		}
		st.rest[m], st.rest[c] = st.rest[c], st.rest[m]
		c = m
	}
}

// restValid reports whether a rest record still names a live, below-top
// entry (stale records name expired, compacted-away, or promoted ones).
func (st *WindowSite) restValid(r heapRec) bool {
	i := st.findLive(r.pos)
	return i >= 0 && !st.kept[st.start+i].inTop
}

// restPeekLive discards stale records until the maximum is live, and
// returns it without removing it.
func (st *WindowSite) restPeekLive() (heapRec, bool) {
	for len(st.rest) > 0 {
		if st.restValid(st.rest[0]) {
			return st.rest[0], true
		}
		st.restPopMax()
	}
	return heapRec{}, false
}

// restPopLive removes and returns the maximum live record.
func (st *WindowSite) restPopLive() (heapRec, bool) {
	r, ok := st.restPeekLive()
	if ok {
		st.restPopMax()
	}
	return r, ok
}

// collectTies queues unsent rest entries whose key equals the threshold
// (the old sweep's rule is key >= th; with continuous keys this branch
// has measure zero, but the rule is preserved exactly).
func (st *WindowSite) collectTies(th float64) {
	if r, ok := st.restPeekLive(); !ok || r.key < th {
		return
	}
	var hold []heapRec
	for len(st.rest) > 0 {
		r, ok := st.restPeekLive()
		if !ok || r.key < th {
			break
		}
		st.restPopMax()
		hold = append(hold, r)
		e := &st.kept[st.start+st.findLive(r.pos)]
		if !e.sent {
			st.pending = append(st.pending, r.pos)
		}
	}
	for _, r := range hold {
		st.restPush(r)
	}
}

// rebuildRest re-derives the rest heap from the live below-top entries,
// shedding accumulated stale records (Floyd heapify, O(live)).
func (st *WindowSite) rebuildRest() {
	st.rest = st.rest[:0]
	for i := st.start; i < len(st.kept); i++ {
		if !st.kept[i].inTop {
			st.rest = append(st.rest, heapRec{key: st.kept[i].key, pos: st.kept[i].pos})
		}
	}
	for i := len(st.rest)/2 - 1; i >= 0; i-- {
		st.restSiftDown(i)
	}
}

// compactFront slides the live entries to the front of the backing
// array, reclaiming the expired prefix without reallocating.
func (st *WindowSite) compactFront() {
	n := copy(st.kept, st.kept[st.start:])
	tail := st.kept[n:]
	for i := range tail {
		tail[i] = windowEntry{}
	}
	st.kept = st.kept[:n]
	st.start = 0
}

// compact applies the dominance rule eagerly: one backward pass with
// the suffix top-s min-heap drops every entry with at least s later,
// strictly larger live entries (the window.Retention rule). Top members
// are never dropped — a live top-s entry has fewer than s larger keys
// anywhere in the window — so the top heap survives unchanged; rest is
// rebuilt, shedding records of the dropped.
func (st *WindowSite) compact() {
	live := st.kept[st.start:]
	h := st.keyScratch[:0]
	out := len(live)
	for i := len(live) - 1; i >= 0; i-- {
		e := live[i]
		// The !inTop guard is belt-and-braces: compact runs only after
		// the top heap is exact for the current live set, and an exact
		// top-s member is never dominated.
		if len(h) == st.cfg.S && h[0] > e.key && !e.inTop {
			continue
		}
		h = window.PushTopKey(h, e.key, st.cfg.S)
		out--
		live[out] = e
	}
	n := copy(st.kept, live[out:])
	tail := st.kept[n:]
	for i := range tail {
		tail[i] = windowEntry{}
	}
	st.kept = st.kept[:n]
	st.start = 0
	st.keyScratch = h
	st.setPruneAt(n)
	st.rebuildRest()
}

// sortPending orders the pending positions ascending (insertion sort:
// at most a promotion, the new arrival, and rare ties).
func (st *WindowSite) sortPending() {
	for i := 1; i < len(st.pending); i++ {
		v := st.pending[i]
		j := i
		for j > 0 && st.pending[j-1] > v {
			st.pending[j] = st.pending[j-1]
			j--
		}
		st.pending[j] = v
	}
}

// pushSent records a sent position in the min-heap of positions the
// coordinator may still retain.
func (st *WindowSite) pushSent(pos int) {
	st.sentPos = append(st.sentPos, pos)
	for c := len(st.sentPos) - 1; c > 0; {
		p := (c - 1) / 2
		if st.sentPos[p] <= st.sentPos[c] {
			break
		}
		st.sentPos[p], st.sentPos[c] = st.sentPos[c], st.sentPos[p]
		c = p
	}
}

// dropCovered pops sent positions the coordinator has provably expired:
// a stamp at frontier advances its clock to frontier+1, expiring
// everything at or below frontier-width.
func (st *WindowSite) dropCovered() {
	bound := st.frontier - st.width
	for len(st.sentPos) > 0 && st.sentPos[0] <= bound {
		last := len(st.sentPos) - 1
		st.sentPos[0] = st.sentPos[last]
		st.sentPos = st.sentPos[:last]
		for c := 0; ; {
			l, r := 2*c+1, 2*c+2
			m := c
			if l < len(st.sentPos) && st.sentPos[l] < st.sentPos[m] {
				m = l
			}
			if r < len(st.sentPos) && st.sentPos[r] < st.sentPos[m] {
				m = r
			}
			if m == c {
				break
			}
			st.sentPos[m], st.sentPos[c] = st.sentPos[c], st.sentPos[m]
			c = m
		}
	}
}
