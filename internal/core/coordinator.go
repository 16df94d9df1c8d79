package core

import (
	"cmp"
	"slices"

	"wrs/internal/sample"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// SampleEntry is one sampled item together with its precision-sampling
// key.
type SampleEntry struct {
	Key  float64
	Item stream.Item
}

// CoordStats counts protocol events at the coordinator.
type CoordStats struct {
	EarlyMsgs      int64 // early messages received
	RegularMsgs    int64 // regular messages received
	Saturations    int64 // level sets saturated (each costs one broadcast)
	EpochAdvances  int64 // threshold broadcasts
	LateEarlyMsgs  int64 // early messages for already-saturated levels (async runtimes only)
	DroppedRegular int64 // regular messages below u on arrival (stale site threshold)
	IgnoredMsgs    int64 // messages of kinds that are not coordinator input
}

// Broadcasts returns the number of coordinator broadcasts performed.
func (s CoordStats) Broadcasts() int64 { return s.Saturations + s.EpochAdvances }

// poolItem tags a withheld item with its level so saturation can release
// exactly the items of that level from the O(s)-bounded pool.
type poolItem struct {
	item  stream.Item
	level int
}

// Coordinator is the state machine of Algorithms 2 and 3. Per
// Proposition 6 it stores O(s) machine words: the sample heap S, the
// level pool (the top-s keys among withheld items, see DESIGN.md), one
// early-message counter per level up to the highest level seen (at most
// MaxLevel+1), and the ControlPlane its broadcasts have built.
type Coordinator struct {
	cfg Config
	r   float64
	rng *xrand.RNG
	rec *Recorder

	smp   *sample.TopK[stream.Item] // S: top-s released keys
	u     float64                   // min key of S once |S| = s, else 0
	plane ControlPlane              // fold of every broadcast sent
	early []int                     // early messages counted, per level
	pool  *sample.TopK[poolItem]    // Slevel: top-s withheld keys

	Stats CoordStats
}

// NewCoordinator returns the coordinator state machine. It needs its own
// RNG (keys of withheld items are generated here, per Algorithm 2).
func NewCoordinator(cfg Config, rng *xrand.RNG) *Coordinator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Coordinator{
		cfg:  cfg,
		r:    cfg.R(),
		rng:  rng,
		smp:  sample.NewTopK[stream.Item](cfg.S),
		pool: sample.NewTopK[poolItem](cfg.S),
	}
}

// SetRecorder attaches a key recorder (tests only).
func (c *Coordinator) SetRecorder(rec *Recorder) { c.rec = rec }

// U returns u, the s-th largest released key (0 until S fills). It is
// monotone nondecreasing over the run.
func (c *Coordinator) U() float64 { return c.u }

// Core returns the coordinator itself. Wrapper coordinators (e.g. the
// L1 tracker's DupCoordinator) implement the same method to expose the
// inner sampler state machine, so runtimes can reach the sampler —
// query, control-plane snapshot — through one interface regardless of
// what application is layered on top.
func (c *Coordinator) Core() *Coordinator { return c }

// DropBelow returns the largest key B such that a MsgRegular with
// Key <= B may be discarded without delivering it to HandleMessage:
// such a key has at least s released dominators (u is monotone
// nondecreasing), so HandleMessage would drop it on arrival anyway.
// Transports use this to pre-filter messages outside their ingest
// lock. 0 means nothing may be dropped.
func (c *Coordinator) DropBelow() float64 { return c.u }

// CurrentThreshold returns the last broadcast epoch threshold.
func (c *Coordinator) CurrentThreshold() float64 { return c.plane.Threshold() }

// ControlPlane returns the fold of every broadcast the coordinator has
// sent: what a site that missed none of them filters with, and what a
// late joiner replays (DESIGN.md §5.3).
func (c *Coordinator) ControlPlane() ControlPlane { return c.plane }

// UnionTopSMergeable declares that every answer built on this
// coordinator depends only on the top-s keys (and their items) of the
// released-message union plus the withheld pool — so an intermediate
// aggregator (package relay) may drop a MsgRegular that already has s
// forwarded dominators in its own substream: the global top-s of a
// union is contained in the union of substream top-s sets, exactly the
// argument the shard fabric's query merge rests on. Application
// wrappers whose answer reads more than the top-s (the L1 tracker's
// exact-prefix accumulator, the windowed coordinator's non-monotone
// retention) must NOT expose this method — they wrap the coordinator in
// a plain field, never by embedding, so the marker cannot leak through.
func (c *Coordinator) UnionTopSMergeable() bool { return true }

// Config returns the configuration.
func (c *Coordinator) Config() Config { return c.cfg }

// HandleMessage processes one site message; any resulting announcement to
// the sites is emitted through bcast (which the transport must deliver to
// every site).
func (c *Coordinator) HandleMessage(m Message, bcast func(Message)) {
	switch m.Kind {
	case MsgEarly:
		c.Stats.EarlyMsgs++
		c.handleEarly(m.Item, bcast)
	case MsgRegular:
		c.Stats.RegularMsgs++
		if m.Key <= c.u && c.smp.Full() {
			// Below the s-th released key: cannot be in the top s.
			// Happens only with stale site thresholds (async runtimes).
			c.Stats.DroppedRegular++
			return
		}
		c.addToSample(m.Key, m.Item)
		c.maybeAdvanceEpoch(bcast)
	default:
		// MsgLevelSaturated and MsgEpochUpdate are coordinator *output*
		// (broadcasts), and the window kinds belong to
		// WindowCoordinator; none is valid coordinator input. Dropping
		// them here keeps a confused or malicious site harmless.
		c.Stats.IgnoredMsgs++
	}
}

func (c *Coordinator) handleEarly(it stream.Item, bcast func(Message)) {
	j := levelOf(it.Weight, c.r)
	key := c.rng.ExpKey(it.Weight)
	if c.rec != nil {
		c.rec.Record(it.ID, key)
	}
	if c.plane.Saturated(j) {
		// An early message raced with the saturation broadcast (async
		// runtimes only): treat the item as released immediately.
		c.Stats.LateEarlyMsgs++
		c.addToSample(key, it)
		c.maybeAdvanceEpoch(bcast)
		return
	}
	if j >= len(c.early) {
		c.early = append(c.early, make([]int, j+1-len(c.early))...)
	}
	c.early[j]++
	c.pool.Offer(key, poolItem{item: it, level: j})
	if c.early[j] >= c.cfg.LevelCap() {
		c.saturate(j, bcast)
	}
}

// saturate releases level j: all pool entries of that level move into the
// sample, the level is marked saturated, and the sites are notified.
func (c *Coordinator) saturate(j int, bcast func(Message)) {
	c.Stats.Saturations++
	// The pool and the sample are separate heaps, so releasing entries
	// while the pool is rebuilt leaves both exactly as rebuilding first
	// and releasing after.
	c.pool.Retain(
		func(e sample.Entry[poolItem]) bool { return e.Val.level != j },
		func(e sample.Entry[poolItem]) { c.addToSample(e.Key, e.Val.item) },
	)
	c.announce(Message{Kind: MsgLevelSaturated, Level: j}, bcast)
	c.maybeAdvanceEpoch(bcast)
}

// announce folds a broadcast into the coordinator's control plane and
// sends it to the sites.
func (c *Coordinator) announce(m Message, bcast func(Message)) {
	c.plane.Apply(m)
	bcast(m)
}

// addToSample is Algorithm 3 without the broadcast (the caller batches
// epoch checks so one handled message broadcasts at most once).
func (c *Coordinator) addToSample(key float64, it stream.Item) {
	c.smp.Offer(key, it)
	if c.smp.Full() {
		if m, ok := c.smp.Min(); ok {
			c.u = m
		}
	}
}

func (c *Coordinator) maybeAdvanceEpoch(bcast func(Message)) {
	if c.cfg.DisableEpochs {
		return
	}
	if th := epochThreshold(c.u, c.r); th > c.plane.Threshold() {
		c.Stats.EpochAdvances++
		c.announce(Message{Kind: MsgEpochUpdate, Threshold: th}, bcast)
	}
}

// Snapshot appends every sample candidate — released items of S and
// withheld pool items, unsorted — to dst and returns it. It is the
// cheap read path for concurrent runtimes: O(s) copies, no sorting, so
// the time a caller must hold the coordinator's ingest lock is minimal.
// Select and sort outside the lock with TopSample.
func (c *Coordinator) Snapshot(dst []SampleEntry) []SampleEntry {
	for _, e := range c.smp.Items() {
		dst = append(dst, SampleEntry{Key: e.Key, Item: e.Val})
	}
	for _, e := range c.pool.Items() {
		dst = append(dst, SampleEntry{Key: e.Key, Item: e.Val.item})
	}
	return dst
}

// ByKeyDesc orders sample entries by descending key: the order
// TopSample returns, and the one every top-s selection over snapshots
// uses.
func ByKeyDesc(a, b SampleEntry) int { return cmp.Compare(b.Key, a.Key) }

// TopSample reorders entries in place so that the s with the largest
// keys come first, sorted by descending key, and truncates to s — the
// finishing step for Snapshot results, also used to merge per-shard
// snapshots exactly (the global top-s of a union is contained in the
// union of per-shard top-s sets). It selects the s in linear time and
// sorts only them.
func TopSample(entries []SampleEntry, s int) []SampleEntry {
	entries = sample.SelectTop(entries, s, ByKeyDesc)
	slices.SortFunc(entries, ByKeyDesc)
	return entries
}

// Query returns the current weighted sample without replacement: the
// items with the top min(t, s) keys among S and all withheld items,
// largest key first.
func (c *Coordinator) Query() []SampleEntry {
	return TopSample(c.Snapshot(make([]SampleEntry, 0, c.smp.Len()+c.pool.Len())), c.cfg.S)
}

// SthKey returns the s-th largest key over all items held (released and
// withheld) and whether s keys exist yet. The L1 tracker's estimate is
// built on this order statistic (Section 5). It copies the O(s) keys
// and selects without sorting, so it may run under a shard's ingest
// lock.
func (c *Coordinator) SthKey() (float64, bool) {
	n := c.smp.Len() + c.pool.Len()
	if n < c.cfg.S {
		return 0, false
	}
	keys := make([]float64, 0, n)
	for _, e := range c.smp.Items() {
		keys = append(keys, e.Key)
	}
	for _, e := range c.pool.Items() {
		keys = append(keys, e.Key)
	}
	top := sample.SelectTop(keys, c.cfg.S, func(a, b float64) int { return cmp.Compare(b, a) })
	return slices.Min(top), true
}

// WithheldCount returns how many items are currently withheld in
// unsaturated level sets (bounded by s in this O(s)-memory
// implementation: only the top-s withheld keys are retained, the rest are
// provably outside every future sample).
func (c *Coordinator) WithheldCount() int { return c.pool.Len() }

// SaturatedLevels returns the indices of saturated levels, ascending.
func (c *Coordinator) SaturatedLevels() []int {
	var out []int
	c.plane.Snapshot(func(m Message) {
		if m.Kind == MsgLevelSaturated {
			out = append(out, m.Level)
		}
	})
	return out
}
