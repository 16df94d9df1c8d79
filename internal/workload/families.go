package workload

import (
	"fmt"

	"wrs/internal/core"
	"wrs/internal/l1track"
	"wrs/internal/netsim"
	rt "wrs/internal/runtime"
	"wrs/internal/window"
	"wrs/internal/xrand"
)

// A family adapts one coordinator runtime to the engine's fault and
// oracle bookkeeping: every message delivery runs through it (so it can
// log acknowledgments in whatever shape that runtime's oracle needs),
// and so do checkpoints, restarts, replacement-site construction and
// the final query-vs-oracle comparison. One family instance covers all
// shards of a run; the engine never inspects coordinator state itself.
//
// Three families exist, one per coordinator type the supported apps
// build (DESIGN.md §15.5–§15.6 argue each oracle's soundness):
//
//   - samplerFamily — the plain core sampler (swor, hh, quantile): the
//     PR-9 acknowledgment oracle. Query must equal the brute-force
//     top-s over every (key, item) that verifiably reached the
//     coordinator, with the log rolled back on restart.
//   - l1Family — the L1 duplication tracker: the sampler oracle over
//     the inner coordinator, plus a mirrored exact-prefix accumulator
//     so the estimate itself is checked delivery-exactly in both
//     phases of the estimator.
//   - windowFamily — the windowed protocol: per-(shard, site) delivery
//     logs and observed clocks; the oracle replays retention at the
//     coordinator's clock, so non-monotone expiry is judged exactly.
type family interface {
	// handle delivers one upstream message to shard p's coordinator,
	// doing the acknowledgment bookkeeping; broadcasts go to bcast.
	handle(p int, m core.Message, bcast func(core.Message))
	// newSite builds a replacement machine for a joining site. old is
	// the machine being replaced (the windowed family reads its
	// sequence position); control-plane replay is the engine's job.
	newSite(p, site int, old netsim.Site[core.Message], rng *xrand.RNG) (netsim.Site[core.Message], error)
	// snapshot checkpoints every shard together with its oracle state.
	snapshot()
	// restore restores the latest checkpoint in place and returns how
	// many acknowledgments were rolled back.
	restore() (int, error)
	// results builds the final per-shard query-vs-oracle comparison.
	results() []ShardResult
	// proto returns shard p's coordinator for capability probing
	// (relay.UnionMergeable).
	proto(p int) any
}

// newFamily picks the family for the app's coordinator type. All shards
// of one app share a type, so probing instance 0 suffices.
func newFamily(insts []rt.Instance) (family, error) {
	switch insts[0].Coord.(type) {
	case *core.Coordinator:
		return newSamplerFamily(insts)
	case *l1track.DupCoordinator:
		return newL1Family(insts)
	case *core.WindowCoordinator:
		return newWindowFamily(insts)
	default:
		return nil, fmt.Errorf("workload: no chaos oracle for coordinator type %T", insts[0].Coord)
	}
}

// ---- samplerFamily -------------------------------------------------------

// ackLog is the shared sampler-shaped acknowledgment machinery: the
// per-shard (key, item) log, the recorders that capture coordinator-side
// key draws for early messages, and the snapshot positions. l1Family
// embeds one over the inner coordinators.
type ackLog struct {
	coords []*core.Coordinator
	recs   []*core.Recorder
	recIdx []int // recorder entries consumed, per shard
	cfgs   []core.Config
	acks   [][]core.SampleEntry

	snaps    []*core.CoordinatorState
	snapAcks []int
}

func newAckLog(coords []*core.Coordinator, cfgs []core.Config) *ackLog {
	l := &ackLog{
		coords: coords,
		cfgs:   cfgs,
		recs:   make([]*core.Recorder, len(coords)),
		recIdx: make([]int, len(coords)),
		acks:   make([][]core.SampleEntry, len(coords)),
	}
	for p, c := range coords {
		l.recs[p] = core.NewRecorder()
		c.SetRecorder(l.recs[p])
	}
	return l
}

// ack logs the acknowledgment for one message the inner coordinator just
// processed. Regular messages carry their key on the wire; an early
// message's key was drawn coordinator-side during processing and
// captured by the recorder. Recorder entries are consumed strictly in
// append order — NOT looked up by item ID — because the L1 runtime
// delivers duplicated copies sharing one ID with distinct keys; the
// coordinator records exactly one entry per early message processed, so
// the next unconsumed record is this message's key. The index survives
// restarts untouched: a rewound coordinator re-draws (identical) keys,
// appending fresh records for the re-deliveries.
func (l *ackLog) ack(p int, m core.Message) {
	switch m.Kind {
	case core.MsgRegular:
		l.acks[p] = append(l.acks[p], core.SampleEntry{Key: m.Key, Item: m.Item})
	case core.MsgEarly:
		if l.recIdx[p] >= l.recs[p].Len() {
			panic(fmt.Sprintf("workload: early item %d processed but no key was recorded", m.Item.ID))
		}
		id, key := l.recs[p].At(l.recIdx[p])
		l.recIdx[p]++
		if id != m.Item.ID {
			panic(fmt.Sprintf("workload: recorded key order diverged: expected item %d, recorder holds %d", m.Item.ID, id))
		}
		l.acks[p] = append(l.acks[p], core.SampleEntry{Key: key, Item: m.Item})
	default:
		// Control kinds flow downstream and the windowed kinds belong
		// to windowFamily; nothing to acknowledge.
	}
}

func (l *ackLog) snapshot() {
	if l.snaps == nil {
		l.snaps = make([]*core.CoordinatorState, len(l.coords))
		l.snapAcks = make([]int, len(l.coords))
	}
	for p, c := range l.coords {
		l.snaps[p] = c.ExportState()
		l.snapAcks[p] = len(l.acks[p])
	}
}

func (l *ackLog) restore() (int, error) {
	if l.snaps == nil {
		return 0, fmt.Errorf("workload: coord-restart with no snapshot taken")
	}
	rolled := 0
	for p, c := range l.coords {
		if err := c.RestoreState(l.snaps[p]); err != nil {
			return rolled, err
		}
		rolled += len(l.acks[p]) - l.snapAcks[p]
		// Full slice expression: appends after the rollback must not
		// overwrite the (dead) entries past the checkpoint in a way
		// that would alias a prior snapshot's backing array.
		l.acks[p] = l.acks[p][:l.snapAcks[p]:l.snapAcks[p]]
	}
	return rolled, nil
}

type samplerFamily struct {
	log *ackLog
}

func newSamplerFamily(insts []rt.Instance) (*samplerFamily, error) {
	coords := make([]*core.Coordinator, len(insts))
	cfgs := make([]core.Config, len(insts))
	for p, inst := range insts {
		coords[p] = inst.Coord.(*core.Coordinator)
		cfgs[p] = inst.Cfg
	}
	return &samplerFamily{log: newAckLog(coords, cfgs)}, nil
}

func (f *samplerFamily) handle(p int, m core.Message, bcast func(core.Message)) {
	f.log.coords[p].HandleMessage(m, bcast)
	f.log.ack(p, m)
}

func (f *samplerFamily) newSite(p, site int, _ netsim.Site[core.Message], rng *xrand.RNG) (netsim.Site[core.Message], error) {
	return core.NewSite(site, f.log.cfgs[p], rng), nil
}

func (f *samplerFamily) snapshot()             { f.log.snapshot() }
func (f *samplerFamily) restore() (int, error) { return f.log.restore() }
func (f *samplerFamily) proto(p int) any       { return f.log.coords[p] }

func (f *samplerFamily) results() []ShardResult {
	out := make([]ShardResult, len(f.log.coords))
	for p, c := range f.log.coords {
		oracle := append([]core.SampleEntry(nil), f.log.acks[p]...)
		out[p] = ShardResult{
			Query:  c.Query(),
			Oracle: core.TopSample(oracle, f.log.cfgs[p].S),
			Acked:  len(f.log.acks[p]),
			Stats:  c.Stats,
		}
	}
	return out
}

// ---- l1Family ------------------------------------------------------------

// l1Family drives the L1 duplication tracker. The inner sampler
// coordinator gets the full sampler oracle (over duplicated copies —
// each copy is its own message with its own key, so the ack log is per
// copy). On top, the family mirrors the wrapper's exact-prefix
// accumulator delivery by delivery: weight is added for every early or
// regular copy processed while the wrapper is still in the exact phase,
// in the same float64 addition order the wrapper uses, and rolled back
// to the checkpointed value on restart. The final check then has two
// parts: inner query == top-s over acked copies, and the wrapper's
// Estimate() == the estimate recomputed from oracle state alone
// (accumulator while exact, the Theorem 6 estimator s·u/l with u the
// oracle's s-th key once estimating). Any divergence — a lost
// accumulator update, a wrong phase flip, a checkpoint that forgot the
// accumulator — lands in ShardResult.Mismatch.
type l1Family struct {
	log    *ackLog
	coords []*l1track.DupCoordinator
	exact  []float64 // mirror of each wrapper's exact-prefix accumulator

	snapDup   []*l1track.DupState
	snapExact []float64
}

func newL1Family(insts []rt.Instance) (*l1Family, error) {
	dups := make([]*l1track.DupCoordinator, len(insts))
	inner := make([]*core.Coordinator, len(insts))
	cfgs := make([]core.Config, len(insts))
	for p, inst := range insts {
		dups[p] = inst.Coord.(*l1track.DupCoordinator)
		inner[p] = dups[p].Core()
		cfgs[p] = inst.Cfg
	}
	return &l1Family{
		log:    newAckLog(inner, cfgs),
		coords: dups,
		exact:  make([]float64, len(insts)),
	}, nil
}

func (f *l1Family) handle(p int, m core.Message, bcast func(core.Message)) {
	// Mirror the wrapper's accumulator rule exactly, including its
	// evaluation order: the phase is read BEFORE processing (the
	// message that flips the threshold positive still counts), and the
	// weight is added in delivery order so the float64 sum is
	// bit-identical to the wrapper's own.
	if !f.coords[p].EstMode() && (m.Kind == core.MsgEarly || m.Kind == core.MsgRegular) {
		f.exact[p] += m.Item.Weight
	}
	f.coords[p].HandleMessage(m, bcast)
	f.log.ack(p, m)
}

func (f *l1Family) newSite(p, site int, _ netsim.Site[core.Message], rng *xrand.RNG) (netsim.Site[core.Message], error) {
	return f.coords[p].NewSite(site, rng), nil
}

func (f *l1Family) snapshot() {
	if f.snapDup == nil {
		f.snapDup = make([]*l1track.DupState, len(f.coords))
		f.snapExact = make([]float64, len(f.coords))
	}
	for p, c := range f.coords {
		f.snapDup[p] = c.ExportState()
		f.snapExact[p] = f.exact[p]
		f.log.snapAcksOnly(p)
	}
}

func (f *l1Family) restore() (int, error) {
	if f.snapDup == nil {
		return 0, fmt.Errorf("workload: coord-restart with no snapshot taken")
	}
	rolled := 0
	for p, c := range f.coords {
		if err := c.RestoreState(f.snapDup[p]); err != nil {
			return rolled, err
		}
		f.exact[p] = f.snapExact[p]
		rolled += len(f.log.acks[p]) - f.log.snapAcks[p]
		f.log.acks[p] = f.log.acks[p][:f.log.snapAcks[p]:f.log.snapAcks[p]]
	}
	return rolled, nil
}

func (f *l1Family) proto(p int) any { return f.coords[p] }

func (f *l1Family) results() []ShardResult {
	out := make([]ShardResult, len(f.coords))
	for p, c := range f.coords {
		oracle := append([]core.SampleEntry(nil), f.log.acks[p]...)
		s := f.log.cfgs[p].S
		r := ShardResult{
			Query:  c.Core().Query(),
			Oracle: core.TopSample(oracle, s),
			Acked:  len(f.log.acks[p]),
			Stats:  c.Core().Stats,
		}
		// The estimate check: recompute the wrapper's estimator from
		// oracle-side state only. ExportState exposes the wrapper's
		// actual accumulator, so a divergence pinpoints which side of
		// the bookkeeping broke.
		ell := float64(c.Ell())
		if st := c.ExportState(); st.ExactDup != f.exact[p] {
			r.Mismatch = fmt.Sprintf("exact-prefix accumulator: wrapper %v, oracle %v", st.ExactDup, f.exact[p])
		}
		r.Estimate = c.Estimate()
		if !c.EstMode() || len(r.Oracle) < s {
			r.OracleEstimate = f.exact[p] / ell
		} else {
			r.OracleEstimate = float64(s) * r.Oracle[s-1].Key / ell
		}
		if r.Mismatch == "" && r.Estimate != r.OracleEstimate {
			r.Mismatch = fmt.Sprintf("estimate: wrapper %v, oracle %v", r.Estimate, r.OracleEstimate)
		}
		out[p] = r
	}
	return out
}

// snapAcksOnly records shard p's ack position without exporting inner
// coordinator state (the wrapper's own export already contains it).
func (l *ackLog) snapAcksOnly(p int) {
	if l.snapAcks == nil {
		l.snapAcks = make([]int, len(l.coords))
	}
	l.snapAcks[p] = len(l.acks[p])
}

// ---- windowFamily --------------------------------------------------------

// windowFamily drives the windowed protocol, whose retention is
// non-monotone: candidates expire as per-site clocks advance, so "what
// the coordinator verifiably holds" depends on WHEN each delivery
// happened relative to the clock. The oracle therefore logs, per
// (shard, site), every delivered candidate AND the observed clock —
// the max of pos+1 over every delivered stamp, exactly the rule
// Retention.Add/Advance applies — and replays expiry at the end: a
// delivered candidate is live iff pos >= clock - width at the final
// observed clock. That replay is exact, not conservative, because
// per-site clocks are monotone and expiry is a pure function of (pos,
// final clock): an entry the coordinator expired mid-run stays expired
// (its pos only falls further behind), and one it retained is still
// live at the final clock. The engine cross-checks its mirrored clocks
// against the coordinator's own (SiteClock) so the two bookkeepings
// cannot silently drift.
type windowFamily struct {
	coords []*core.WindowCoordinator
	k, s   int
	width  int
	acks   [][][]window.Entry // [shard][site]: delivered candidates
	clocks [][]int            // [shard][site]: observed clock (max pos+1)

	snaps      []*core.WindowCoordinatorState
	snapAcks   [][]int
	snapClocks [][]int
}

func newWindowFamily(insts []rt.Instance) (*windowFamily, error) {
	coords := make([]*core.WindowCoordinator, len(insts))
	for p, inst := range insts {
		coords[p] = inst.Coord.(*core.WindowCoordinator)
	}
	k := coords[0].Config().K
	f := &windowFamily{
		coords: coords,
		k:      k,
		s:      coords[0].Config().S,
		width:  coords[0].Width(),
		acks:   make([][][]window.Entry, len(insts)),
		clocks: make([][]int, len(insts)),
	}
	for p := range insts {
		f.acks[p] = make([][]window.Entry, k)
		f.clocks[p] = make([]int, k)
	}
	return f, nil
}

func (f *windowFamily) handle(p int, m core.Message, bcast func(core.Message)) {
	f.coords[p].HandleMessage(m, bcast)
	if m.Level < 0 {
		return // the coordinator counted it as a bad stamp and dropped it
	}
	switch m.Kind {
	case core.MsgWindow:
		pos, site := core.SplitWindowStamp(m.Level, f.k)
		f.acks[p][site] = append(f.acks[p][site], window.Entry{Pos: pos, Key: m.Key, Item: m.Item})
		if pos+1 > f.clocks[p][site] {
			f.clocks[p][site] = pos + 1
		}
	case core.MsgClock:
		pos, site := core.SplitWindowStamp(m.Level, f.k)
		if pos+1 > f.clocks[p][site] {
			f.clocks[p][site] = pos + 1
		}
	default:
		// Ignored by the coordinator (IgnoredMsgs); nothing delivered.
	}
}

// newSite fast-forwards the replacement machine to the crashed
// machine's sequence position: the coordinator's retention clock for
// this site only moves forward, so a machine restarting at position 0
// would have every candidate dropped as pre-expired. Resuming at N()
// is what a durable site-local sequence counter gives a real
// deployment (DESIGN.md §15.6).
func (f *windowFamily) newSite(p, site int, old netsim.Site[core.Message], rng *xrand.RNG) (netsim.Site[core.Message], error) {
	prev, ok := old.(*core.WindowSite)
	if !ok {
		return nil, fmt.Errorf("workload: windowed replacement for site %d: old machine is %T", site, old)
	}
	ns := core.NewWindowSite(site, f.coords[p].Config(), f.width, rng)
	if err := ns.Resume(prev.N()); err != nil {
		return nil, err
	}
	return ns, nil
}

func (f *windowFamily) snapshot() {
	if f.snaps == nil {
		f.snaps = make([]*core.WindowCoordinatorState, len(f.coords))
		f.snapAcks = make([][]int, len(f.coords))
		f.snapClocks = make([][]int, len(f.coords))
		for p := range f.coords {
			f.snapAcks[p] = make([]int, f.k)
			f.snapClocks[p] = make([]int, f.k)
		}
	}
	for p, c := range f.coords {
		f.snaps[p] = c.ExportState()
		for i := 0; i < f.k; i++ {
			f.snapAcks[p][i] = len(f.acks[p][i])
			f.snapClocks[p][i] = f.clocks[p][i]
		}
	}
}

func (f *windowFamily) restore() (int, error) {
	if f.snaps == nil {
		return 0, fmt.Errorf("workload: coord-restart with no snapshot taken")
	}
	rolled := 0
	for p, c := range f.coords {
		if err := c.RestoreState(f.snaps[p]); err != nil {
			return rolled, err
		}
		for i := 0; i < f.k; i++ {
			rolled += len(f.acks[p][i]) - f.snapAcks[p][i]
			f.acks[p][i] = f.acks[p][i][:f.snapAcks[p][i]:f.snapAcks[p][i]]
			f.clocks[p][i] = f.snapClocks[p][i]
		}
	}
	return rolled, nil
}

func (f *windowFamily) proto(p int) any { return f.coords[p] }

func (f *windowFamily) results() []ShardResult {
	out := make([]ShardResult, len(f.coords))
	for p, c := range f.coords {
		var r ShardResult
		var cands []window.Entry
		acked := 0
		for site := 0; site < f.k; site++ {
			acked += len(f.acks[p][site])
			clock := f.clocks[p][site]
			if got := c.SiteClock(site); got != clock {
				r.Mismatch = fmt.Sprintf("site %d clock: coordinator %d, oracle %d", site, got, clock)
			}
			lo := clock - f.width
			for _, e := range f.acks[p][site] {
				if e.Pos >= lo {
					cands = append(cands, e)
				}
			}
		}
		r.Acked = acked
		r.WStats = c.Stats
		r.Query = sampleEntries(c.Query())
		r.Oracle = sampleEntries(window.TopEntries(cands, f.s))
		out[p] = r
	}
	return out
}

// sampleEntries projects window entries onto the (key, item) shape the
// generic query-vs-oracle comparison uses. Position stamps need no
// separate comparison: item IDs are unique stream positions, so equal
// (key, item) pairs imply the same candidate.
func sampleEntries(es []window.Entry) []core.SampleEntry {
	out := make([]core.SampleEntry, len(es))
	for i, e := range es {
		out[i] = core.SampleEntry{Key: e.Key, Item: e.Item}
	}
	return out
}
