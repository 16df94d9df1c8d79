package workload

import (
	"container/heap"
	"fmt"

	"wrs"
	"wrs/internal/core"
	"wrs/internal/fabric"
	"wrs/internal/netsim"
	"wrs/internal/relay"
	"wrs/internal/xrand"
)

// The scenario engine: a virtual-clock event simulator that drives the
// protocol state machines of any supported App through a workload and a
// fault schedule. Every source of nondeterminism — arrival gaps, link
// delays, loss, key draws — comes from RNGs split off the scenario seed
// in a fixed order, and simultaneous events break ties by schedule
// order, so a (scenario, seed) pair names one exact execution: same
// final sample, same statistics, bit for bit.
//
// Exactness under faults is judged against a delivery-relative oracle
// owned by the coordinator's family (families.go): the engine logs what
// verifiably reached the coordinator, rolls the log back on coordinator
// restart exactly as far as the restored checkpoint, and requires the
// final per-shard query to equal the oracle's replay of that log.
// Updates that never arrived (crashed site, lost or relay-filtered
// message, severed subtree) are exactly the updates absent from the
// log, so the criterion is meaningful under every fault the engine can
// inject. See DESIGN.md §15 for the soundness arguments, §15.5–§15.7
// for the L1, windowed and relay-tree extensions.
//
// Each shard runs on its own netsim.Cluster — the same driver as the
// Sequential runtime — whose Link seam the engine fills: every copy a
// cluster sends crosses one edge under a link model and lands later as
// an event. With Scenario.Depth > 0 the clusters are relay trees of
// relay.Machine filters (threshold pre-filter always; top-s union merge
// only when the coordinator type opts in), with per-edge link models
// and severable parent edges — the virtual mirror of the TCP relay
// fabric of DESIGN.md §14.

type eventKind uint8

const (
	evArrival eventKind = iota
	evHop
	evFault
)

type event struct {
	at    float64
	seq   uint64
	kind  eventKind
	upd   TimedUpdate  // evArrival
	shard int          // evHop
	hop   netsim.Hop   // evHop
	msg   core.Message // evHop
	fault Fault        // evFault
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// EngineStats are the engine's deterministic counters. Two runs of the
// same scenario and seed produce identical EngineStats.
type EngineStats struct {
	Arrivals         int // updates drawn from the workload source
	DroppedArrivals  int // arrivals addressed to a crashed site
	UpDelivered      int // messages delivered to a coordinator
	UpLost           int // upstream messages lost by a link
	DownDelivered    int // broadcast copies delivered to live sites
	DownLost         int // broadcast copies lost by a link
	DownToDead       int // broadcast copies addressed to a crashed site
	Crashes          int
	Joins            int
	Snapshots        int
	Restarts         int
	LinkChanges      int
	AcksRolledBack   int     // acknowledgment log entries discarded by restarts
	FinalVirtualTime float64 // virtual time of the last event
	RelayFiltered    int     // upstream messages swallowed by relay filters
	SeveredUp        int     // upstream messages dropped at a severed edge
	SeveredDown      int     // broadcast copies dropped at a severed edge
	Severs           int
	Reparents        int
	EdgeChanges      int
}

// ShardResult is one shard's final protocol state and its oracle. The
// Query/Oracle pair is the generic comparison every family fills;
// Mismatch carries family-specific divergences (the L1 estimate check,
// the windowed clock cross-check), and the remaining fields are
// family-specific diagnostics (zero-valued where not applicable).
type ShardResult struct {
	Query  []core.SampleEntry // the coordinator's final sample, desc by key
	Oracle []core.SampleEntry // the oracle's replay of acknowledged updates
	Acked  int                // acknowledgment log length at the end
	Stats  core.CoordStats

	WStats         core.WindowCoordStats // windowed runs
	Estimate       float64               // L1 runs: the wrapper's estimate
	OracleEstimate float64               // L1 runs: recomputed from oracle state
	Mismatch       string                // family-specific divergence, "" if none
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario string
	Shards   []ShardResult
	Engine   EngineStats
}

// Err returns nil when every shard's final query equals its oracle and
// no family-specific check diverged, and a description of the first
// divergence otherwise.
func (r *Result) Err() error {
	for p, sh := range r.Shards {
		if sh.Mismatch != "" {
			return fmt.Errorf("workload: scenario %q shard %d: %s", r.Scenario, p, sh.Mismatch)
		}
		if len(sh.Query) != len(sh.Oracle) {
			return fmt.Errorf("workload: scenario %q shard %d: query has %d entries, oracle %d",
				r.Scenario, p, len(sh.Query), len(sh.Oracle))
		}
		for i := range sh.Query {
			if sh.Query[i] != sh.Oracle[i] {
				return fmt.Errorf("workload: scenario %q shard %d entry %d: query %+v, oracle %+v",
					r.Scenario, p, i, sh.Query[i], sh.Oracle[i])
			}
		}
	}
	return nil
}

// Fingerprint renders the result as a string that two runs match on iff
// they are bit-identical: float64 values print as their shortest
// round-trippable representation, so distinct bits give distinct
// fingerprints.
func (r *Result) Fingerprint() string {
	return fmt.Sprintf("%+v", *r)
}

// soloSnaps is the single-threaded wrs.Snapshots: the engine owns every
// state machine, nothing runs concurrently, so a view is a direct call.
type soloSnaps struct{ n int }

func (s soloSnaps) Shards() int           { return s.n }
func (s soloSnaps) View(_ int, fn func()) { fn() }

// RunApp drives app through the scenario and returns the engine result
// together with the application's final answer. The app descriptor is
// consumed (one-shot, as with wrs.Open): build a fresh one per run.
//
// Supported apps are those whose per-shard coordinator has an oracle
// family: the plain core sampler (Sampler, HeavyHitters, Quantiles),
// the L1 duplication tracker, and the windowed protocol.
func RunApp[Q any](sc Scenario, app wrs.App[Q]) (*Result, Q, error) {
	var zero Q
	if err := sc.Validate(); err != nil {
		return nil, zero, err
	}
	shards := sc.Shards
	if shards == 0 {
		shards = 1
	}

	// Build the protocol fabric exactly as wrs.Open would: the app
	// splits master in the documented order, so a scenario seed pins
	// the same instances a production Open(WithSeed(seed)) builds.
	master := xrand.New(sc.Seed)
	insts, err := app.Instances(sc.K, shards, master)
	if err != nil {
		return nil, zero, err
	}
	if len(insts) != shards {
		return nil, zero, fmt.Errorf("workload: app built %d instances for %d shards", len(insts), shards)
	}
	fam, err := newFamily(insts)
	if err != nil {
		return nil, zero, err
	}

	// Engine RNGs come from a salted seed, NOT from the app's master:
	// the workload, the network and the join randomness are then
	// independent of how many streams the app split off, so the same
	// scenario feeds the identical update sequence to every app and a
	// recorded trace replays bit-for-bit regardless of the source kind.
	netRNG, _, joinRNG := sc.auxRNGs()

	src := sc.OpenSource()
	if src.K() != sc.K {
		return nil, zero, fmt.Errorf("workload: spec is for %d sites, scenario has %d", src.K(), sc.K)
	}

	eng := &engine{
		fam:     fam,
		alive:   make([]bool, sc.K),
		up:      sc.Up,
		down:    sc.Down,
		netRNG:  netRNG,
		joinRNG: joinRNG,
	}
	for i := range eng.alive {
		eng.alive[i] = true
	}
	if sc.Depth > 0 {
		eng.sizes = netsim.TreeTierSizes(sc.K, sc.Fanout, sc.Depth)
		eng.severed = make([][]bool, sc.Depth)
		eng.edgeUp = make([][]netsim.LinkModel, sc.Depth)
		eng.edgeDown = make([][]netsim.LinkModel, sc.Depth)
		for t, n := range eng.sizes {
			eng.severed[t] = make([]bool, n)
			eng.edgeUp[t] = make([]netsim.LinkModel, n)
			eng.edgeDown[t] = make([]netsim.LinkModel, n)
			for node := 0; node < n; node++ {
				eng.edgeUp[t][node] = sc.EdgeUp
				eng.edgeDown[t][node] = sc.EdgeDown
			}
		}
	}
	for p, inst := range insts {
		merge := relay.UnionMergeable(fam.proto(p))
		cl, err := netsim.NewTreeCluster[core.Message](shardCoord{eng, p}, inst.Sites, sc.Fanout, sc.Depth,
			func(int, int) netsim.TreeRelay[core.Message] { return relay.NewMachine(inst.Cfg.S, merge) })
		if err != nil {
			return nil, zero, err
		}
		cl.Link = eng.link(p)
		eng.clusters = append(eng.clusters, cl)
		eng.cores = append(eng.cores, inst.Coord.Core())
	}
	for _, f := range sc.Faults {
		eng.push(&event{at: f.At, kind: evFault, fault: f})
	}
	if u, ok := src.Next(); ok {
		eng.push(&event{at: u.At, kind: evArrival, upd: u})
	}

	if err := eng.run(src); err != nil {
		return nil, zero, err
	}

	for _, cl := range eng.clusters {
		for _, ts := range cl.TierStats() {
			eng.stats.RelayFiltered += int(ts.Filtered())
		}
	}
	res := &Result{Scenario: sc.Name, Engine: eng.stats, Shards: fam.results()}
	answer := app.Query(soloSnaps{n: shards})
	return res, answer, nil
}

type engine struct {
	fam      family
	clusters []*netsim.Cluster[core.Message] // one per shard
	cores    []*core.Coordinator             // each shard's Core() coordinator
	alive    []bool
	up       netsim.LinkModel // site edges
	down     netsim.LinkModel
	netRNG   *xrand.RNG
	joinRNG  *xrand.RNG

	// Relay tree (depth > 0): per-(tier, node) state of each relay's
	// parent edge.
	sizes    []int
	severed  [][]bool
	edgeUp   [][]netsim.LinkModel
	edgeDown [][]netsim.LinkModel

	// replaying routes hops inline, and only over open edges: a
	// reparent's snapshot rides the reattachment, not the lossy links.
	replaying bool

	heap  eventHeap
	seq   uint64
	now   float64
	stats EngineStats
}

// shardCoord is shard p's coordinator as its cluster sees it: the
// family's acknowledged delivery, counted.
type shardCoord struct {
	e *engine
	p int
}

func (c shardCoord) HandleMessage(m core.Message, bcast func(core.Message)) {
	c.e.stats.UpDelivered++
	c.e.fam.handle(c.p, m, bcast)
}

func (e *engine) push(ev *event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.heap, ev)
}

func (e *engine) run(src Source) error {
	for e.heap.Len() > 0 {
		ev := heap.Pop(&e.heap).(*event)
		e.now = ev.at
		e.stats.FinalVirtualTime = ev.at
		switch ev.kind {
		case evArrival:
			if err := e.arrive(ev.upd); err != nil {
				return err
			}
			if u, ok := src.Next(); ok {
				e.push(&event{at: u.At, kind: evArrival, upd: u})
			}
		case evHop:
			if !ev.hop.Up && ev.hop.Tier == len(e.sizes) {
				// A broadcast copy landing on a site that crashed in flight.
				if !e.alive[ev.hop.Node] {
					e.stats.DownToDead++
					continue
				}
				e.stats.DownDelivered++
			}
			e.clusters[ev.shard].Arrive(ev.hop, ev.msg)
		case evFault:
			if err := e.applyFault(ev.fault); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *engine) arrive(u TimedUpdate) error {
	e.stats.Arrivals++
	if !e.alive[u.Site] {
		e.stats.DroppedArrivals++
		return nil
	}
	return e.clusters[fabric.ShardOf(u.Item.ID, len(e.clusters))].Feed(u.Site, u.Item)
}

// edge returns the link model of the edge hop h crosses — a site edge
// (the scenario-wide models) or a relay's parent edge — and whether a
// copy may cross it now: never into a crashed site, never over a
// severed edge.
func (e *engine) edge(h netsim.Hop) (netsim.LinkModel, bool) {
	switch {
	case h.Tier == len(e.sizes) && h.Up:
		return e.up, true
	case h.Tier == len(e.sizes):
		return e.down, e.alive[h.Node]
	case h.Up:
		return e.edgeUp[h.Tier][h.Node], !e.severed[h.Tier][h.Node]
	default:
		return e.edgeDown[h.Tier][h.Node], !e.severed[h.Tier][h.Node]
	}
}

// link returns shard p's seam: a copy crossing an open edge is lost or
// delayed by the edge's model and lands as an evHop event.
func (e *engine) link(p int) func(netsim.Hop, core.Message) {
	return func(h netsim.Hop, m core.Message) {
		lm, open := e.edge(h)
		if e.replaying {
			if open {
				e.clusters[p].Arrive(h, m)
			}
			return
		}
		if !open {
			switch {
			case h.Tier == len(e.sizes):
				e.stats.DownToDead++
			case h.Up:
				e.stats.SeveredUp++
			default:
				e.stats.SeveredDown++
			}
			return
		}
		if lm.Lose(e.netRNG) {
			if h.Up {
				e.stats.UpLost++
			} else {
				e.stats.DownLost++
			}
			return
		}
		e.push(&event{at: e.now + lm.Delay(e.netRNG), kind: evHop, shard: p, hop: h, msg: m})
	}
}

// relayAt returns shard p's relay machine at (t, node).
func (e *engine) relayAt(p, t, node int) *relay.Machine {
	return e.clusters[p].Relays[t][node].(*relay.Machine)
}

func (e *engine) applyFault(f Fault) error {
	switch f.Kind {
	case SiteCrash:
		e.alive[f.Site] = false
		e.stats.Crashes++
	case SiteJoin:
		// A fresh replacement instance per shard. It replays the
		// control plane of what it would attach to in the real
		// deployment: its leaf relay's monotone view on a tree, the
		// coordinator's on a flat topology — both safe (the relay's
		// view is a subset of the coordinator's, and replaying less
		// only makes the site send more).
		for p, cl := range e.clusters {
			ns, err := e.fam.newSite(p, f.Site, cl.Sites[f.Site], e.joinRNG.Split())
			if err != nil {
				return err
			}
			plane := e.parentPlane(p, len(e.sizes), f.Site)
			plane.Snapshot(ns.HandleBroadcast)
			cl.Sites[f.Site] = ns
		}
		e.alive[f.Site] = true
		e.stats.Joins++
	case CoordSnapshot:
		e.fam.snapshot()
		e.stats.Snapshots++
	case CoordRestart:
		rolled, err := e.fam.restore()
		if err != nil {
			return err
		}
		e.stats.AcksRolledBack += rolled
		e.stats.Restarts++
	case LinkSet:
		e.up, e.down = f.Up, f.Down
		e.stats.LinkChanges++
	case SeverParent:
		e.severed[f.Tier][f.Node] = true
		e.stats.Severs++
	case Reparent:
		e.severed[f.Tier][f.Node] = false
		e.stats.Reparents++
		e.reattach(f.Tier, f.Node)
	case EdgeLinkSet:
		e.edgeUp[f.Tier][f.Node] = f.Up
		e.edgeDown[f.Tier][f.Node] = f.Down
		e.stats.EdgeChanges++
	}
	return nil
}

// reattach replays the parent's monotone control-plane snapshot down
// the re-attached subtree, mirroring the TCP relay's child-join path:
// the snapshot rides connection registration (reliable, instant), not
// the lossy broadcast fan-down, and a severed child or crashed site
// below stays partitioned (it gets its own replay when it reattaches or
// joins). Because broadcasts are monotone — thresholds only rise,
// saturations only set — replaying state the subtree partially has can
// never move any view backwards, and a coordinator restart having
// rewound the live threshold does not make the replay unsafe: the
// relay's recorded threshold was genuinely broadcast, so everything it
// pre-filters had s released dominators when that bound was issued
// (DESIGN.md §14/§15.7).
func (e *engine) reattach(t, node int) {
	e.replaying = true
	defer func() { e.replaying = false }()
	for p, cl := range e.clusters {
		plane := e.parentPlane(p, t, node)
		plane.Snapshot(func(m core.Message) { cl.Arrive(netsim.Hop{Tier: t, Node: node}, m) })
	}
}

// parentPlane returns the control plane that node `node` of tier t
// (sites are tier len(e.sizes)) replays on shard p when it attaches:
// its parent relay's, or the coordinator's for tier 0. A push-only
// protocol's coordinator broadcasts nothing, so its plane is empty.
func (e *engine) parentPlane(p, t, node int) core.ControlPlane {
	if t == 0 {
		return e.cores[p].ControlPlane()
	}
	return e.relayAt(p, t-1, netsim.TreeParent(e.sizes, t, node)).ControlPlane()
}
