package wrs

import (
	"errors"

	"wrs/internal/core"
	"wrs/internal/heavyhitter"
	"wrs/internal/l1track"
	rt "wrs/internal/runtime"
	"wrs/internal/xrand"
)

// errAppReused guards the one-shot binding of a descriptor to a Handle:
// per-shard query state lives on the descriptor, so sharing one across
// two Opens would cross their queries.
var errAppReused = errors.New("wrs: App descriptor already opened; build a new one per Open")

// Sampler is the plain weighted-SWOR application (Section 3): the
// maintained sample itself is the answer. Query returns min(t, s)
// items, largest key first. NewDistributedSampler is a thin wrapper
// over Open(Sampler(k, s)).
func Sampler(k, s int) App[[]Sampled] { return &samplerApp{k: k, s: s} }

type samplerApp struct {
	k, s   int
	coords []*core.Coordinator
}

func (a *samplerApp) Sites() int { return a.k }

func (a *samplerApp) reset() { a.coords = nil }

func (a *samplerApp) Instances(k, shards int, master *xrand.RNG) ([]rt.Instance, error) {
	if a.coords != nil {
		return nil, errAppReused
	}
	insts, coords, err := samplerInstances(k, a.s, shards, master)
	if err != nil {
		return nil, err
	}
	a.coords = coords
	return insts, nil
}

// samplerInstances builds the plain-sampler protocol fabric — one
// core coordinator plus k core sites per shard, RNGs split in the
// contract order (per shard: coordinator, then sites 0..k-1) — shared
// by every app whose instances are the unmodified sampler (Sampler,
// Quantiles). One implementation, so the DESIGN.md §10 replay contract
// cannot silently diverge between them.
func samplerInstances(k, s, shards int, master *xrand.RNG) ([]rt.Instance, []*core.Coordinator, error) {
	cfg := core.Config{K: k, S: s}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	insts := make([]rt.Instance, shards)
	coords := make([]*core.Coordinator, shards)
	for p := range insts {
		coord := core.NewCoordinator(cfg, master.Split())
		sites := make([]*core.Site, k)
		for i := 0; i < k; i++ {
			sites[i] = core.NewSite(i, cfg, master.Split())
		}
		insts[p] = rt.Instance{Cfg: cfg, Coord: coord, Sites: rt.SiteList(sites)}
		coords[p] = coord
	}
	return insts, coords, nil
}

func (a *samplerApp) Query(snaps Snapshots) []Sampled {
	entries := snapshotShards(snaps, a.coords, a.s)
	entries = core.TopSample(entries, a.s)
	out := make([]Sampled, len(entries))
	for i, e := range entries {
		out[i] = Sampled{Item: fromInternal(e.Item), Key: e.Key}
	}
	return out
}

// HeavyHitters is the residual heavy-hitter application (Section 4):
// a weighted SWOR of size ceil(6·ln(1/(eps·delta))/eps) whose query
// returns at most ceil(2/eps) items, heaviest first; with probability
// 1-delta it contains every item whose weight is at least eps times the
// residual L1. NewHeavyHitterTracker is a thin wrapper over
// Open(HeavyHitters(k, eps, delta)).
func HeavyHitters(k int, eps, delta float64) App[[]Item] {
	return &hhApp{k: k, params: heavyhitter.Params{Eps: eps, Delta: delta}}
}

type hhApp struct {
	k      int
	params heavyhitter.Params
	coords []*core.Coordinator
}

func (a *hhApp) Sites() int { return a.k }

func (a *hhApp) reset() { a.coords = nil }

func (a *hhApp) Instances(k, shards int, master *xrand.RNG) ([]rt.Instance, error) {
	if a.coords != nil {
		return nil, errAppReused
	}
	insts := make([]rt.Instance, shards)
	a.coords = make([]*core.Coordinator, shards)
	for p := range insts {
		tr, err := heavyhitter.NewTracker(k, a.params, master)
		if err != nil {
			a.coords = nil
			return nil, err
		}
		insts[p] = rt.Instance{Cfg: tr.Coord.Config(), Coord: tr.Coord, Sites: rt.SiteList(tr.Sites)}
		a.coords[p] = tr.Coord
	}
	return insts, nil
}

func (a *hhApp) Query(snaps Snapshots) []Item {
	entries := snapshotShards(snaps, a.coords, a.params.SampleSize())
	items := heavyhitter.CandidatesFrom(entries, a.params)
	out := make([]Item, len(items))
	for i, it := range items {
		out[i] = fromInternal(it)
	}
	return out
}

// L1 is the count-tracking application (Section 5): every update is
// duplicated l = s/(2·eps) times into a weighted SWOR whose s-th
// largest key calibrates the total weight; the query is the (1±eps)
// estimate of the global L1. With P shards each partition is
// provisioned at delta/P so the union bound over the P summed
// estimators preserves the overall 1-delta guarantee. NewL1Tracker is a
// thin wrapper over Open(L1(k, eps, delta)).
func L1(k int, eps, delta float64) App[float64] {
	return &l1App{k: k, params: l1track.DupParams{Eps: eps, Delta: delta}}
}

type l1App struct {
	k      int
	params l1track.DupParams
	coords []*l1track.DupCoordinator
}

func (a *l1App) Sites() int { return a.k }

func (a *l1App) reset() { a.coords = nil }

func (a *l1App) Instances(k, shards int, master *xrand.RNG) ([]rt.Instance, error) {
	if a.coords != nil {
		return nil, errAppReused
	}
	p := a.params
	p.Delta /= float64(shards)
	insts := make([]rt.Instance, shards)
	a.coords = make([]*l1track.DupCoordinator, shards)
	for i := range insts {
		coord, sites, err := l1track.NewDupTracker(k, p, master)
		if err != nil {
			a.coords = nil
			return nil, err
		}
		insts[i] = rt.Instance{Cfg: coord.Core().Config(), Coord: coord, Sites: rt.SiteList(sites)}
		a.coords[i] = coord
	}
	return insts, nil
}

func (a *l1App) Query(snaps Snapshots) float64 {
	var est float64
	for p, coord := range a.coords {
		coord := coord
		snaps.View(p, func() { est += coord.Estimate() })
	}
	return est
}

// snapshotShards collects every shard coordinator's sample candidates
// into one pre-sized buffer: each shard is snapshotted under its own
// ingest lock (an O(s) copy, no sorting), so the buffer holds at most
// 2s entries per shard — released sample plus withheld pool — and the
// top-s selection and merge run outside every lock.
func snapshotShards(snaps Snapshots, coords []*core.Coordinator, s int) []core.SampleEntry {
	entries := make([]core.SampleEntry, 0, 2*s*len(coords))
	for p, coord := range coords {
		coord := coord
		snaps.View(p, func() { entries = coord.Snapshot(entries) })
	}
	return entries
}
