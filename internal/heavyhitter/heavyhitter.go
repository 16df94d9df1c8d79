// Package heavyhitter implements Section 4 of the paper: continuous
// monitoring of heavy hitters with a *residual* error guarantee.
//
// An item is an (eps, delta) residual heavy hitter at time t if its
// weight is at least eps times the residual L1 — the total weight after
// the top 1/eps items are removed (Definition 6). Theorem 4 shows that a
// weighted SWOR of size s = 6*ln(1/(eps*delta))/eps contains every such
// item with probability 1-delta; the Tracker here is that construction on
// top of the distributed sampler of package core.
//
// The package also provides the with-replacement baseline (which captures
// plain eps-heavy hitters but provably misses residual ones on skewed
// streams — the paper's motivation for SWOR), a SpaceSaving sketch as the
// standard centralized comparator, and exact ground-truth oracles used by
// tests and experiments.
package heavyhitter

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"wrs/internal/core"
	"wrs/internal/sample"
	"wrs/internal/stream"
	"wrs/internal/swr"
	"wrs/internal/xrand"
)

// Params are the accuracy parameters of Definitions 5 and 6.
type Params struct {
	Eps   float64 // heaviness threshold
	Delta float64 // failure probability
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !(p.Eps > 0 && p.Eps < 1) || !(p.Delta > 0 && p.Delta < 1) {
		return fmt.Errorf("heavyhitter: need eps, delta in (0,1), got %v, %v", p.Eps, p.Delta)
	}
	return nil
}

// SampleSize returns s = ceil(6*ln(1/(eps*delta))/eps) per Theorem 4.
func (p Params) SampleSize() int {
	return int(math.Ceil(6 * math.Log(1/(p.Eps*p.Delta)) / p.Eps))
}

// OutputSize returns the query size ceil(2/eps) per Theorem 4.
func (p Params) OutputSize() int { return int(math.Ceil(2 / p.Eps)) }

// Tracker monitors residual heavy hitters via distributed weighted SWOR.
// Wire its Coordinator and Sites into a netsim runtime (or any transport
// delivering core.Message both ways).
type Tracker struct {
	Coord  *core.Coordinator
	Sites  []*core.Site
	params Params
}

// NewTracker builds the Theorem 4 construction over k sites.
func NewTracker(k int, p Params, master *xrand.RNG) (*Tracker, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg := core.Config{K: k, S: p.SampleSize()}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tracker{Coord: core.NewCoordinator(cfg, master.Split()), params: p}
	for i := 0; i < k; i++ {
		t.Sites = append(t.Sites, core.NewSite(i, cfg, master.Split()))
	}
	return t, nil
}

// Params returns the tracker's accuracy parameters.
func (t *Tracker) Params() Params { return t.params }

// Query returns the current candidate set: the OutputSize() heaviest
// items of the SWOR sample, heaviest first. With probability 1-delta it
// contains every residual eps-heavy hitter.
func (t *Tracker) Query() []stream.Item {
	return CandidatesFrom(t.Coord.Query(), t.params)
}

// CandidatesFrom extracts the candidate set from raw sample-candidate
// entries: keep the SampleSize() largest keys (the weighted SWOR —
// exact even when entries concatenates snapshots of several protocol
// shards, since the top-s of a union is the top-s of the per-shard
// top-s sets), then rank by weight and truncate to OutputSize(). Both
// steps select in linear time; only the OutputSize() survivors are
// sorted. Weight ties rank by key, so the list is a function of the
// sample alone, whatever order entries arrives in (it is reordered in
// place). It is the lock-free half of a query: snapshot coordinators
// under their ingest locks, call this outside them.
func CandidatesFrom(entries []core.SampleEntry, p Params) []stream.Item {
	top := sample.SelectTop(entries, p.SampleSize(), core.ByKeyDesc)
	top = sample.SelectTop(top, p.OutputSize(), byWeightDesc)
	slices.SortFunc(top, byWeightDesc)
	items := make([]stream.Item, len(top))
	for i, e := range top {
		items[i] = e.Item
	}
	return items
}

// byWeightDesc ranks candidates heaviest first, weight ties by key.
func byWeightDesc(a, b core.SampleEntry) int {
	if c := cmp.Compare(b.Item.Weight, a.Item.Weight); c != 0 {
		return c
	}
	return core.ByKeyDesc(a, b)
}

// SWRTracker is the with-replacement baseline: the same number of samples
// drawn with replacement, candidates ranked by weight. It guarantees
// plain eps-heavy hitters (coupon collecting) but not residual ones.
type SWRTracker struct {
	Coord  *swr.Coordinator
	Sites  []*swr.Site
	params Params
}

// NewSWRTracker builds the baseline over k sites.
func NewSWRTracker(k int, p Params, master *xrand.RNG) (*SWRTracker, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg := swr.Config{K: k, S: p.SampleSize()}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &SWRTracker{Coord: swr.NewCoordinator(cfg), params: p}
	for i := 0; i < k; i++ {
		t.Sites = append(t.Sites, swr.NewSite(cfg, master.Split()))
	}
	return t, nil
}

// Query returns the OutputSize() heaviest distinct sampled items.
func (t *SWRTracker) Query() []stream.Item {
	seen := map[uint64]bool{}
	var items []stream.Item
	for _, it := range t.Coord.Sample() {
		if !seen[it.ID] {
			seen[it.ID] = true
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Weight > items[j].Weight })
	if n := t.params.OutputSize(); len(items) > n {
		items = items[:n]
	}
	return items
}

// ---- Exact ground truth --------------------------------------------------

// ResidualTail returns the L1 of weights after zeroing the top `top`
// coordinates (the ||x_tail(top)||_1 of Definition 6).
func ResidualTail(weights []float64, top int) float64 {
	sorted := append([]float64(nil), weights...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var tail float64
	for i := top; i < len(sorted); i++ {
		tail += sorted[i]
	}
	return tail
}

// ExactResidualHH returns the indices i with
// weights[i] >= eps * ResidualTail(weights, ceil(1/eps)) — the ground
// truth of Definition 6.
func ExactResidualHH(weights []float64, eps float64) []int {
	tail := ResidualTail(weights, int(math.Ceil(1/eps)))
	var out []int
	for i, w := range weights {
		if w >= eps*tail {
			out = append(out, i)
		}
	}
	return out
}

// ExactHH returns the indices i with weights[i] >= eps * sum(weights) —
// the plain L1 heavy hitters of Definition 5.
func ExactHH(weights []float64, eps float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	var out []int
	for i, w := range weights {
		if w >= eps*total {
			out = append(out, i)
		}
	}
	return out
}

// Recall returns |got ∩ want| / |want| for index sets (1 when want is
// empty).
func Recall(got []stream.Item, want []int) float64 {
	if len(want) == 0 {
		return 1
	}
	gotSet := make(map[uint64]bool, len(got))
	for _, it := range got {
		gotSet[it.ID] = true
	}
	hit := 0
	for _, i := range want {
		if gotSet[uint64(i)] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}
