package wrs

import (
	"fmt"
	"math"
	"testing"

	"wrs/internal/quantile"
	"wrs/internal/xrand"
)

// treeShapes is the tree-topology acceptance matrix: the flat baseline
// plus the two relay shapes the hierarchical fabric is pinned on.
type treeShape struct {
	name          string
	fanout, depth int
}

func treeShapes() []treeShape {
	return []treeShape{
		{"flat", 0, 0},
		{"fanout=2,depth=2", 2, 2},
		{"fanout=4,depth=2", 4, 2},
	}
}

func (ts treeShape) seq() RuntimeSpec {
	if ts.depth == 0 {
		return Sequential()
	}
	return SequentialTree(ts.fanout, ts.depth)
}

func (ts treeShape) tcp() RuntimeSpec {
	if ts.depth == 0 {
		return TCP("")
	}
	return TCPTree("", ts.fanout, ts.depth)
}

// TestTreeSamplerSequentialBitIdentical pins the strongest tree
// guarantee: on the deterministic runtime, every tree shape × shard
// count yields the SAME sample, key for key and in order, and the same
// site-edge traffic as the flat topology — relays only ever drop
// messages the coordinator was going to drop.
func TestTreeSamplerSequentialBitIdentical(t *testing.T) {
	const k, s, n, seed = 6, 10, 5000, 41
	feed := func(ds *DistributedSampler) {
		t.Helper()
		wrng := xrand.New(7)
		var batch []Item
		for i := 0; i < n; i++ {
			batch = append(batch, Item{ID: uint64(i), Weight: wrng.Pareto(1.3)})
			if len(batch) == 100 {
				if err := ds.ObserveBatch(i%k, batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	for _, shards := range []int{1, 2} {
		flat, err := NewDistributedSampler(k, s, WithSeed(seed), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		feed(flat)
		want := flat.Sample()
		wantStats := flat.Stats()
		flat.Close()

		for _, shape := range treeShapes()[1:] {
			t.Run(fmt.Sprintf("%s/shards=%d", shape.name, shards), func(t *testing.T) {
				tree, err := NewDistributedSampler(k, s,
					WithSeed(seed), WithShards(shards), WithRuntime(shape.seq()))
				if err != nil {
					t.Fatal(err)
				}
				defer tree.Close()
				feed(tree)
				got := tree.Sample()
				if len(got) != len(want) {
					t.Fatalf("sample size %d, flat %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("entry %d: %+v, flat %+v", i, got[i], want[i])
					}
				}
				if st := tree.Stats(); st != wantStats {
					t.Errorf("site-edge stats %+v, flat %+v", st, wantStats)
				}
			})
		}
	}
}

// TestTreeMatrixSampler is the tree half of the shard-matrix suite:
// the sampler over every tree shape × TCP and sequential runtimes ×
// shards {1, 2}, validated against the giants oracle (async runtimes
// are not bit-comparable; any valid weighted SWOR must hold every
// giant).
func TestTreeMatrixSampler(t *testing.T) {
	const giants, k, s = 5, 8, 10
	for _, shape := range treeShapes() {
		for _, mode := range []struct {
			name string
			spec RuntimeSpec
		}{{"seq", shape.seq()}, {"tcp", shape.tcp()}} {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", shape.name, mode.name, shards), func(t *testing.T) {
					ds, err := NewDistributedSampler(k, s,
						WithSeed(3), WithRuntime(mode.spec), WithShards(shards))
					if err != nil {
						t.Fatal(err)
					}
					defer ds.Close()
					for i := 0; i < giants; i++ {
						if err := ds.Observe(i%k, Item{ID: uint64(1e6 + i), Weight: 1e12}); err != nil {
							t.Fatal(err)
						}
					}
					var batch []Item
					for i := 0; i < 6000; i++ {
						batch = append(batch, Item{ID: uint64(i), Weight: 1})
						if len(batch) == 250 {
							if err := ds.ObserveBatch(i%k, batch); err != nil {
								t.Fatal(err)
							}
							batch = batch[:0]
						}
					}
					if err := ds.Flush(); err != nil {
						t.Fatal(err)
					}
					smp := ds.Sample()
					if len(smp) != s {
						t.Fatalf("sample size %d, want %d", len(smp), s)
					}
					seen := map[uint64]bool{}
					for i, e := range smp {
						if seen[e.Item.ID] {
							t.Errorf("duplicate id %d", e.Item.ID)
						}
						seen[e.Item.ID] = true
						if i > 0 && smp[i].Key > smp[i-1].Key {
							t.Error("sample not sorted by descending key")
						}
					}
					for i := 0; i < giants; i++ {
						if !seen[uint64(1e6+i)] {
							t.Errorf("giant %d missing", i)
						}
					}
					if ds.Stats().Upstream == 0 {
						t.Error("no upstream traffic recorded")
					}
				})
			}
		}
	}
}

// TestTreeWindowedMatrix runs the windowed app through every tree shape
// × shards {1, 2}: sequential trees must stay bit-exact against the
// windowed oracle (the window protocol passes through relays untouched
// — no broadcasts, so the threshold filter never engages and the
// non-mergeable coordinator keeps the union merge off), and TCP trees
// must match it set-exactly after a flush.
func TestTreeWindowedMatrix(t *testing.T) {
	const k, s, width, n = 3, 6, 30, 800
	for _, shape := range treeShapes() {
		for _, mode := range []struct {
			name string
			spec RuntimeSpec
		}{{"seq", shape.seq()}, {"tcp", shape.tcp()}} {
			for _, shards := range []int{1, 2} {
				const seed = 9
				t.Run(fmt.Sprintf("%s/%s/shards=%d", shape.name, mode.name, shards), func(t *testing.T) {
					h, err := Open(Windowed(k, s, width),
						WithSeed(seed), WithRuntime(mode.spec), WithShards(shards))
					if err != nil {
						t.Fatal(err)
					}
					defer h.Close()
					oracle := newWindowedOracle(k, s, width, shards, seed)
					wrng := xrand.New(seed ^ 0xABCD)
					for i := 0; i < n; i++ {
						it := Item{ID: uint64(i)*2654435761 + seed, Weight: 0.2 + 20*wrng.Float64()}
						site := i % k
						oracle.observe(site, it)
						if err := h.Observe(site, it); err != nil {
							t.Fatal(err)
						}
					}
					if err := h.Flush(); err != nil {
						t.Fatal(err)
					}
					got := h.Query()
					if want := oracle.sample(); !sameSamples(got.Items, want) {
						t.Fatalf("sample diverged from oracle\n got %+v\nwant %+v", got.Items, want)
					}
					if st := h.Stats(); st.Downstream != 0 {
						t.Errorf("windowed protocol broadcast %d messages through the tree; it is push-only", st.Downstream)
					}
				})
			}
		}
	}
}

// TestTreeQuantilesMatrix runs the quantile sketch through every tree
// shape × shards {1, 2} over TCP (the union merge is ON for quantiles —
// its coordinator is the plain mergeable sampler) and checks the
// (eps, delta) guarantee against the exact weight-CDF oracle.
func TestTreeQuantilesMatrix(t *testing.T) {
	const k, eps, delta, n = 4, 0.15, 0.1, 8000
	for _, shape := range treeShapes() {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", shape.name, shards), func(t *testing.T) {
				q, err := Open(Quantiles(k, eps, delta),
					WithSeed(17), WithRuntime(shape.tcp()), WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				var oracle quantile.Oracle
				var batch []Item
				for i := 0; i < n; i++ {
					w := 1 + float64((i*i)%97)
					oracle.Observe(w)
					batch = append(batch, Item{ID: uint64(i), Weight: w})
					if len(batch) == 200 {
						if err := q.ObserveBatch(i%k, batch); err != nil {
							t.Fatal(err)
						}
						batch = batch[:0]
					}
				}
				if err := q.Flush(); err != nil {
					t.Fatal(err)
				}
				est := q.Query()
				if !est.Saturated() {
					t.Fatalf("estimate not saturated after %d items", n)
				}
				var maxErr float64
				for x := 1.0; x <= 98; x++ {
					if e := math.Abs(est.CDF(x) - oracle.CDF(x)); e > maxErr {
						maxErr = e
					}
				}
				if maxErr > eps {
					t.Errorf("max CDF error %.4f > eps %.2f", maxErr, eps)
				}
			})
		}
	}
}

// A fanout whose square overflows int is a valid shape: Open must build
// it (every tier clamps at k) and run, not size a tier negative and
// panic.
func TestSequentialTreeHugeFanout(t *testing.T) {
	h, err := Open(Sampler(3, 2), WithRuntime(SequentialTree(1<<62, 2)))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 100; i++ {
		if err := h.Observe(i%3, Item{ID: uint64(i), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(h.Query()); got != 2 {
		t.Errorf("sample holds %d items, want 2", got)
	}
}
