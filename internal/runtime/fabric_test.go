package runtime

import (
	"fmt"
	"sync"
	"testing"

	"wrs/internal/core"
	"wrs/internal/fabric"
	"wrs/internal/netsim"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// buildShardInstances assembles P full sampler instances from one
// master seed, every key generator recording into rec so the merged
// sample can be checked against the brute-force top-s of all keys the
// run actually generated — the paper's exactness invariant, extended
// across the shard fabric.
func buildShardInstances(cfg core.Config, shards int, seed uint64, rec *core.Recorder) []Instance {
	master := xrand.New(seed)
	insts := make([]Instance, shards)
	for p := range insts {
		coord := core.NewCoordinator(cfg, master.Split())
		coord.SetRecorder(rec)
		sites := make([]netsim.Site[core.Message], cfg.K)
		for i := 0; i < cfg.K; i++ {
			s := core.NewSite(i, cfg, master.Split())
			s.SetRecorder(rec)
			sites[i] = s
		}
		insts[p] = Instance{Cfg: cfg, Coord: coord, Sites: sites}
	}
	return insts
}

// TestFabricMatrixExactness drives the identical sharded protocol over
// every runtime × shard-count combination and checks that the merged
// per-shard query is exactly the brute-force top-s of all generated
// keys — the fabric's headline invariant: sharding multiplies
// coordinator locks without perturbing the maintained sample.
func TestFabricMatrixExactness(t *testing.T) {
	for name, factory := range factories() {
		for _, shards := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				cfg := core.Config{K: 4, S: 8}
				rec := core.NewRecorder()
				insts := buildShardInstances(cfg, shards, 17, rec)
				run, err := factory(insts)
				if err != nil {
					t.Fatal(err)
				}
				defer run.Close()

				if got := run.Shards(); got != shards {
					t.Fatalf("Shards() = %d, want %d", got, shards)
				}
				const n = 6000
				rng := xrand.New(99)
				for i := 0; i < n; i++ {
					it := stream.Item{ID: uint64(i), Weight: rng.Pareto(1.3)}
					if err := run.Feed(i%cfg.K, it); err != nil {
						t.Fatal(err)
					}
				}
				if err := run.Flush(); err != nil {
					t.Fatal(err)
				}
				if rec.Len() != n {
					t.Fatalf("recorded %d keys, want %d", rec.Len(), n)
				}
				var entries []core.SampleEntry
				for p := range insts {
					coord := insts[p].Coord.Core()
					run.DoShard(p, func() { entries = coord.Snapshot(entries) })
				}
				merged := core.TopSample(entries, cfg.S)
				if len(merged) != cfg.S {
					t.Fatalf("merged sample size %d, want %d", len(merged), cfg.S)
				}
				want := rec.TopIDs(cfg.S)
				for _, e := range merged {
					if !want[e.Item.ID] {
						t.Fatalf("merged item %d is not a top-%d key", e.Item.ID, cfg.S)
					}
				}
				st := run.Stats()
				if st.Upstream == 0 || st.UpWords == 0 {
					t.Errorf("no upstream traffic recorded: %+v", st)
				}
			})
		}
	}
}

// TestFabricFeedBatchSplit runs the batched path: FeedBatch must split
// each batch across shards in one pass, preserving per-shard order,
// with the same exactness invariant.
func TestFabricFeedBatchSplit(t *testing.T) {
	for name, factory := range factories() {
		for _, shards := range []int{2, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				cfg := core.Config{K: 2, S: 5}
				rec := core.NewRecorder()
				insts := buildShardInstances(cfg, shards, 23, rec)
				run, err := factory(insts)
				if err != nil {
					t.Fatal(err)
				}
				defer run.Close()

				const n, chunk = 4000, 111
				rng := xrand.New(5)
				batches := make([][]stream.Item, cfg.K)
				for i := 0; i < n; i++ {
					site := i % cfg.K
					batches[site] = append(batches[site], stream.Item{ID: uint64(i), Weight: rng.Pareto(1.2)})
					if len(batches[site]) == chunk {
						if err := run.FeedBatch(site, batches[site]); err != nil {
							t.Fatal(err)
						}
						batches[site] = batches[site][:0]
					}
				}
				for site := range batches {
					if err := run.FeedBatch(site, batches[site]); err != nil {
						t.Fatal(err)
					}
				}
				if err := run.Flush(); err != nil {
					t.Fatal(err)
				}
				if rec.Len() != n {
					t.Fatalf("recorded %d keys, want %d", rec.Len(), n)
				}
				var entries []core.SampleEntry
				for p := range insts {
					coord := insts[p].Coord.Core()
					run.DoShard(p, func() { entries = coord.Snapshot(entries) })
				}
				merged := core.TopSample(entries, cfg.S)
				want := rec.TopIDs(cfg.S)
				if len(merged) != cfg.S {
					t.Fatalf("merged sample size %d, want %d", len(merged), cfg.S)
				}
				for _, e := range merged {
					if !want[e.Item.ID] {
						t.Fatalf("merged item %d is not a top-%d key", e.Item.ID, cfg.S)
					}
				}
			})
		}
	}
}

// TestFabricRouterConsistency pins that the in-process fabric and the
// TCP sharded cluster route identically: the same item lands on the
// same shard coordinator regardless of the runtime driving it —
// without this, a query against one runtime's shard layout would not
// be comparable to another's.
func TestFabricRouterConsistency(t *testing.T) {
	const shards = 5
	cfg := core.Config{K: 2, S: 4}
	perShardIDs := func(factory Factory) [][]uint64 {
		insts := buildShardInstances(cfg, shards, 31, nil)
		run, err := factory(insts)
		if err != nil {
			t.Fatal(err)
		}
		defer run.Close()
		// Giant weights: every item is withheld as an early message, so
		// every shard coordinator's snapshot lists exactly the IDs routed
		// to it (up to the O(s) pool bound; keep counts below S).
		for i := 0; i < 2*shards; i++ {
			if err := run.Feed(i%cfg.K, stream.Item{ID: uint64(i), Weight: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := run.Flush(); err != nil {
			t.Fatal(err)
		}
		out := make([][]uint64, shards)
		for p := range insts {
			coord := insts[p].Coord.Core()
			var entries []core.SampleEntry
			run.DoShard(p, func() { entries = coord.Snapshot(entries) })
			for _, e := range entries {
				out[p] = append(out[p], e.Item.ID)
			}
		}
		return out
	}
	for name, factory := range factories() {
		got := perShardIDs(factory)
		for p := range got {
			for _, id := range got[p] {
				if want := fabric.ShardOf(id, shards); want != p {
					t.Errorf("%s: item %d on shard %d, router says %d", name, id, p, want)
				}
			}
		}
	}
}

// idSite records the IDs it observes and never sends. Only its own
// site goroutine touches it; read ids after Close.
type idSite struct{ ids []uint64 }

func (s *idSite) Observe(it stream.Item, _ func(core.Message)) error {
	s.ids = append(s.ids, it.ID)
	return nil
}
func (s *idSite) HandleBroadcast(core.Message) {}

// goroutineFabric composes two Goroutines shards over k idSites each.
func goroutineFabric(t *testing.T, k int) (*Fabric, [][]*idSite) {
	t.Helper()
	const shards = 2
	cfg := core.Config{K: k, S: 8}
	insts := make([]Instance, shards)
	sites := make([][]*idSite, shards)
	for p := range insts {
		sites[p] = make([]*idSite, k)
		for i := range sites[p] {
			sites[p][i] = &idSite{}
		}
		insts[p] = Instance{Cfg: cfg, Coord: core.NewCoordinator(cfg, xrand.New(uint64(p))), Sites: SiteList(sites[p])}
	}
	run, err := Goroutines()(insts)
	if err != nil {
		t.Fatal(err)
	}
	return run.(*Fabric), sites
}

// In steady state the fabric's batch split reuses its buffers: feeding
// a batch over two goroutine shards allocates nothing, on this
// goroutine or the site goroutines behind it.
func TestFabricFeedBatchAllocs(t *testing.T) {
	f, _ := goroutineFabric(t, 2)
	defer f.Close()
	batch := make([]stream.Item, 256)
	for i := range batch {
		batch[i] = stream.Item{ID: uint64(i), Weight: 1}
	}
	feed := func() {
		if err := f.FeedBatch(0, batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ { // grow the queues and site buffers to size
		feed()
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, feed); got != 0 {
		t.Errorf("Fabric.FeedBatch over 2 goroutine shards: %v allocations per call, want 0", got)
	}
}

// Two goroutines feeding the same site at once is outside the
// one-feeder-per-site contract, but it works, so concurrent FeedBatch
// calls must never share a split buffer: every item arrives exactly
// once.
func TestFabricFeedBatchSameSiteConcurrent(t *testing.T) {
	f, sites := goroutineFabric(t, 1)
	const feeders, batches, chunk = 2, 200, 64
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]stream.Item, chunk)
			for b := 0; b < batches; b++ {
				for i := range batch {
					batch[i] = stream.Item{ID: uint64((g*batches+b)*chunk + i), Weight: 1}
				}
				if err := f.FeedBatch(0, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	seen := make([]int, feeders*batches*chunk)
	for p := range sites {
		for _, id := range sites[p][0].ids {
			if want := fabric.ShardOf(id, len(sites)); want != p {
				t.Fatalf("item %d delivered to shard %d, router says %d", id, p, want)
			}
			seen[id]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("item %d delivered %d times, want once", id, n)
		}
	}
}
