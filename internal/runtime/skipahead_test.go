package runtime

import (
	"fmt"
	"testing"

	"wrs/internal/core"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// TestSkipAheadMatrix drives the A-ExpJ skip-ahead configuration over
// every runtime × shard-count combination. The brute-force recorder
// oracle of TestFabricMatrixExactness cannot apply — skipped items
// never materialize a key, which is the whole point — so this matrix
// pins the structural invariants on every cell: the merged sample is a
// full, duplicate-free top-s of genuinely streamed items, filtering
// stays sublinear, and the jump actually engaged (items were consumed
// with zero RNG draws). Distribution-exactness of the jump filter is
// pinned separately: per-decision in internal/xrand's jump suite and
// end-to-end in internal/core's skip-ahead inclusion tests.
func TestSkipAheadMatrix(t *testing.T) {
	for name, factory := range factories() {
		for _, shards := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				cfg := core.Config{K: 4, S: 8, SkipAhead: true}
				insts := buildShardInstances(cfg, shards, 17, nil)
				run, err := factory(insts)
				if err != nil {
					t.Fatal(err)
				}
				closed := false
				defer func() {
					if !closed {
						run.Close()
					}
				}()

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
				var entries []core.SampleEntry
				for p := range insts {
					coord := insts[p].Coord.Core()
					run.DoShard(p, func() { entries = coord.Snapshot(entries) })
				}
				merged := core.TopSample(entries, cfg.S)
				if len(merged) != cfg.S {
					t.Fatalf("merged sample size %d, want %d", len(merged), cfg.S)
				}
				seen := make(map[uint64]bool, cfg.S)
				for _, e := range merged {
					if e.Item.ID >= n {
						t.Fatalf("sampled item %d was never streamed", e.Item.ID)
					}
					if seen[e.Item.ID] {
						t.Fatalf("item %d sampled twice", e.Item.ID)
					}
					seen[e.Item.ID] = true
					if !(e.Key > 0) {
						t.Fatalf("sampled key %v not positive", e.Key)
					}
				}
				st := run.Stats()
				if st.Upstream == 0 {
					t.Error("no upstream traffic recorded")
				}
				// The tight sublinearity bound only holds per sub-stream
				// length: at 7 shards each shard sees ~n/7 items and its
				// thresholds converge proportionally later (more so under
				// asynchronous scheduling), so the multi-shard cells get
				// the loose strictly-filtered bound instead.
				bound := int64(n)
				if shards == 1 {
					bound = n / 2
				}
				if st.Upstream > bound {
					t.Errorf("upstream messages %d exceed bound %d for %d updates", st.Upstream, bound, n)
				}
				closed = true
				if err := run.Close(); err != nil {
					t.Fatal(err)
				}
				var skipped int64
				for p := range insts {
					for _, s := range insts[p].Sites {
						skipped += s.(*core.Site).Skipped
					}
				}
				if skipped == 0 {
					t.Error("skip-ahead never engaged: no arrivals consumed by an armed jump")
				}
			})
		}
	}
}
