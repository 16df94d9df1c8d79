package runtime

import (
	"testing"

	"wrs/internal/core"
	"wrs/internal/netsim"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// buildInstance assembles a plain sampler instance with a recorder
// attached everywhere keys are generated, so exactness can be checked
// against the brute-force top-s on any runtime and any interleaving.
func buildInstance(cfg core.Config, seed uint64, rec *core.Recorder) Instance {
	master := xrand.New(seed)
	coord := core.NewCoordinator(cfg, master.Split())
	coord.SetRecorder(rec)
	sites := make([]netsim.Site[core.Message], cfg.K)
	for i := 0; i < cfg.K; i++ {
		s := core.NewSite(i, cfg, master.Split())
		s.SetRecorder(rec)
		sites[i] = s
	}
	return Instance{Cfg: cfg, Coord: coord, Sites: sites}
}

func factories() map[string]Factory {
	return map[string]Factory{
		"sequential": Sequential(),
		"goroutines": Goroutines(),
		"tcp":        TCP(""),
	}
}

// TestRuntimeMatrixExactness drives the identical protocol instance
// over every runtime and checks the paper's core invariant on each: the
// coordinator's query is exactly the brute-force top-s of all generated
// keys, no matter how messages were delivered.
func TestRuntimeMatrixExactness(t *testing.T) {
	for name, factory := range factories() {
		t.Run(name, func(t *testing.T) {
			cfg := core.Config{K: 4, S: 8}
			rec := core.NewRecorder()
			inst := buildInstance(cfg, 11, rec)
			run, err := factory([]Instance{inst})
			if err != nil {
				t.Fatal(err)
			}
			defer run.Close()

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
			var q []core.SampleEntry
			run.Do(func() { q = inst.Coord.Core().Query() })
			if len(q) != cfg.S {
				t.Fatalf("query size %d, want %d", len(q), cfg.S)
			}
			want := rec.TopIDs(cfg.S)
			for _, e := range q {
				if !want[e.Item.ID] {
					t.Fatalf("sample item %d is not a top-%d key", e.Item.ID, cfg.S)
				}
			}
			st := run.Stats()
			if st.Upstream == 0 || st.UpWords == 0 {
				t.Errorf("no upstream traffic recorded: %+v", st)
			}
			if st.Upstream > n/2 {
				t.Errorf("upstream messages %d not sublinear in %d updates", st.Upstream, n)
			}
		})
	}
}

// TestRuntimeMatrixFeedBatch runs the same invariant through each
// runtime's batched path.
func TestRuntimeMatrixFeedBatch(t *testing.T) {
	for name, factory := range factories() {
		t.Run(name, func(t *testing.T) {
			cfg := core.Config{K: 2, S: 5}
			rec := core.NewRecorder()
			inst := buildInstance(cfg, 23, rec)
			run, err := factory([]Instance{inst})
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
			var q []core.SampleEntry
			run.Do(func() { q = inst.Coord.Core().Query() })
			want := rec.TopIDs(cfg.S)
			if len(q) != cfg.S {
				t.Fatalf("query size %d, want %d", len(q), cfg.S)
			}
			for _, e := range q {
				if !want[e.Item.ID] {
					t.Fatalf("sample item %d is not a top-%d key", e.Item.ID, cfg.S)
				}
			}
		})
	}
}

// TestRuntimeFeedAfterClose pins the uniform contract: every runtime
// rejects feeding after Close with an error instead of panicking.
func TestRuntimeFeedAfterClose(t *testing.T) {
	for name, factory := range factories() {
		t.Run(name, func(t *testing.T) {
			cfg := core.Config{K: 2, S: 2}
			run, err := factory([]Instance{buildInstance(cfg, 7, nil)})
			if err != nil {
				t.Fatal(err)
			}
			if err := run.Feed(0, stream.Item{ID: 1, Weight: 1}); err != nil {
				t.Fatal(err)
			}
			if err := run.Close(); err != nil {
				t.Fatal(err)
			}
			if err := run.Feed(0, stream.Item{ID: 2, Weight: 1}); err == nil {
				t.Error("Feed after Close succeeded")
			}
			if err := run.FeedBatch(0, []stream.Item{{ID: 3, Weight: 1}}); err == nil {
				t.Error("FeedBatch after Close succeeded")
			}
		})
	}
}

// TestRuntimeSiteRange pins range validation on every runtime.
func TestRuntimeSiteRange(t *testing.T) {
	for name, factory := range factories() {
		t.Run(name, func(t *testing.T) {
			cfg := core.Config{K: 2, S: 2}
			run, err := factory([]Instance{buildInstance(cfg, 7, nil)})
			if err != nil {
				t.Fatal(err)
			}
			defer run.Close()
			if err := run.Feed(2, stream.Item{ID: 1, Weight: 1}); err == nil {
				t.Error("out-of-range site accepted")
			}
			if err := run.Feed(-1, stream.Item{ID: 1, Weight: 1}); err == nil {
				t.Error("negative site accepted")
			}
		})
	}
}
