package wrs

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"wrs/internal/heavyhitter"
)

func shardMatrix() []RuntimeSpec {
	return []RuntimeSpec{Sequential(), Goroutines(), TCP("")}
}

// TestShardMatrixSampler is the cross-matrix exactness suite for the
// sampler: every runtime × shards ∈ {1, 2, 7}, checked against the
// centralized oracle on a heavy-head stream — the giant items dominate
// the key order almost surely (weight 1e12 vs unit tail), so any valid
// weighted SWOR must contain all of them, shards or not, and the
// merged sample must be duplicate-free, full-size, and key-sorted.
func TestShardMatrixSampler(t *testing.T) {
	const giants, s = 5, 10
	for _, spec := range shardMatrix() {
		for _, shards := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec.String(), shards), func(t *testing.T) {
				ds, err := NewDistributedSampler(4, s, WithSeed(3), WithRuntime(spec), WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				defer ds.Close()
				if got := ds.Shards(); got != shards {
					t.Fatalf("Shards() = %d, want %d", got, shards)
				}
				for i := 0; i < giants; i++ {
					if err := ds.Observe(i%4, Item{ID: uint64(1e6 + i), Weight: 1e12}); err != nil {
						t.Fatal(err)
					}
				}
				var batch []Item
				for i := 0; i < 6000; i++ {
					batch = append(batch, Item{ID: uint64(i), Weight: 1})
					if len(batch) == 250 {
						if err := ds.ObserveBatch(i%4, batch); err != nil {
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
						t.Errorf("duplicate id %d in merged SWOR sample", e.Item.ID)
					}
					seen[e.Item.ID] = true
					if i > 0 && smp[i].Key > smp[i-1].Key {
						t.Error("merged sample not sorted by descending key")
					}
				}
				for i := 0; i < giants; i++ {
					if !seen[uint64(1e6+i)] {
						t.Errorf("giant %d missing from merged sample", i)
					}
				}
				if ds.Stats().Upstream == 0 {
					t.Error("no upstream traffic recorded")
				}
			})
		}
	}
}

// TestShardMatrixHeavyHitter runs the HH application over the full
// matrix against the exact residual-heavy-hitter oracle of
// Definition 6: recall of the ground-truth set must be 1 (the giants'
// sampling failure probability at these weights is astronomically
// small, far below the tracker's delta).
func TestShardMatrixHeavyHitter(t *testing.T) {
	const eps = 0.1
	for _, spec := range shardMatrix() {
		for _, shards := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec.String(), shards), func(t *testing.T) {
				h, err := NewHeavyHitterTracker(4, eps, 0.1, WithSeed(5), WithRuntime(spec), WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				defer h.Close()
				weights := make([]float64, 4005)
				for i := 0; i < 5; i++ {
					weights[i] = 1e7
				}
				for i := 5; i < len(weights); i++ {
					weights[i] = 1
				}
				for i, w := range weights {
					if err := h.Observe(i%4, Item{ID: uint64(i), Weight: w}); err != nil {
						t.Fatal(err)
					}
				}
				if err := h.Flush(); err != nil {
					t.Fatal(err)
				}
				cand := h.Candidates()
				if len(cand) == 0 || len(cand) > 20 {
					t.Fatalf("candidate count %d", len(cand))
				}
				want := heavyhitter.ExactResidualHH(weights, eps)
				got := map[uint64]bool{}
				for _, it := range cand {
					got[it.ID] = true
				}
				for _, idx := range want {
					if !got[uint64(idx)] {
						t.Errorf("residual heavy hitter %d missing from candidates", idx)
					}
				}
			})
		}
	}
}

// TestShardMatrixL1 runs the L1 application over the full matrix
// against the exact total: the sum of per-shard estimates must stay
// within the Theorem 6 accuracy (1.5·eps slack for asynchrony, as in
// the unsharded TCP test).
func TestShardMatrixL1(t *testing.T) {
	const eps = 0.3
	for _, spec := range shardMatrix() {
		for _, shards := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec.String(), shards), func(t *testing.T) {
				l, err := NewL1Tracker(4, eps, 0.3, WithSeed(7), WithRuntime(spec), WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				var W float64
				for i := 0; i < 1500; i++ {
					w := float64(1 + i%5)
					W += w
					if err := l.Observe(i%4, Item{ID: uint64(i), Weight: w}); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
				est := l.Estimate()
				if rel := math.Abs(est-W) / W; rel > 1.5*eps {
					t.Errorf("estimate %v vs true %v: relative error %v > %v", est, W, rel, 1.5*eps)
				}
			})
		}
	}
}

// TestShardedL1ExactPrefix pins the "shard sums add exactly" property:
// while every shard's epoch threshold is still zero, each shard's
// estimate is its partition's exact total, so the summed estimate
// equals the global total exactly (up to float summation error) — not
// just within eps. Weights are small enough that no shard's s-th
// largest key reaches 1, so no shard leaves its exact prefix.
func TestShardedL1ExactPrefix(t *testing.T) {
	l, err := NewL1Tracker(2, 0.2, 0.2, WithSeed(11), WithShards(7))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var W float64
	for i := 0; i < 14; i++ {
		w := 0.02 * float64(1+i%3)
		W += w
		if err := l.Observe(i%2, Item{ID: uint64(i), Weight: w}); err != nil {
			t.Fatal(err)
		}
	}
	if est := l.Estimate(); math.Abs(est-W) > 1e-9*W {
		t.Errorf("exact-prefix estimate %v != true total %v", est, W)
	}
}

// TestWithShardsValidation pins option validation on every app.
func TestWithShardsValidation(t *testing.T) {
	if _, err := NewDistributedSampler(2, 2, WithShards(0)); err == nil {
		t.Error("sampler accepted 0 shards")
	}
	if _, err := NewHeavyHitterTracker(2, 0.1, 0.1, WithShards(-1)); err == nil {
		t.Error("HH tracker accepted negative shards")
	}
	if _, err := NewL1Tracker(2, 0.2, 0.2, WithShards(0)); err == nil {
		t.Error("L1 tracker accepted 0 shards")
	}
}

// TestShardedSamplerDeterministic pins replayability through the
// fabric: the sequential runtime with shards is still a deterministic
// function of the seed.
func TestShardedSamplerDeterministic(t *testing.T) {
	run := func() []Sampled {
		s, _ := NewDistributedSampler(3, 5, WithSeed(99), WithShards(4))
		for i := 0; i < 2000; i++ {
			s.Observe(i%3, Item{ID: uint64(i), Weight: float64(1 + i%7)})
		}
		return s.Sample()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay sizes diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestConcurrentSamplerDrainStatsConsistent pins the satellite fix:
// Drain's close and statistics read happen in one locked path, so the
// returned stats equal every post-Close Stats() — verified with
// concurrent feeders racing the drain under the race detector.
func TestConcurrentSamplerDrainStatsConsistent(t *testing.T) {
	c, err := NewConcurrentSampler(4, 6, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for site := 0; site < 4; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// Feed errors after Drain are expected; the point is the
				// race between feeding and draining.
				if err := c.Feed(site, Item{ID: uint64(site*2000 + i), Weight: 1 + float64(i%13)}); err != nil {
					return
				}
			}
		}(site)
	}
	stats, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if post := c.ds.Stats(); post != stats {
		t.Errorf("Drain stats %+v != post-Close Stats() %+v", stats, post)
	}
	again, _ := c.Drain()
	if again != stats {
		t.Errorf("second Drain changed stats: %+v vs %+v", again, stats)
	}
	if _, err := c.Sample(); err != nil {
		t.Fatal(err)
	}
}

// TestObserveBatchAllocsGoroutinesSharded pins the batch path of the
// goroutine runtime over two shards at zero allocations per call: the
// caller's Items reach the runtime without a copy, splitting the batch
// per shard reuses buffers, and in steady state nothing else on the
// path, the site and coordinator goroutines included, allocates per
// call (AllocsPerRun counts every goroutine's allocations).
func TestObserveBatchAllocsGoroutinesSharded(t *testing.T) {
	h, err := Open(Windowed(2, 64, 1024), WithRuntime(Goroutines()), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	batch := make([]Item, 256)
	for i := range batch {
		batch[i] = Item{ID: uint64(i), Weight: 1 + float64(i%7)}
	}
	calls := 0
	observe := func() {
		if err := h.ObserveBatch(calls%2, batch); err != nil {
			t.Fatal(err)
		}
		calls++
	}
	for i := 0; i < 64; i++ { // fill the windows and size every buffer
		observe()
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, observe); got != 0 {
		t.Errorf("ObserveBatch: %v allocations per call, want 0", got)
	}
}

// TestObserveBatchCallerReusesSlice refills one batch slice before
// every ObserveBatch and overwrites it after the last. The runtime gets
// the caller's slice itself, not a copy, so one that kept or wrote it
// after FeedBatch returned would lose, repeat or alter items, and race
// with the refill under -race. With s at least the stream length the
// sample must hold every item exactly once, with its own weight.
func TestObserveBatchCallerReusesSlice(t *testing.T) {
	const k, rounds, size = 2, 200, 8
	weight := func(id uint64) float64 { return 1 + float64(id%97) }
	for _, spec := range shardMatrix() {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec.String(), shards), func(t *testing.T) {
				h, err := Open(Sampler(k, rounds*size), WithSeed(5), WithRuntime(spec), WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				defer h.Close()
				batch := make([]Item, size)
				for r := 0; r < rounds; r++ {
					for i := range batch {
						id := uint64(r*size + i)
						batch[i] = Item{ID: id, Weight: weight(id)}
					}
					if err := h.ObserveBatch(r%k, batch); err != nil {
						t.Fatal(err)
					}
				}
				for i := range batch {
					batch[i] = Item{ID: math.MaxUint64, Weight: 1}
				}
				if err := h.Flush(); err != nil {
					t.Fatal(err)
				}
				smp := h.Query()
				if len(smp) != rounds*size {
					t.Fatalf("sample holds %d items, want all %d", len(smp), rounds*size)
				}
				seen := make([]bool, rounds*size)
				for _, e := range smp {
					id := e.Item.ID
					if id >= uint64(len(seen)) || seen[id] || e.Item.Weight != weight(id) {
						t.Fatalf("sampled item %+v: unknown, repeated or with a foreign weight", e.Item)
					}
					seen[id] = true
				}
			})
		}
	}
}

// TestOpenAllocs pins what Open then Close allocates on the two
// in-process shapes of the end-to-end benchmark (perf/): the sampler on
// the Sequential runtime (seq-pareto) and the windowed app on two
// goroutine shards (go-window). The benchmark's setup time is Open's, so
// the runtime assembly must not grow: a factory closure built per call,
// for one, adds allocations to every Open.
func TestOpenAllocs(t *testing.T) {
	cases := []struct {
		name string
		open func() (interface{ Close() error }, error)
		want float64
	}{
		{"Open(Sampler(64, 64))", func() (interface{ Close() error }, error) {
			return Open(Sampler(64, 64))
		}, 145},
		{"Open(Windowed(2, 64, 65536), WithRuntime(Goroutines()), WithShards(2))", func() (interface{ Close() error }, error) {
			return Open(Windowed(2, 64, 65536), WithRuntime(Goroutines()), WithShards(2))
		}, 87},
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(20, func() {
			h, err := c.open()
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s then Close: %v allocations, want %v", c.name, got, c.want)
		}
	}
}
