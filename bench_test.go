// Benchmarks: one per experiment in DESIGN.md's index (E1-E13, A1-A3).
// Each reports the figure of merit the paper argues about — almost always
// messages per stream update — via b.ReportMetric, alongside wall time.
// cmd/wrs-bench runs the full-size sweeps; these are the compact,
// continuously-runnable versions.
package wrs_test

import (
	"math"
	"testing"

	"wrs"
	"wrs/internal/baseline"
	"wrs/internal/core"
	"wrs/internal/heavyhitter"
	"wrs/internal/l1track"
	"wrs/internal/netsim"
	"wrs/internal/sample"
	"wrs/internal/stream"
	"wrs/internal/swr"
	"wrs/internal/xrand"
)

const benchN = 20000

func runCoreBench(b *testing.B, cfg core.Config, n int, wf stream.WeightFn, af stream.AssignFn) {
	b.Helper()
	var msgs, updates int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		master := xrand.New(uint64(i) + 1)
		coord := core.NewCoordinator(cfg, master.Split())
		sites := make([]netsim.Site[core.Message], cfg.K)
		for j := 0; j < cfg.K; j++ {
			sites[j] = core.NewSite(j, cfg, master.Split())
		}
		cl := netsim.NewCluster[core.Message](coord, sites)
		g := stream.NewGenerator(n, cfg.K, wf, af)
		if err := cl.Run(g, xrand.New(uint64(i)+77)); err != nil {
			b.Fatal(err)
		}
		msgs += cl.Stats.Total()
		updates += int64(n)
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs")
	b.ReportMetric(float64(msgs)/float64(updates), "msgs/update")
}

// E1: messages vs W (Theorem 3).
func BenchmarkE1MessagesVsW(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run("W="+itoa(n), func(b *testing.B) {
			runCoreBench(b, core.Config{K: 32, S: 16}, n, stream.UnitWeights(), stream.RoundRobin(32))
		})
	}
}

// E2: messages vs k (Theorem 3).
func BenchmarkE2MessagesVsK(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			runCoreBench(b, core.Config{K: k, S: 16}, benchN, stream.UnitWeights(), stream.RoundRobin(k))
		})
	}
}

// E3: messages vs s (Theorem 3).
func BenchmarkE3MessagesVsS(b *testing.B) {
	for _, s := range []int{4, 32, 256} {
		b.Run("s="+itoa(s), func(b *testing.B) {
			runCoreBench(b, core.Config{K: 64, S: s}, benchN, stream.UnitWeights(), stream.RoundRobin(64))
		})
	}
}

// E4: ratio against the Corollary 2 lower-bound formula.
func BenchmarkE4OptimalityRatio(b *testing.B) {
	cfg := core.Config{K: 16, S: 8}
	var msgs int64
	for i := 0; i < b.N; i++ {
		master := xrand.New(uint64(i) + 5)
		coord := core.NewCoordinator(cfg, master.Split())
		sites := make([]netsim.Site[core.Message], cfg.K)
		for j := 0; j < cfg.K; j++ {
			sites[j] = core.NewSite(j, cfg, master.Split())
		}
		cl := netsim.NewCluster[core.Message](coord, sites)
		g := stream.NewGenerator(benchN, cfg.K, stream.UnitWeights(), stream.RoundRobin(cfg.K))
		if err := cl.Run(g, xrand.New(uint64(i)+6)); err != nil {
			b.Fatal(err)
		}
		msgs += cl.Stats.Total()
	}
	bound := float64(cfg.K) * math.Log(float64(benchN)/float64(cfg.S)) /
		math.Log(1+float64(cfg.K)/float64(cfg.S))
	b.ReportMetric(float64(msgs)/float64(b.N)/bound, "x-lower-bound")
}

// E5: ours vs the naive baselines of Section 1.2.
func BenchmarkE5VsBaselines(b *testing.B) {
	const k, s = 16, 32
	b.Run("ours", func(b *testing.B) {
		runCoreBench(b, core.Config{K: k, S: s}, benchN, stream.UnitWeights(), stream.RoundRobin(k))
	})
	b.Run("independent", func(b *testing.B) {
		var msgs int64
		for i := 0; i < b.N; i++ {
			master := xrand.New(uint64(i) + 9)
			coord := baseline.NewCoordinator(s)
			sites := make([]netsim.Site[baseline.Msg], k)
			for j := 0; j < k; j++ {
				sites[j] = baseline.NewIndependentSite(s, master.Split())
			}
			cl := netsim.NewCluster[baseline.Msg](coord, sites)
			g := stream.NewGenerator(benchN, k, stream.UnitWeights(), stream.RoundRobin(k))
			if err := cl.Run(g, xrand.New(uint64(i)+10)); err != nil {
				b.Fatal(err)
			}
			msgs += cl.Stats.Total()
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs")
		b.ReportMetric(float64(msgs)/float64(b.N)/float64(benchN), "msgs/update")
	})
	b.Run("sendall", func(b *testing.B) {
		var msgs int64
		for i := 0; i < b.N; i++ {
			master := xrand.New(uint64(i) + 11)
			coord := baseline.NewCoordinator(s)
			sites := make([]netsim.Site[baseline.Msg], k)
			for j := 0; j < k; j++ {
				sites[j] = baseline.NewSendAllSite(master.Split())
			}
			cl := netsim.NewCluster[baseline.Msg](coord, sites)
			g := stream.NewGenerator(benchN, k, stream.UnitWeights(), stream.RoundRobin(k))
			if err := cl.Run(g, xrand.New(uint64(i)+12)); err != nil {
				b.Fatal(err)
			}
			msgs += cl.Stats.Total()
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs")
	})
}

// E6: full-protocol sampling distribution (throughput of the validation
// workload; the statistical assertion itself lives in the test suite).
func BenchmarkE6Distribution(b *testing.B) {
	weights := []float64{1, 2, 4, 8, 16}
	cfg := core.Config{K: 3, S: 2}
	for i := 0; i < b.N; i++ {
		master := xrand.New(uint64(i)*2654435761 + 17)
		coord := core.NewCoordinator(cfg, master.Split())
		sites := make([]netsim.Site[core.Message], cfg.K)
		for j := 0; j < cfg.K; j++ {
			sites[j] = core.NewSite(j, cfg, master.Split())
		}
		cl := netsim.NewCluster[core.Message](coord, sites)
		for j, w := range weights {
			if err := cl.Feed(j%cfg.K, stream.Item{ID: uint64(j), Weight: w}); err != nil {
				b.Fatal(err)
			}
		}
		if len(coord.Query()) != cfg.S {
			b.Fatal("bad sample size")
		}
	}
}

// E7: residual heavy hitters, ours vs SWR baseline.
func BenchmarkE7ResidualHH(b *testing.B) {
	const k = 8
	p := heavyhitter.Params{Eps: 0.1, Delta: 0.1}
	mkStream := func() *stream.Stream {
		s := &stream.Stream{K: k}
		id := 0
		add := func(w float64) {
			s.Updates = append(s.Updates, stream.Update{Pos: id, Site: id % k,
				Item: stream.Item{ID: uint64(id), Weight: w}})
			id++
		}
		for i := 0; i < 5; i++ {
			add(1e8)
		}
		for i := 0; i < 6; i++ {
			add(1300)
		}
		for i := 0; i < 10000; i++ {
			add(1)
		}
		return s
	}
	b.Run("swor", func(b *testing.B) {
		var msgs int64
		var recall float64
		for i := 0; i < b.N; i++ {
			tr, err := heavyhitter.NewTracker(k, p, xrand.New(uint64(i)+100))
			if err != nil {
				b.Fatal(err)
			}
			sites := make([]netsim.Site[core.Message], k)
			for j, s := range tr.Sites {
				sites[j] = s
			}
			cl := netsim.NewCluster[core.Message](tr.Coord, sites)
			if err := cl.RunStream(mkStream()); err != nil {
				b.Fatal(err)
			}
			msgs += cl.Stats.Total()
			want := make([]int, 11)
			for j := range want {
				want[j] = j
			}
			recall += heavyhitter.Recall(tr.Query(), want)
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs")
		b.ReportMetric(recall/float64(b.N), "residual-recall")
	})
	b.Run("swr", func(b *testing.B) {
		var msgs int64
		var recall float64
		for i := 0; i < b.N; i++ {
			tr, err := heavyhitter.NewSWRTracker(k, p, xrand.New(uint64(i)+200))
			if err != nil {
				b.Fatal(err)
			}
			sites := make([]netsim.Site[swr.Message], k)
			for j, s := range tr.Sites {
				sites[j] = s
			}
			cl := netsim.NewCluster[swr.Message](tr.Coord, sites)
			if err := cl.RunStream(mkStream()); err != nil {
				b.Fatal(err)
			}
			msgs += cl.Stats.Total()
			want := make([]int, 11)
			for j := range want {
				want[j] = j
			}
			recall += heavyhitter.Recall(tr.Query(), want)
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs")
		b.ReportMetric(recall/float64(b.N), "residual-recall")
	})
}

// E8: the Theorem 5 geometric lower-bound instance.
func BenchmarkE8HHLowerBound(b *testing.B) {
	const k, eps, n = 4, 0.2, 250
	p := heavyhitter.Params{Eps: eps, Delta: 0.1}
	var msgs int64
	for i := 0; i < b.N; i++ {
		tr, err := heavyhitter.NewTracker(k, p, xrand.New(uint64(i)+42))
		if err != nil {
			b.Fatal(err)
		}
		sites := make([]netsim.Site[core.Message], k)
		for j, s := range tr.Sites {
			sites[j] = s
		}
		cl := netsim.NewCluster[core.Message](tr.Coord, sites)
		g := stream.NewGenerator(n, k, stream.GeometricWeights(eps), stream.RoundRobin(k))
		if err := cl.Run(g, xrand.New(uint64(i)+43)); err != nil {
			b.Fatal(err)
		}
		msgs += cl.Stats.Total()
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs")
}

// E9: the Section 5 comparison table rows.
func BenchmarkE9L1Table(b *testing.B) {
	const k, eps, n = 16, 0.1, 50000
	b.Run("counter14", func(b *testing.B) {
		var msgs int64
		for i := 0; i < b.N; i++ {
			coord := l1track.NewCounterCoordinator(k)
			sites := make([]netsim.Site[l1track.CounterMsg], k)
			for j := 0; j < k; j++ {
				sites[j] = l1track.NewCounterSite(j, eps)
			}
			cl := netsim.NewCluster[l1track.CounterMsg](coord, sites)
			g := stream.NewGenerator(n, k, stream.UnitWeights(), stream.RoundRobin(k))
			if err := cl.Run(g, xrand.New(uint64(i)+1)); err != nil {
				b.Fatal(err)
			}
			msgs += cl.Stats.Total()
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs")
	})
	b.Run("hyz23", func(b *testing.B) {
		var msgs int64
		for i := 0; i < b.N; i++ {
			master := xrand.New(uint64(i) + 2)
			coord := l1track.NewHYZCoordinator(k, eps)
			sites := make([]netsim.Site[l1track.HYZMsg], k)
			for j := 0; j < k; j++ {
				sites[j] = l1track.NewHYZSite(j, master.Split())
			}
			cl := netsim.NewCluster[l1track.HYZMsg](coord, sites)
			g := stream.NewGenerator(n, k, stream.UnitWeights(), stream.RoundRobin(k))
			if err := cl.Run(g, xrand.New(uint64(i)+3)); err != nil {
				b.Fatal(err)
			}
			msgs += cl.Stats.Total()
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs")
	})
	b.Run("ours", func(b *testing.B) {
		var msgs int64
		for i := 0; i < b.N; i++ {
			coord, sites, err := l1track.NewDupTracker(k,
				l1track.DupParams{Eps: eps, Delta: 0.2, SFactor: 4}, xrand.New(uint64(i)+4))
			if err != nil {
				b.Fatal(err)
			}
			ns := make([]netsim.Site[core.Message], k)
			for j, s := range sites {
				ns[j] = s
			}
			cl := netsim.NewCluster[core.Message](coord, ns)
			g := stream.NewGenerator(n, k, stream.UnitWeights(), stream.RoundRobin(k))
			if err := cl.Run(g, xrand.New(uint64(i)+5)); err != nil {
				b.Fatal(err)
			}
			msgs += cl.Stats.Total()
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs")
	})
}

// E10: L1 accuracy of the paper's tracker.
func BenchmarkE10L1Accuracy(b *testing.B) {
	const k, n = 4, 3000
	var relErr float64
	for i := 0; i < b.N; i++ {
		coord, sites, err := l1track.NewDupTracker(k,
			l1track.DupParams{Eps: 0.15, Delta: 0.2, SFactor: 4}, xrand.New(uint64(i)+30))
		if err != nil {
			b.Fatal(err)
		}
		ns := make([]netsim.Site[core.Message], k)
		for j, s := range sites {
			ns[j] = s
		}
		cl := netsim.NewCluster[core.Message](coord, ns)
		rng := xrand.New(uint64(i) + 31)
		var W float64
		for j := 0; j < n; j++ {
			w := 1 + math.Floor(9*rng.Float64())
			W += w
			if err := cl.Feed(j%k, stream.Item{ID: uint64(j), Weight: w}); err != nil {
				b.Fatal(err)
			}
		}
		relErr += math.Abs(coord.Estimate()-W) / W
	}
	b.ReportMetric(relErr/float64(b.N), "rel-err")
}

// E11: the Theorem 7 k^i-epoch lower-bound instance.
func BenchmarkE11L1LowerBound(b *testing.B) {
	const k = 8
	n := 1
	for n < 40000 {
		n *= k
	}
	var msgs int64
	for i := 0; i < b.N; i++ {
		coord := l1track.NewCounterCoordinator(k)
		sites := make([]netsim.Site[l1track.CounterMsg], k)
		for j := 0; j < k; j++ {
			sites[j] = l1track.NewCounterSite(j, 0.5)
		}
		cl := netsim.NewCluster[l1track.CounterMsg](coord, sites)
		g := stream.NewGenerator(n, k, stream.UnitWeights(), stream.EpochBlocks(k))
		if err := cl.Run(g, xrand.New(uint64(i)+7)); err != nil {
			b.Fatal(err)
		}
		msgs += cl.Stats.Total()
	}
	bound := float64(k) * math.Log(float64(n)) / math.Log(float64(k))
	b.ReportMetric(float64(msgs)/float64(b.N)/bound, "x-lower-bound")
}

// E12: SWOR vs SWR diversity through the public API.
func BenchmarkE12SworVsSwr(b *testing.B) {
	feed := func(obs func(wrs.Item) error) {
		for i := 0; i < 5; i++ {
			if err := obs(wrs.Item{ID: uint64(i), Weight: 1e9}); err != nil {
				b.Fatal(err)
			}
		}
		for i := 5; i < 5000; i++ {
			if err := obs(wrs.Item{ID: uint64(i), Weight: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("swor", func(b *testing.B) {
		var distinct float64
		for i := 0; i < b.N; i++ {
			s, err := wrs.NewDistributedSampler(4, 20, wrs.WithSeed(uint64(i)+1))
			if err != nil {
				b.Fatal(err)
			}
			j := 0
			feed(func(it wrs.Item) error { j++; return s.Observe(j%4, it) })
			ids := map[uint64]bool{}
			for _, e := range s.Sample() {
				ids[e.Item.ID] = true
			}
			distinct += float64(len(ids))
		}
		b.ReportMetric(distinct/float64(b.N), "distinct-ids")
	})
	b.Run("swr", func(b *testing.B) {
		var distinct float64
		for i := 0; i < b.N; i++ {
			s, err := wrs.NewWithReplacement(20, wrs.WithSeed(uint64(i)+1))
			if err != nil {
				b.Fatal(err)
			}
			feed(s.Observe)
			ids := map[uint64]bool{}
			for _, it := range s.Sample() {
				ids[it.ID] = true
			}
			distinct += float64(len(ids))
		}
		b.ReportMetric(distinct/float64(b.N), "distinct-ids")
	})
}

// E13: distributed weighted SWR message complexity (Corollary 1).
func BenchmarkE13SwrMessages(b *testing.B) {
	cfg := swr.Config{K: 16, S: 8}
	var msgs int64
	for i := 0; i < b.N; i++ {
		master := xrand.New(uint64(i) + 50)
		coord := swr.NewCoordinator(cfg)
		sites := make([]netsim.Site[swr.Message], cfg.K)
		for j := 0; j < cfg.K; j++ {
			sites[j] = swr.NewSite(cfg, master.Split())
		}
		cl := netsim.NewCluster[swr.Message](coord, sites)
		g := stream.NewGenerator(benchN, cfg.K, stream.UnitWeights(), stream.RoundRobin(cfg.K))
		if err := cl.Run(g, xrand.New(uint64(i)+51)); err != nil {
			b.Fatal(err)
		}
		msgs += cl.Stats.Total()
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs")
	b.ReportMetric(float64(msgs)/float64(b.N)/float64(benchN), "msgs/update")
}

// A1: level-set ablation.
func BenchmarkA1LevelSetAblation(b *testing.B) {
	wf := stream.HeavyHeadWeights(5, 1e12)
	b.Run("on", func(b *testing.B) {
		runCoreBench(b, core.Config{K: 8, S: 8}, benchN, wf, stream.RoundRobin(8))
	})
	b.Run("off", func(b *testing.B) {
		runCoreBench(b, core.Config{K: 8, S: 8, DisableLevelSets: true}, benchN, wf, stream.RoundRobin(8))
	})
}

// A2: epoch-filter ablation.
func BenchmarkA2EpochAblation(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		runCoreBench(b, core.Config{K: 8, S: 8}, benchN, stream.UnitWeights(), stream.RoundRobin(8))
	})
	b.Run("off", func(b *testing.B) {
		runCoreBench(b, core.Config{K: 8, S: 8, DisableEpochs: true}, benchN, stream.UnitWeights(), stream.RoundRobin(8))
	})
}

// A3: Proposition 7 bit complexity of the site filter.
func BenchmarkA3LazyBits(b *testing.B) {
	cfg := core.Config{K: 8, S: 8}
	var decBits, obs int64
	for i := 0; i < b.N; i++ {
		master := xrand.New(uint64(i) + 60)
		coord := core.NewCoordinator(cfg, master.Split())
		raw := make([]*core.Site, cfg.K)
		sites := make([]netsim.Site[core.Message], cfg.K)
		for j := 0; j < cfg.K; j++ {
			raw[j] = core.NewSite(j, cfg, master.Split())
			sites[j] = raw[j]
		}
		cl := netsim.NewCluster[core.Message](coord, sites)
		g := stream.NewGenerator(benchN, cfg.K, stream.UnitWeights(), stream.RoundRobin(cfg.K))
		if err := cl.Run(g, xrand.New(uint64(i)+61)); err != nil {
			b.Fatal(err)
		}
		for _, s := range raw {
			decBits += s.DecisionBits
			obs += s.Observed
		}
	}
	b.ReportMetric(float64(decBits)/float64(obs), "bits/decision")
}

// Micro-benchmark: single-site observe throughput in steady state.
func BenchmarkSiteObserveThroughput(b *testing.B) {
	cfg := core.Config{K: 8, S: 8}
	master := xrand.New(1)
	coord := core.NewCoordinator(cfg, master.Split())
	sites := make([]netsim.Site[core.Message], cfg.K)
	for j := 0; j < cfg.K; j++ {
		sites[j] = core.NewSite(j, cfg, master.Split())
	}
	cl := netsim.NewCluster[core.Message](coord, sites)
	// Warm up so epochs are active and the filter path dominates.
	g := stream.NewGenerator(50000, cfg.K, stream.UnitWeights(), stream.RoundRobin(cfg.K))
	if err := cl.Run(g, xrand.New(2)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Feed(i%cfg.K, stream.Item{ID: uint64(i), Weight: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmark: sequential ES sampler (the centralized oracle).
func BenchmarkSequentialES(b *testing.B) {
	es := sample.NewES(64, xrand.New(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		es.Observe(stream.Item{ID: uint64(i), Weight: 1 + float64(i%100)})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for n > 0 {
		pos--
		buf[pos] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[pos:])
}
