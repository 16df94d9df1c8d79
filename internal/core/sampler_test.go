package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"wrs/internal/netsim"
	"wrs/internal/sample"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// newTestCluster wires a coordinator and k sites into a sequential
// cluster, optionally sharing a key recorder.
func newTestCluster(cfg Config, seed uint64, rec *Recorder) (*netsim.Cluster[Message], *Coordinator) {
	master := xrand.New(seed)
	coord := NewCoordinator(cfg, master.Split())
	sites := make([]netsim.Site[Message], cfg.K)
	for i := 0; i < cfg.K; i++ {
		s := NewSite(i, cfg, master.Split())
		if rec != nil {
			s.SetRecorder(rec)
		}
		sites[i] = s
	}
	if rec != nil {
		coord.SetRecorder(rec)
	}
	return netsim.NewCluster(coord, sites), coord
}

func sampleIDs(entries []SampleEntry) map[uint64]bool {
	out := make(map[uint64]bool, len(entries))
	for _, e := range entries {
		out[e.Item.ID] = true
	}
	return out
}

// checkExactTopS verifies the exactness invariant: the query equals the
// brute-force top-min(t, s) of every key generated so far.
func checkExactTopS(t *testing.T, coord *Coordinator, rec *Recorder, step int) {
	t.Helper()
	q := coord.Query()
	wantSize := rec.Len()
	if wantSize > coord.Config().S {
		wantSize = coord.Config().S
	}
	if len(q) != wantSize {
		t.Fatalf("step %d: query size %d, want %d", step, len(q), wantSize)
	}
	want := rec.TopIDs(coord.Config().S)
	got := sampleIDs(q)
	for id := range want {
		if !got[id] {
			t.Fatalf("step %d: top-key item %d missing from query", step, id)
		}
	}
	for i := 1; i < len(q); i++ {
		if q[i].Key > q[i-1].Key {
			t.Fatalf("step %d: query not sorted desc", step)
		}
	}
}

func TestExactTopSInvariantEveryStep(t *testing.T) {
	workloads := map[string]stream.WeightFn{
		"unit":      stream.UnitWeights(),
		"uniform":   stream.UniformWeights(100),
		"pareto":    stream.ParetoWeights(1.1),
		"heavyhead": stream.HeavyHeadWeights(3, 1e8),
		"geometric": stream.GeometricWeights(0.3),
	}
	configs := []Config{
		{K: 1, S: 1}, {K: 3, S: 2}, {K: 4, S: 8}, {K: 16, S: 2},
	}
	for name, wf := range workloads {
		for _, cfg := range configs {
			rec := NewRecorder()
			cl, coord := newTestCluster(cfg, 1000+uint64(cfg.K*31+cfg.S), rec)
			g := stream.NewGenerator(300, cfg.K, wf, stream.RoundRobin(cfg.K))
			rng := xrand.New(7)
			g.Reset()
			step := 0
			for {
				u, ok := g.Next(rng)
				if !ok {
					break
				}
				if err := cl.Feed(u.Site, u.Item); err != nil {
					t.Fatalf("%s cfg=%+v: feed error %v", name, cfg, err)
				}
				step++
				if rec.Len() != step {
					t.Fatalf("%s cfg=%+v step %d: %d keys recorded", name, cfg, step, rec.Len())
				}
				checkExactTopS(t, coord, rec, step)
			}
		}
	}
}

func TestExactTopSInvariantAblations(t *testing.T) {
	// The sample stays exact with level sets or epochs disabled — only
	// message complexity changes.
	for _, cfg := range []Config{
		{K: 4, S: 4, DisableLevelSets: true},
		{K: 4, S: 4, DisableEpochs: true},
		{K: 4, S: 4, DisableLevelSets: true, DisableEpochs: true},
	} {
		rec := NewRecorder()
		cl, coord := newTestCluster(cfg, 55, rec)
		g := stream.NewGenerator(300, cfg.K, stream.HeavyHeadWeights(3, 1e7), stream.RoundRobin(cfg.K))
		rng := xrand.New(8)
		g.Reset()
		step := 0
		for {
			u, ok := g.Next(rng)
			if !ok {
				break
			}
			if err := cl.Feed(u.Site, u.Item); err != nil {
				t.Fatal(err)
			}
			step++
			checkExactTopS(t, coord, rec, step)
		}
	}
}

func TestExactTopSLargeStreamCheckpoints(t *testing.T) {
	cfg := Config{K: 8, S: 16}
	rec := NewRecorder()
	cl, coord := newTestCluster(cfg, 77, rec)
	g := stream.NewGenerator(20000, cfg.K, stream.ParetoWeights(1.2), stream.RandomSites(cfg.K))
	rng := xrand.New(9)
	g.Reset()
	step := 0
	for {
		u, ok := g.Next(rng)
		if !ok {
			break
		}
		if err := cl.Feed(u.Site, u.Item); err != nil {
			t.Fatal(err)
		}
		step++
		if step%977 == 0 {
			checkExactTopS(t, coord, rec, step)
		}
	}
	checkExactTopS(t, coord, rec, step)
}

func TestThresholdSafetyAndMonotonicity(t *testing.T) {
	cfg := Config{K: 5, S: 3}
	master := xrand.New(4)
	coord := NewCoordinator(cfg, master.Split())
	var rawSites []*Site
	sites := make([]netsim.Site[Message], cfg.K)
	for i := 0; i < cfg.K; i++ {
		s := NewSite(i, cfg, master.Split())
		rawSites = append(rawSites, s)
		sites[i] = s
	}
	cl := netsim.NewCluster[Message](coord, sites)
	g := stream.NewGenerator(4000, cfg.K, stream.UniformWeights(50), stream.RandomSites(cfg.K))
	rng := xrand.New(10)
	g.Reset()
	prevU := 0.0
	for {
		u, ok := g.Next(rng)
		if !ok {
			break
		}
		if err := cl.Feed(u.Site, u.Item); err != nil {
			t.Fatal(err)
		}
		if coord.U() < prevU {
			t.Fatalf("u decreased: %v -> %v", prevU, coord.U())
		}
		prevU = coord.U()
		for _, s := range rawSites {
			if s.Threshold() > coord.U()+1e-12 && coord.U() > 0 {
				t.Fatalf("site threshold %v exceeds u %v", s.Threshold(), coord.U())
			}
			if s.Threshold() != coord.CurrentThreshold() {
				t.Fatalf("site threshold %v out of sync with coordinator %v (synchronous runtime)",
					s.Threshold(), coord.CurrentThreshold())
			}
		}
	}
	if coord.U() == 0 {
		t.Fatal("u never advanced on a 4000-item stream")
	}
}

func TestDistributionMatchesExactSWOR(t *testing.T) {
	// Full-protocol inclusion frequencies vs the exact sequential-SWOR
	// oracle (Definition 1), exercising level sets, epochs and filtering.
	weights := []float64{1, 2, 4, 8, 16}
	want := sample.InclusionProbs(weights, 2)
	cfg := Config{K: 3, S: 2}
	const trials = 40000
	counts := make([]float64, len(weights))
	for tr := 0; tr < trials; tr++ {
		cl, coord := newTestCluster(cfg, uint64(tr)*2654435761+17, nil)
		for i, w := range weights {
			if err := cl.Feed(i%cfg.K, stream.Item{ID: uint64(i), Weight: w}); err != nil {
				t.Fatal(err)
			}
		}
		for id := range sampleIDs(coord.Query()) {
			counts[id]++
		}
	}
	for i := range counts {
		got := counts[i] / trials
		sigma := math.Sqrt(want[i] * (1 - want[i]) / trials)
		if math.Abs(got-want[i]) > 5*sigma+1e-9 {
			t.Errorf("inclusion[%d] = %v, want %v (5 sigma = %v)", i, got, want[i], 5*sigma)
		}
	}
}

func TestDistributionUnweightedCase(t *testing.T) {
	// Unit weights: every size-s subset equally likely; inclusion = s/n.
	cfg := Config{K: 4, S: 3}
	const n, trials = 9, 30000
	counts := make([]float64, n)
	for tr := 0; tr < trials; tr++ {
		cl, coord := newTestCluster(cfg, uint64(tr)*7919+3, nil)
		for i := 0; i < n; i++ {
			if err := cl.Feed(i%cfg.K, stream.Item{ID: uint64(i), Weight: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for id := range sampleIDs(coord.Query()) {
			counts[id]++
		}
	}
	want := 3.0 / 9.0
	sigma := math.Sqrt(want * (1 - want) / trials)
	for i := range counts {
		got := counts[i] / trials
		if math.Abs(got-want) > 5.5*sigma {
			t.Errorf("unweighted inclusion[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestMessageComplexityUnitWeights(t *testing.T) {
	cfg := Config{K: 16, S: 8}
	cl, _ := newTestCluster(cfg, 5, nil)
	const n = 50000
	g := stream.NewGenerator(n, cfg.K, stream.UnitWeights(), stream.RoundRobin(cfg.K))
	if err := cl.Run(g, xrand.New(11)); err != nil {
		t.Fatal(err)
	}
	total := cl.Stats.Total()
	// Theorem 3 bound with generous constant: ~ 4rs log(W/s)/log(r) + k
	// per epoch. For unit weights W = n.
	r := cfg.R()
	bound := 40 * (4*r*float64(cfg.S) + float64(cfg.K)) * math.Log(float64(n)/float64(cfg.S)) / math.Log(r)
	if float64(total) > bound {
		t.Errorf("total messages %d exceed generous Theorem 3 envelope %v", total, bound)
	}
	if total < 50 {
		t.Errorf("suspiciously few messages: %d", total)
	}
	if float64(total) > float64(n)/4 {
		t.Errorf("messages %d not sublinear in n = %d", total, n)
	}
}

func TestAblationEpochsOffSendsEverything(t *testing.T) {
	cfg := Config{K: 8, S: 4, DisableEpochs: true}
	cl, _ := newTestCluster(cfg, 6, nil)
	const n = 20000
	g := stream.NewGenerator(n, cfg.K, stream.UnitWeights(), stream.RoundRobin(cfg.K))
	if err := cl.Run(g, xrand.New(12)); err != nil {
		t.Fatal(err)
	}
	if cl.Stats.Upstream < int64(n) {
		t.Errorf("epoch ablation sent %d upstream messages, want >= %d (every item)", cl.Stats.Upstream, n)
	}
}

func TestLevelSetOverheadBounded(t *testing.T) {
	// Level sets are the price of the worst-case Theorem 3 proof (they
	// enforce w_i <= W_(i-1)/(4s) for every released item, which the tail
	// bound of Proposition 3 needs). On any one stream their overhead is
	// at most one early message per withheld slot plus one broadcast per
	// saturated level: total <= (#levels touched) * (cap + k). Verify
	// that envelope on a heavy-head stream, and that both variants stay
	// within the Theorem 3 shape.
	const n = 30000
	mk := func(disable bool) (int64, *Coordinator) {
		cfg := Config{K: 8, S: 4, DisableLevelSets: disable}
		cl, coord := newTestCluster(cfg, 7, nil)
		g := stream.NewGenerator(n, cfg.K, stream.HeavyHeadWeights(3, 1e12), stream.RoundRobin(cfg.K))
		if err := cl.Run(g, xrand.New(13)); err != nil {
			t.Fatal(err)
		}
		return cl.Stats.Total(), coord
	}
	with, coord := mk(false)
	without, _ := mk(true)
	t.Logf("heavy-head messages: with level sets %d, without %d", with, without)
	cfg := Config{K: 8, S: 4}
	// Levels touched: level 0 (the 30k unit items) and the giants' level.
	maxOverhead := int64(2*(cfg.LevelCap()+cfg.K)) + int64(coord.Stats.Saturations)*int64(cfg.K)
	if with > without+2*maxOverhead {
		t.Errorf("level-set overhead too large: %d vs %d (+%d allowed)", with, without, 2*maxOverhead)
	}
	// Both sublinear in n.
	if float64(with) > float64(n)/10 || float64(without) > float64(n)/10 {
		t.Errorf("message counts not sublinear: with=%d without=%d n=%d", with, without, n)
	}
}

func TestQuerySizeMinTS(t *testing.T) {
	cfg := Config{K: 2, S: 10}
	cl, coord := newTestCluster(cfg, 8, nil)
	for i := 0; i < 25; i++ {
		if err := cl.Feed(i%2, stream.Item{ID: uint64(i), Weight: float64(1 + i)}); err != nil {
			t.Fatal(err)
		}
		wantSize := i + 1
		if wantSize > 10 {
			wantSize = 10
		}
		if got := len(coord.Query()); got != wantSize {
			t.Fatalf("after %d items query size = %d, want %d", i+1, got, wantSize)
		}
	}
}

func TestSthKey(t *testing.T) {
	cfg := Config{K: 2, S: 5}
	cl, coord := newTestCluster(cfg, 9, nil)
	if _, ok := coord.SthKey(); ok {
		t.Fatal("SthKey ok before s items")
	}
	for i := 0; i < 20; i++ {
		if err := cl.Feed(i%2, stream.Item{ID: uint64(i), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	key, ok := coord.SthKey()
	if !ok || key <= 0 {
		t.Fatalf("SthKey = (%v, %v)", key, ok)
	}
	q := coord.Query()
	if key != q[len(q)-1].Key {
		t.Fatalf("SthKey %v != smallest query key %v", key, q[len(q)-1].Key)
	}

	// Rows against a sorted reference of every held key, built by
	// driving the coordinator directly: regular messages fill S with
	// the given keys; early messages of one unsaturated level land in
	// the withheld pool with coordinator-drawn keys.
	rows := []struct {
		name    string
		regular []float64
		early   int
	}{
		{"empty", nil, 0},
		{"fewer than s", []float64{4, 2, 9}, 0},
		{"exactly s", []float64{4, 2, 9, 7, 1}, 0},
		{"S full with a withheld pool", []float64{4, 2, 9, 7, 1}, 3},
	}
	for _, r := range rows {
		c := NewCoordinator(cfg, xrand.New(3))
		for i, k := range r.regular {
			c.HandleMessage(Message{Kind: MsgRegular, Key: k, Item: stream.Item{ID: uint64(i), Weight: 1}}, func(Message) {})
		}
		for i := 0; i < r.early; i++ {
			c.HandleMessage(Message{Kind: MsgEarly, Item: stream.Item{ID: uint64(100 + i), Weight: 3}}, func(Message) {})
		}
		if r.early > 0 && (c.WithheldCount() == 0 || !c.smp.Full()) {
			t.Fatalf("%s: S full %v, withheld %d", r.name, c.smp.Full(), c.WithheldCount())
		}
		var keys []float64
		for _, e := range c.Snapshot(nil) {
			keys = append(keys, e.Key)
		}
		slices.SortFunc(keys, func(a, b float64) int { return cmp.Compare(b, a) })
		got, ok := c.SthKey()
		if len(keys) < cfg.S {
			if ok {
				t.Errorf("%s: SthKey = (%v, true) with %d keys held", r.name, got, len(keys))
			}
			continue
		}
		if want := keys[cfg.S-1]; !ok || got != want {
			t.Errorf("%s: SthKey = (%v, %v), want (%v, true)", r.name, got, ok, want)
		}
		if r.early > 0 && got == c.U() {
			t.Errorf("%s: s-th key %v is u itself; the row does not exercise the pool", r.name, got)
		}
	}
}

func TestSiteRejectsInvalidWeights(t *testing.T) {
	cfg := Config{K: 1, S: 1}
	site := NewSite(0, cfg, xrand.New(1))
	for _, w := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if err := site.Observe(stream.Item{Weight: w}, func(Message) {}); err == nil {
			t.Errorf("weight %v accepted", w)
		}
		if err := site.ObserveRepeated(stream.Item{Weight: w}, 3, func(Message) {}); err == nil {
			t.Errorf("repeated weight %v accepted", w)
		}
	}
}

func TestObserveRepeatedMatchesLoop(t *testing.T) {
	// The batched duplication path must produce statistically identical
	// message counts and s-th key estimates to the naive loop.
	cfg := Config{K: 4, S: 8}
	const items, copies = 200, 50
	run := func(batched bool, seed uint64) (int64, float64) {
		cl, coord := newTestCluster(cfg, seed, nil)
		rng := xrand.New(seed ^ 0xabcdef)
		for i := 0; i < items; i++ {
			it := stream.Item{ID: uint64(i), Weight: 1 + rng.Float64()*9}
			site := i % cfg.K
			var err error
			if batched {
				err = cl.FeedRepeated(site, it, copies)
			} else {
				for cpy := 0; cpy < copies; cpy++ {
					if err = cl.Feed(site, it); err != nil {
						break
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		key, _ := coord.SthKey()
		return cl.Stats.Upstream, key
	}
	const reps = 150
	var msgsB, msgsL, keyB, keyL []float64
	for i := 0; i < reps; i++ {
		mb, kb := run(true, uint64(1000+i))
		ml, kl := run(false, uint64(5000+i))
		msgsB = append(msgsB, float64(mb))
		msgsL = append(msgsL, float64(ml))
		keyB = append(keyB, kb)
		keyL = append(keyL, kl)
	}
	// Welch-style comparison: means must agree within 4.5 pooled standard
	// errors (both paths realize the same distribution).
	welch := func(name string, a, b []float64) {
		ma, mb := mean(a), mean(b)
		se := math.Sqrt(variance(a)/float64(len(a)) + variance(b)/float64(len(b)))
		if math.Abs(ma-mb) > 4.5*se {
			t.Errorf("%s: batched mean %v vs loop mean %v (4.5 SE = %v)", name, ma, mb, 4.5*se)
		}
	}
	welch("upstream messages", msgsB, msgsL)
	welch("s-th key", keyB, keyL)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func variance(xs []float64) float64 {
	m := mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return s / float64(len(xs)-1)
}

func TestCoordinatorMemoryIsBounded(t *testing.T) {
	// Proposition 6: the withheld pool never exceeds s entries.
	cfg := Config{K: 4, S: 6}
	cl, coord := newTestCluster(cfg, 21, nil)
	g := stream.NewGenerator(20000, cfg.K, stream.ParetoWeights(0.8), stream.RandomSites(cfg.K))
	rng := xrand.New(22)
	g.Reset()
	for {
		u, ok := g.Next(rng)
		if !ok {
			break
		}
		if err := cl.Feed(u.Site, u.Item); err != nil {
			t.Fatal(err)
		}
		if coord.WithheldCount() > cfg.S {
			t.Fatalf("withheld pool grew to %d > s = %d", coord.WithheldCount(), cfg.S)
		}
	}
}

func TestSaturatedLevelsReported(t *testing.T) {
	cfg := Config{K: 2, S: 2}
	cl, coord := newTestCluster(cfg, 23, nil)
	// Unit weights all land in level 0; cap = max(8s, 4k) = 16.
	for i := 0; i < 100; i++ {
		if err := cl.Feed(i%2, stream.Item{ID: uint64(i), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	levels := coord.SaturatedLevels()
	if len(levels) != 1 || levels[0] != 0 {
		t.Fatalf("saturated levels = %v, want [0]", levels)
	}
	if coord.Stats.Saturations != 1 {
		t.Fatalf("saturations = %d", coord.Stats.Saturations)
	}
}
