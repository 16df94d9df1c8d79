package core

import (
	"math"
	"reflect"
	"testing"

	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// feedPrefix drives n generator steps into the cluster.
func feedPrefix(t *testing.T, cl interface {
	Feed(int, stream.Item) error
}, g *stream.Generator, rng *xrand.RNG, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		u, ok := g.Next(rng)
		if !ok {
			t.Fatalf("generator exhausted at step %d", i)
		}
		if err := cl.Feed(u.Site, u.Item); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExportRestoreRoundTrip checks that a restored coordinator is
// observably identical to the one it was exported from: same query,
// same statistics, and a snapshot of the restored machine equals the
// original snapshot.
func TestExportRestoreRoundTrip(t *testing.T) {
	cfg := Config{K: 4, S: 6}
	cl, coord := newTestCluster(cfg, 20260807, nil)
	g := stream.NewGenerator(400, cfg.K, stream.ParetoWeights(1.2), stream.RoundRobin(cfg.K))
	feedPrefix(t, cl, g, xrand.New(11), 400)

	st := coord.ExportState()
	if err := st.Validate(); err != nil {
		t.Fatalf("exported state invalid: %v", err)
	}
	restored, err := RestoreCoordinator(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Query(), coord.Query()) {
		t.Error("restored query differs from original")
	}
	if restored.Stats != coord.Stats {
		t.Errorf("restored stats %+v, want %+v", restored.Stats, coord.Stats)
	}
	if !reflect.DeepEqual(restored.ExportState(), st) {
		t.Error("re-exported state differs from original snapshot")
	}
}

// TestRestoredCoordinatorResumesBitExact is the contract the chaos
// harness relies on: snapshot the coordinator mid-stream, replace it
// with a restored copy, keep feeding — the final sample, query order
// and coordinator statistics must be bit-identical to the uninterrupted
// run. Covers several stream shapes so epochs and level saturation both
// trigger before and after the snapshot point.
func TestRestoredCoordinatorResumesBitExact(t *testing.T) {
	workloads := map[string]stream.WeightFn{
		"uniform":   stream.UniformWeights(50),
		"pareto":    stream.ParetoWeights(1.1),
		"heavyhead": stream.HeavyHeadWeights(5, 1e9),
	}
	cfg := Config{K: 5, S: 4}
	const n, cut = 600, 233
	for name, wf := range workloads {
		t.Run(name, func(t *testing.T) {
			seed := uint64(900 + len(name))
			clA, coordA := newTestCluster(cfg, seed, nil)
			clB, coordB := newTestCluster(cfg, seed, nil)
			gA := stream.NewGenerator(n, cfg.K, wf, stream.RandomSites(cfg.K))
			gB := stream.NewGenerator(n, cfg.K, wf, stream.RandomSites(cfg.K))
			rngA, rngB := xrand.New(77), xrand.New(77)

			feedPrefix(t, clA, gA, rngA, cut)
			feedPrefix(t, clB, gB, rngB, cut)

			// Kill coordinator B and bring up a restored replacement.
			restored, err := RestoreCoordinator(coordB.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			clB.Coord = restored

			feedPrefix(t, clA, gA, rngA, n-cut)
			feedPrefix(t, clB, gB, rngB, n-cut)

			qA, qB := coordA.Query(), restored.Query()
			if !reflect.DeepEqual(qA, qB) {
				t.Fatalf("resumed query differs from uninterrupted run:\nA: %v\nB: %v", qA, qB)
			}
			if coordA.Stats != restored.Stats {
				t.Errorf("resumed stats %+v, want %+v", restored.Stats, coordA.Stats)
			}
			if clA.Stats != clB.Stats {
				t.Errorf("resumed network stats %+v, want %+v", clB.Stats, clA.Stats)
			}
		})
	}
}

// TestValidateRejectsCorruptSnapshots exercises each structural check.
func TestValidateRejectsCorruptSnapshots(t *testing.T) {
	base := func() *CoordinatorState {
		cl, coord := newTestCluster(Config{K: 3, S: 2}, 5, nil)
		g := stream.NewGenerator(120, 3, stream.UniformWeights(10), stream.RoundRobin(3))
		feedPrefix(t, cl, g, xrand.New(3), 120)
		return coord.ExportState()
	}
	cases := []struct {
		name    string
		corrupt func(*CoordinatorState)
	}{
		{"bad config", func(st *CoordinatorState) { st.Cfg.S = 0 }},
		{"zero rng", func(st *CoordinatorState) { st.RNG = [4]uint64{} }},
		{"oversized sample", func(st *CoordinatorState) {
			st.Sample = append(st.Sample, st.Sample...)
			st.Sample = append(st.Sample, st.Sample...)
		}},
		{"oversized pool", func(st *CoordinatorState) {
			for i := 0; i < st.Cfg.S+1; i++ {
				st.Pool = append(st.Pool, PoolEntryState{Key: 0.1, Item: stream.Item{ID: uint64(i), Weight: 1}})
			}
		}},
		{"negative level", func(st *CoordinatorState) {
			st.Levels = append([]LevelStateEntry{{Level: -1, Count: 1}}, st.Levels...)
		}},
		{"unsorted levels", func(st *CoordinatorState) {
			st.Levels = append(st.Levels, LevelStateEntry{Level: 0, Count: 1})
		}},
		{"negative count", func(st *CoordinatorState) {
			st.Levels = []LevelStateEntry{{Level: 0, Count: -3}}
		}},
		{"level above MaxLevel", func(st *CoordinatorState) {
			st.Levels = append(st.Levels, LevelStateEntry{Level: MaxLevel + 1, Count: 1, Saturated: true})
		}},
		{"NaN threshold", func(st *CoordinatorState) { st.Threshold = math.NaN() }},
		{"negative threshold", func(st *CoordinatorState) { st.Threshold = -5 }},
		{"infinite threshold", func(st *CoordinatorState) { st.Threshold = math.Inf(1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := base()
			c.corrupt(st)
			if err := st.Validate(); err == nil {
				t.Error("corrupt snapshot accepted")
			}
			if _, err := RestoreCoordinator(st); err == nil {
				t.Error("RestoreCoordinator accepted corrupt snapshot")
			}
		})
	}
}

// TestExportStateValidUnderExtremeWeights feeds the heaviest weights a
// message can carry: the checkpoint still names no level above
// MaxLevel and no threshold that is not finite, so it validates and
// restores.
func TestExportStateValidUnderExtremeWeights(t *testing.T) {
	cfg := Config{K: 2, S: 2}
	c := NewCoordinator(cfg, xrand.New(31))
	var bcasts []Message
	bcast := func(m Message) { bcasts = append(bcasts, m) }
	for i := 0; i < cfg.LevelCap()+4; i++ {
		w := math.MaxFloat64
		if i%2 == 1 {
			w = math.Inf(1)
		}
		c.HandleMessage(Message{Kind: MsgEarly, Item: stream.Item{ID: uint64(i), Weight: w}}, bcast)
	}
	if lv := c.SaturatedLevels(); len(lv) != 1 || lv[0] != MaxLevel {
		t.Fatalf("saturated levels %v, want [%d]", lv, MaxLevel)
	}
	st := c.ExportState()
	if err := st.Validate(); err != nil {
		t.Fatalf("exported state invalid: %v", err)
	}
	restored, err := RestoreCoordinator(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.ExportState(), st) {
		t.Error("re-exported state differs from original snapshot")
	}
	if restored.ControlPlane() != c.ControlPlane() {
		t.Error("restored control plane differs")
	}
	var replay ControlPlane
	for _, m := range bcasts {
		replay.Apply(m)
	}
	if replay != c.ControlPlane() {
		t.Error("coordinator plane is not the fold of its broadcasts")
	}
}

// TestRestoredCoordinatorDrawsSameKeys pins the RNG half of the
// contract directly: the exponential variates a restored coordinator
// draws match the ones the original would have drawn.
func TestRestoredCoordinatorDrawsSameKeys(t *testing.T) {
	cl, coord := newTestCluster(Config{K: 2, S: 3}, 42, nil)
	g := stream.NewGenerator(200, 2, stream.GeometricWeights(0.4), stream.RoundRobin(2))
	feedPrefix(t, cl, g, xrand.New(9), 200)
	st := coord.ExportState()
	restored, err := RestoreCoordinator(st)
	if err != nil {
		t.Fatal(err)
	}
	a, b := xrand.NewFromState(coord.ExportState().RNG), xrand.NewFromState(restored.ExportState().RNG)
	for i := 0; i < 64; i++ {
		if x, y := a.Exp(), b.Exp(); math.Abs(x-y) != 0 {
			t.Fatalf("draw %d diverges: %v vs %v", i, x, y)
		}
	}
}
