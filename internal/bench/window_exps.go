package bench

import (
	"fmt"

	"wrs/internal/core"
	"wrs/internal/netsim"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "E15",
		Title: "Windowed application: push-only distributed sliding-window SWOR across all layers",
		Run: func(quick bool) *Table {
			t := &Table{
				ID:         "E15",
				Title:      "Sequence-stamped windowed protocol: messages vs width (k=4, s=8, sequential runtime)",
				PaperClaim: "Posed as future work (Section 6); no bound is claimed. The push-only protocol sends only local-window top-s entries plus amortized clock advances, with zero broadcasts; upstream traffic should fall as width grows (≈ s·log(width)/width per update) and stay far below the send-everything baseline of 1.0.",
				Headers:    []string{"workload", "width", "msgs/update", "candidates", "clocks", "coord retained", "max site kept"},
			}
			n := 100000
			if quick {
				n = 30000
			}
			const k, s = 4, 8
			cfg := core.Config{K: k, S: s}
			for _, c := range []struct {
				name  string
				width int
				wf    stream.WeightFn
			}{
				{"uniform", 500, stream.UniformWeights(10)},
				{"uniform", 2000, stream.UniformWeights(10)},
				{"uniform", 8000, stream.UniformWeights(10)},
				{"pareto-1.2", 2000, stream.ParetoWeights(1.2)},
				{"heavy-head", 2000, stream.HeavyHeadWeights(20, 1e9)},
			} {
				master := xrand.New(1501)
				coord := core.NewWindowCoordinator(cfg, c.width, master.Split())
				sites := make([]*core.WindowSite, k)
				machines := make([]netsim.Site[core.Message], k)
				for i := 0; i < k; i++ {
					sites[i] = core.NewWindowSite(i, cfg, c.width, master.Split())
					machines[i] = sites[i]
				}
				cl := netsim.NewCluster[core.Message](coord, machines)
				rng := xrand.New(1502)
				for i := 0; i < n; i++ {
					it := stream.Item{ID: uint64(i), Weight: c.wf(i, rng)}
					if err := cl.Feed(i%k, it); err != nil {
						panic(err)
					}
				}
				if cl.Stats.Downstream != 0 {
					panic(fmt.Sprintf("windowed protocol broadcast %d messages", cl.Stats.Downstream))
				}
				var clocks int64
				maxKept := 0
				for _, st := range sites {
					clocks += st.Clocks
					if st.MaxKept > maxKept {
						maxKept = st.MaxKept
					}
				}
				t.AddRow(c.name, d(int64(c.width)),
					f3(float64(cl.Stats.Upstream)/float64(n)),
					d(coord.Stats.WindowMsgs), d(clocks),
					d(int64(coord.Retained())), d(int64(maxKept)))
			}
			t.Notes = append(t.Notes,
				"candidates+clocks = total upstream; downstream is always 0 (no broadcasts). A synchronous-round threshold protocol would need coordinator-driven flush rounds the runtime contract cannot express; the push-only protocol runs unchanged on every runtime and shard count.")
			return t
		},
	})
}
