package bench

import (
	"fmt"

	"wrs/internal/core"
	"wrs/internal/netsim"
	"wrs/internal/relay"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// runTreeCore drives one full-protocol run over a hierarchical relay
// tree (netsim deterministic runtime, relay filter machines with the
// top-s union merge on) and returns the cluster for inspection. Depth 0
// is the flat baseline.
func runTreeCore(cfg core.Config, fanout, depth, n int, wf stream.WeightFn, seed uint64) *netsim.Cluster[core.Message] {
	master := xrand.New(seed)
	coord := core.NewCoordinator(cfg, master.Split())
	sites := make([]netsim.Site[core.Message], cfg.K)
	for i := 0; i < cfg.K; i++ {
		sites[i] = core.NewSite(i, cfg, master.Split())
	}
	cl, err := netsim.NewTreeCluster[core.Message](coord, sites, fanout, depth,
		func(int, int) netsim.TreeRelay[core.Message] { return relay.NewMachine(cfg.S, true) })
	if err != nil {
		panic(err)
	}
	g := stream.NewGenerator(n, cfg.K, wf, stream.RoundRobin(cfg.K))
	if err := cl.Run(g, xrand.New(seed^0xD1B54A32D192ED03)); err != nil {
		panic(err)
	}
	return cl
}

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "Hierarchical relay fabric: root fan-in and up-tree traffic at k=1000",
		Run: func(quick bool) *Table {
			t := &Table{
				ID:    "E17",
				Title: "Tree vs flat at k=1000 (s=16, pareto-1.3 weights, round-robin)",
				PaperClaim: "The paper's coordinator terminates k connections; a relay tree built from the " +
					"same monotone control plane cuts root fan-in to min(fanout, k) while relays drop only " +
					"messages the coordinator would discard, so the site edge — the Theorem 3 quantity — is " +
					"bit-identical to flat and the root edge can only shrink.",
				Headers: []string{"topology", "root conns", "site msgs", "root msgs", "root/site",
					"up-tree msgs", "msgs/update", "tier filtered"},
			}
			n := 200000
			if quick {
				n = 40000
			}
			cfg := core.Config{K: 1000, S: 16}
			wf := stream.ParetoWeights(1.3)
			var flatSite int64
			for _, shape := range []struct {
				name          string
				fanout, depth int
			}{
				{"flat", 0, 0},
				{"fanout=2,depth=2", 2, 2},
				{"fanout=4,depth=2", 4, 2},
				{"fanout=32,depth=2", 32, 2},
			} {
				cl := runTreeCore(cfg, shape.fanout, shape.depth, n, wf, 1701)
				site := cl.Stats.Upstream
				if shape.depth == 0 {
					flatSite = site
				} else if site != flatSite {
					panic(fmt.Sprintf("tree %s site edge %d != flat %d: relays altered coordinator state",
						shape.name, site, flatSite))
				}
				upTree := site // the site->leaf (or site->root) edge
				filtered := ""
				for tier, st := range cl.TierStats() {
					upTree += st.Forwarded
					if tier > 0 {
						filtered += "+"
					}
					filtered += d(st.Filtered())
				}
				if filtered == "" {
					filtered = "-"
				}
				t.AddRow(shape.name, d(int64(cl.RootFanIn())), d(site), d(cl.RootUpstream()),
					f3(float64(cl.RootUpstream())/float64(site)),
					d(upTree), f3(float64(upTree)/float64(n)), filtered)
			}
			t.Notes = append(t.Notes,
				"site msgs is identical across topologies by construction (checked at run time): relays only drop messages the coordinator was going to drop, so coordinator state, broadcasts, and site decisions are bit-identical to flat.",
				"up-tree msgs counts every hop on every up edge (site->leaf plus each relay tier's forwards); with depth d it is at most (d+1)x the flat count and relay filtering keeps it well below that.",
				"tier filtered lists drops per tier, root's children first.")
			return t
		},
	})
}
