package bench

import (
	"wrs/internal/core"
	"wrs/internal/stream"
)

func init() {
	register(Experiment{
		ID:    "A4",
		Title: "Ablation: partitioner sensitivity (adversarial interleavings)",
		Run: func(quick bool) *Table {
			t := &Table{
				ID:         "A4",
				Title:      "Messages across site assignments (Section 2.1: the adversary picks the interleaving)",
				PaperClaim: "The Theorem 3 bound is worst-case over interleavings: message counts must stay in the same regime for round-robin, random, contiguous and single-site partitions.",
				Headers:    []string{"partition", "messages", "vs round-robin"},
			}
			n := 100000
			if quick {
				n = 30000
			}
			cfg := core.Config{K: 16, S: 8}
			parts := []struct {
				name string
				af   stream.AssignFn
			}{
				{"round-robin", stream.RoundRobin(cfg.K)},
				{"random", stream.RandomSites(cfg.K)},
				{"contiguous", stream.Contiguous(cfg.K, n)},
				{"single-site", stream.SingleSite()},
			}
			base := 0.0
			for _, p := range parts {
				msgs := avgCoreMessages(cfg, n, 3, stream.UniformWeights(10), p.af, 4001)
				if p.name == "round-robin" {
					base = msgs
				}
				t.AddRow(p.name, f1(msgs), f2(msgs/base))
			}
			return t
		},
	})
}
