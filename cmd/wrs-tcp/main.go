// Command wrs-tcp demonstrates the protocol over real TCP: it builds an
// application's protocol instances from its wrs descriptor, starts them
// on the TCP runtime (coordinator server on loopback plus k site client
// connections), streams weighted items through it concurrently, and
// prints the application's answer plus traffic counts.
//
// Every application runs over the same transport:
//
//	wrs-tcp -k 8 -s 10 -n 200000              # plain weighted SWOR
//	wrs-tcp -app hh -eps 0.1 -delta 0.1       # residual heavy hitters
//	wrs-tcp -app l1 -eps 0.25 -delta 0.3      # (1±eps) L1 tracking
//	wrs-tcp -app quantile -eps 0.15           # weight-CDF / rank quantiles
//	wrs-tcp -app window -width 2000           # sliding-window SWOR
//	wrs-tcp -shards 4                         # 4-way sharded fabric
//	wrs-tcp -k 64 -tree fanout=4,depth=2      # hierarchical relay tree
//
// With -shards > 1 the one server hosts P protocol shards behind
// per-shard ingest locks and each of the k connections multiplexes all
// shards with shard-tagged frames; queries merge per-shard state
// exactly. With -batch > 1 the sites feed through FeedBatch, coalescing
// protocol messages into multi-message frames (the high-throughput
// path); -batch 1 sends one frame per message.
//
// With -tree fanout=F,depth=D the sites connect through D tiers of
// aggregation relays instead of directly to the coordinator: the root
// terminates min(F, k) connections instead of k and each relay locally
// pre-filters its subtree's candidates, so k scales to the thousands.
// The answer is unchanged — relays only drop messages the coordinator
// would drop on arrival.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"wrs"
	"wrs/internal/fabric"
	"wrs/internal/netsim"
	"wrs/internal/relay"
	rt "wrs/internal/runtime"
	"wrs/internal/stream"
	"wrs/internal/transport"
	"wrs/internal/xrand"
)

func fatal(v ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"wrs-tcp:"}, v...)...)
	os.Exit(1)
}

// demo is one run's shape, from the flags.
type demo struct {
	app                                string
	k, n, batch, shards, fanout, depth int
	seed                               uint64
}

func main() {
	k := flag.Int("k", 8, "number of sites")
	s := flag.Int("s", 10, "sample size (swor app)")
	n := flag.Int("n", 200000, "total updates")
	batch := flag.Int("batch", 256, "updates per FeedBatch call (1 = unbatched)")
	seed := flag.Uint64("seed", 1, "random seed")
	app := flag.String("app", "swor", "application: swor, hh, l1, quantile, window")
	eps := flag.Float64("eps", 0.1, "accuracy parameter (hh, l1 apps)")
	delta := flag.Float64("delta", 0.1, "failure probability (hh, l1 apps)")
	width := flag.Int("width", 2000, "sub-stream window width in items (window app)")
	shards := flag.Int("shards", 1, "protocol shards (parallel coordinator locks, exact merged query)")
	tree := flag.String("tree", "", "relay tree shape, e.g. fanout=4,depth=2 (empty = flat)")
	flag.Parse()
	if *n < 1 {
		fatal(fmt.Sprintf("need at least 1 update (-n), got %d", *n))
	}
	if *batch < 1 {
		*batch = 1
	}
	if err := fabric.Validate(*shards); err != nil {
		fatal(err)
	}
	fanout, depth, err := parseTree(*tree)
	if err != nil {
		fatal(err)
	}
	d := demo{app: *app, k: *k, n: *n, batch: *batch, shards: *shards, fanout: fanout, depth: depth, seed: *seed}

	// Each case names the application's descriptor — the one that Open
	// uses, so the instances and their RNG split order are Open's — and
	// prints its answer.
	switch *app {
	case "swor":
		run(d, wrs.Sampler(*k, *s), func(sample []wrs.Sampled, _ int, _ float64) {
			fmt.Println("\nsample (id, weight, key):")
			for _, e := range sample {
				fmt.Printf("  %8d  w=%-12.3f key=%.4g\n", e.Item.ID, e.Item.Weight, e.Key)
			}
		})
	case "hh":
		run(d, wrs.HeavyHitters(*k, *eps, *delta), func(items []wrs.Item, s int, _ float64) {
			fmt.Printf("\nresidual heavy-hitter candidates (top %d by weight, s=%d):\n", len(items), s)
			for i, it := range items {
				if i >= 10 {
					fmt.Printf("  ... and %d more\n", len(items)-10)
					break
				}
				fmt.Printf("  %8d  w=%.3f\n", it.ID, it.Weight)
			}
		})
	case "l1":
		run(d, wrs.L1(*k, *eps, *delta), func(est float64, s int, totalW float64) {
			fmt.Printf("\nL1 estimate: %.1f  true: %.1f  relative error: %.2f%% (eps=%v, s=%d)\n",
				est, totalW, 100*math.Abs(est-totalW)/totalW, *eps, s)
		})
	case "quantile":
		run(d, wrs.Quantiles(*k, *eps, *delta), func(q wrs.QuantileEstimate, s int, totalW float64) {
			fmt.Printf("\nweight-CDF estimate (s=%d, %d support points):\n", s, q.Support())
			fmt.Printf("  total weight: est %.1f  true %.1f  relative error %.2f%%\n",
				q.Total(), totalW, 100*math.Abs(q.Total()-totalW)/totalW)
			for _, phi := range []float64{0.25, 0.5, 0.9, 0.99} {
				x, _ := q.Quantile(phi)
				fmt.Printf("  q%-4g  weight <= %.3f\n", 100*phi, x)
			}
		})
	case "window":
		run(d, wrs.Windowed(*k, *s, *width), func(w wrs.WindowSample, _ int, _ float64) {
			fmt.Printf("\nsliding-window sample (width %d per sub-stream; %d live, %d retained):\n",
				*width, w.Window, w.Retained)
			for _, e := range w.Items {
				fmt.Printf("  %8d  w=%-12.3f key=%.4g\n", e.Item.ID, e.Item.Weight, e.Key)
			}
		})
	default:
		fmt.Fprintf(os.Stderr, "wrs-tcp: unknown app %q\n", *app)
		os.Exit(2)
	}
}

// run builds app's instances, starts them on the flat or relay-tree TCP
// runtime, streams d.n updates from k concurrent sites, and prints the
// traffic counts. It then hands report the app's answer, the sample
// size s and the true total weight.
func run[Q any](d demo, app wrs.App[Q], report func(answer Q, s int, totalW float64)) {
	insts, err := app.Instances(d.k, d.shards, xrand.New(d.seed))
	if err != nil {
		fatal(err)
	}
	factory := rt.TCP("127.0.0.1:0")
	if d.depth > 0 {
		factory = rt.TCPTree("127.0.0.1:0", d.fanout, d.depth)
	}
	cluster, err := factory(insts)
	if err != nil {
		fatal(err)
	}
	tree, isTree := cluster.(*relay.TreeCluster)
	var flat *transport.Cluster
	if isTree {
		flat = tree.Cluster
		fmt.Printf("coordinator listening on %s, %d sites via relay tree fanout=%d depth=%d (root conns %d, union merge %v), app=%s, shards=%d\n",
			flat.Addr(), d.k, d.fanout, d.depth, tree.RootConns(), tree.UnionMerge(), d.app, d.shards)
	} else {
		flat = cluster.(*transport.Cluster)
		fmt.Printf("coordinator listening on %s, %d sites connected, app=%s, shards=%d\n",
			flat.Addr(), d.k, d.app, d.shards)
	}

	start := time.Now()
	per, extra := d.n/d.k, d.n%d.k
	weights := make([]float64, d.k) // per-site true totals (l1, quantile reports)
	var wg sync.WaitGroup
	errCh := make(chan error, d.k)
	for i := 0; i < d.k; i++ {
		// Site i streams per items, one more while i < extra, with IDs
		// first, first+1, ...: the sites' ID ranges are disjoint.
		count, first := per, i*per+min(i, extra)
		if i < extra {
			count++
		}
		wg.Add(1)
		go func(site, first, count int) {
			defer wg.Done()
			rng := xrand.New(d.seed + uint64(site)*7919)
			items := make([]stream.Item, 0, d.batch)
			for j := 0; j < count; j++ {
				w := rng.Pareto(1.2)
				weights[site] += w
				items = append(items, stream.Item{ID: uint64(first + j), Weight: w})
				if len(items) == d.batch || j == count-1 {
					if err := cluster.FeedBatch(site, items); err != nil {
						errCh <- fmt.Errorf("site %d: %w", site, err)
						return
					}
					items = items[:0]
				}
			}
		}(i, first, count)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		fatal(err)
	default:
	}
	if err := cluster.Flush(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	var pings, waits int64
	var totalW float64
	for i := 0; i < d.k; i++ {
		pings += flat.Client(i).FlowPings()
		waits += flat.Client(i).FlowWaits()
		totalW += weights[i]
	}
	stats := cluster.Stats()
	fmt.Printf("\nstreamed %d updates in %v (%.0f updates/sec)\n",
		d.n, elapsed.Round(time.Millisecond), float64(d.n)/elapsed.Seconds())
	fmt.Printf("traffic: %d upstream messages (%.4f/update), %d broadcast deliveries, %d flow pings, %d flow waits\n",
		stats.Upstream, float64(stats.Upstream)/float64(d.n), stats.Downstream, pings, waits)
	if isTree {
		fmt.Printf("tree: root edge %d messages (%.4f/update) over %d root conns\n",
			tree.RootUpstream(), float64(tree.RootUpstream())/float64(d.n), tree.RootConns())
		for t, ts := range tree.TierStats() {
			fmt.Printf("  tier %d: %d relays, %d forwarded, %d filtered, %d fanned down\n",
				t, ts.Nodes, ts.Forwarded, ts.Filtered, ts.DownMessages)
		}
	}
	srv := flat.Server()
	st := srv.Stats()
	fmt.Printf("coordinator: %d early, %d regular, %d saturations, %d epoch advances, %d pre-filtered\n",
		st.EarlyMsgs, st.RegularMsgs, st.Saturations, st.EpochAdvances, srv.PreFiltered())

	report(app.Query(views{cluster}), insts[0].Cfg.S, totalW)

	if err := cluster.Close(); err != nil {
		fatal(err)
	}
}

// views is the wrs.Snapshots an app's query reads through: each shard
// under its own ingest lock while the others keep ingesting.
type views struct{ rt.ShardedRuntime }

func (v views) View(p int, fn func()) { v.DoShard(p, fn) }

// parseTree parses the -tree flag: empty means flat, otherwise
// "fanout=F,depth=D" in either order.
func parseTree(s string) (fanout, depth int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return 0, 0, fmt.Errorf("bad -tree component %q (want fanout=F,depth=D)", part)
		}
		v, convErr := strconv.Atoi(val)
		if convErr != nil {
			return 0, 0, fmt.Errorf("bad -tree value %q: %v", part, convErr)
		}
		switch key {
		case "fanout":
			fanout = v
		case "depth":
			depth = v
		default:
			return 0, 0, fmt.Errorf("unknown -tree key %q (want fanout=F,depth=D)", key)
		}
	}
	if depth == 0 {
		return 0, 0, fmt.Errorf("-tree %q: depth must be >= 1 (omit -tree for the flat topology)", s)
	}
	if err := netsim.ValidateTree(fanout, depth); err != nil {
		return 0, 0, err
	}
	return fanout, depth, nil
}
