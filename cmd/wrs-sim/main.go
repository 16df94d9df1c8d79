// Command wrs-sim runs one application of the protocol over a generated
// stream and prints its answer plus traffic statistics. It is the
// walkthrough for the plugin API: every application is opened through
// wrs.Open(app, ...) onto the same Handle surface, so one switch over
// -app is all the per-application code there is.
//
// Usage:
//
//	wrs-sim -k 16 -s 10 -n 100000 -workload zipf -seed 7
//	wrs-sim -runtime goroutines         # goroutine-per-site cluster
//	wrs-sim -runtime tcp                # real loopback TCP cluster
//	wrs-sim -shards 4                   # 4-way sharded protocol fabric
//	wrs-sim -app hh -eps 0.1 -delta 0.1 # residual heavy hitters
//	wrs-sim -app l1 -eps 0.2            # (1±eps) L1 tracking
//	wrs-sim -app quantile -eps 0.1      # weight-CDF / rank quantiles
//	wrs-sim -app window -width 5000     # sliding-window weighted SWOR
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"wrs"
	"wrs/internal/quantile"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

func fatal(v ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"wrs-sim:"}, v...)...)
	os.Exit(1)
}

// handle is the app-independent slice of wrs.Handle[Q] — everything the
// feeding loop needs; only the report at the end is typed per app.
type handle interface {
	Observe(site int, it wrs.Item) error
	Flush() error
	Stats() wrs.Stats
	Shards() int
	Close() error
}

func main() {
	k := flag.Int("k", 8, "number of sites")
	s := flag.Int("s", 10, "sample size (swor app)")
	n := flag.Int("n", 100000, "stream length")
	app := flag.String("app", "swor", "application: swor, hh, l1, quantile, window")
	eps := flag.Float64("eps", 0.1, "accuracy parameter (hh, l1, quantile apps)")
	delta := flag.Float64("delta", 0.1, "failure probability (hh, l1, quantile apps)")
	width := flag.Int("width", 5000, "sub-stream window width in items (window app)")
	workload := flag.String("workload", "uniform", "weights: unit, uniform, zipf, pareto, heavyhead")
	partition := flag.String("partition", "roundrobin", "site assignment: roundrobin, random, contiguous, single")
	seed := flag.Uint64("seed", 1, "random seed")
	runtimeName := flag.String("runtime", "sequential", "runtime: sequential, goroutines, tcp")
	shards := flag.Int("shards", 1, "protocol shards (parallel coordinator instances, exact merged query)")
	flag.Parse()
	if *n < 1 {
		fatal(fmt.Sprintf("need at least 1 update (-n), got %d", *n))
	}

	var wf stream.WeightFn
	switch *workload {
	case "unit":
		wf = stream.UnitWeights()
	case "uniform":
		wf = stream.UniformWeights(1000)
	case "zipf":
		wf = stream.ZipfWeights(1.5, 100000)
	case "pareto":
		wf = stream.ParetoWeights(1.1)
	case "heavyhead":
		wf = stream.HeavyHeadWeights(5, 1e9)
	default:
		fmt.Fprintf(os.Stderr, "wrs-sim: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	var af stream.AssignFn
	switch *partition {
	case "roundrobin":
		af = stream.RoundRobin(*k)
	case "random":
		af = stream.RandomSites(*k)
	case "contiguous":
		af = stream.Contiguous(*k, *n)
	case "single":
		af = stream.SingleSite()
	default:
		fmt.Fprintf(os.Stderr, "wrs-sim: unknown partition %q\n", *partition)
		os.Exit(2)
	}
	var spec wrs.RuntimeSpec
	switch *runtimeName {
	case "sequential":
		spec = wrs.Sequential()
	case "goroutines":
		spec = wrs.Goroutines()
	case "tcp":
		spec = wrs.TCP("")
	default:
		fmt.Fprintf(os.Stderr, "wrs-sim: unknown runtime %q\n", *runtimeName)
		os.Exit(2)
	}
	opts := []wrs.Option{wrs.WithSeed(*seed), wrs.WithRuntime(spec), wrs.WithShards(*shards)}

	// The oracle records every weight fed, so the l1 and quantile
	// reports can show estimate vs exact truth.
	var oracle quantile.Oracle

	// Open the selected application. Each case yields the shared ingest
	// handle plus a typed report closure — the entire per-application
	// cost of a new workload under the plugin API.
	var (
		h      handle
		report func()
		err    error
	)
	switch *app {
	case "swor":
		var sh *wrs.Handle[[]wrs.Sampled]
		sh, err = wrs.Open(wrs.Sampler(*k, *s), opts...)
		h = sh
		report = func() {
			fmt.Println("sample (id, weight, key):")
			for _, e := range sh.Query() {
				fmt.Printf("  %8d  w=%-12.2f key=%.4g\n", e.Item.ID, e.Item.Weight, e.Key)
			}
		}
	case "hh":
		var hh *wrs.Handle[[]wrs.Item]
		hh, err = wrs.Open(wrs.HeavyHitters(*k, *eps, *delta), opts...)
		h = hh
		report = func() {
			cand := hh.Query()
			fmt.Printf("residual heavy-hitter candidates (top %d by weight):\n", len(cand))
			for i, it := range cand {
				if i >= 10 {
					fmt.Printf("  ... and %d more\n", len(cand)-10)
					break
				}
				fmt.Printf("  %8d  w=%.3f\n", it.ID, it.Weight)
			}
		}
	case "l1":
		var l1 *wrs.Handle[float64]
		l1, err = wrs.Open(wrs.L1(*k, *eps, *delta), opts...)
		h = l1
		report = func() {
			est, W := l1.Query(), oracle.Total()
			fmt.Printf("L1 estimate: %.1f  true: %.1f  relative error: %.2f%% (eps=%v)\n",
				est, W, 100*math.Abs(est-W)/W, *eps)
		}
	case "quantile":
		var q *wrs.Handle[wrs.QuantileEstimate]
		q, err = wrs.Open(wrs.Quantiles(*k, *eps, *delta), opts...)
		h = q
		report = func() {
			est := q.Query()
			fmt.Printf("weight-CDF estimate from %d support points (saturated=%v):\n",
				est.Support(), est.Saturated())
			fmt.Printf("  total weight: est %.1f  true %.1f\n", est.Total(), oracle.Total())
			for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				got, _ := est.Quantile(phi)
				want, _ := oracle.Quantile(phi)
				fmt.Printf("  q%-4g  est %-12.3f exact %-12.3f (rank error %+.3f)\n",
					100*phi, got, want, oracle.CDF(got)-phi)
			}
		}
	case "window":
		var wh *wrs.Handle[wrs.WindowSample]
		wh, err = wrs.Open(wrs.Windowed(*k, *s, *width), opts...)
		h = wh
		report = func() {
			ws := wh.Query()
			fmt.Printf("sliding-window sample (width %d per sub-stream; %d live, %d retained, %d accounted):\n",
				*width, ws.Window, ws.Retained, ws.Observed)
			for _, e := range ws.Items {
				fmt.Printf("  %8d  w=%-12.2f key=%.4g\n", e.Item.ID, e.Item.Weight, e.Key)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "wrs-sim: unknown app %q\n", *app)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	g := stream.NewGenerator(*n, *k, wf, af)
	genRNG := xrand.New(*seed ^ 0x9E3779B97F4A7C15)
	for {
		u, ok := g.Next(genRNG)
		if !ok {
			break
		}
		oracle.Observe(u.Item.Weight)
		if err := h.Observe(u.Site, wrs.Item{ID: u.Item.ID, Weight: u.Item.Weight}); err != nil {
			fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		fatal(err)
	}
	stats := h.Stats()

	fmt.Printf("stream: n=%d  W=%.1f  k=%d  app=%s  shards=%d  workload=%s/%s  runtime=%s\n",
		*n, oracle.Total(), *k, *app, h.Shards(), *workload, *partition, *runtimeName)
	fmt.Printf("traffic: %d up + %d down = %d messages (%.4f per update)\n",
		stats.Upstream, stats.Downstream, stats.Total(),
		float64(stats.Total())/float64(*n))
	report()
	if err := h.Close(); err != nil {
		fatal(err)
	}
}
