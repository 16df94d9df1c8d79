// Command perf is the end-to-end benchmark of the wrs library: it feeds
// generated streams through the public wrs.Open/Handle API on four
// workloads, prints every end-to-end metric with its unit, checks every
// answer, and with -trace breaks the cost down by layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// namedMetric is one reported number.
type namedMetric struct {
	name  string
	value float64
	unit  string
}

// outcome is everything one workload run reports.
type outcome struct {
	workload          string
	e2e, layers       []namedMetric
	notes             []string
	attempted, failed int64
	failures          []string
}

// runWorkload generates the workload's inputs from the seed, measures it
// for cfg.seconds, and runs its correctness gates.
func runWorkload(w *workload, cfg config) *outcome {
	r := &runner{w: w, cfg: cfg}
	out := &outcome{workload: w.name}
	setup := r.measureSetup()
	r.in = w.generate(cfg.seed)
	if w.oracle {
		r.oracleRun()
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var reps []*rep
	if w.closed() {
		reps = r.closedReps(budget, tr)
	} else {
		// The open loop runs once, or untraced then traced in trace mode.
		runs := []*tracer{nil}
		if tr != nil {
			runs, budget = append(runs, tr), budget/2
		}
		for _, t := range runs {
			if p := r.pacedRep(budget, t); p != nil {
				reps = append(reps, p)
			}
		}
	}
	r.check(len(reps) > 0, "%s: no rep completed", w.name)
	if len(reps) > 0 {
		r.checkTraffic(reps)
		out.e2e = r.endToEnd(reps, setup)
		out.notes = r.notes(reps, setup)
	}
	if count(reps, true) > 0 {
		c := r.capturePass(reps[0].updates)
		out.layers = r.layerMetrics(tr, reps, c)
		if path, err := tr.write(cfg.out, w.name); err != nil {
			fmt.Fprintf(os.Stderr, "perf: writing trace: %v\n", err)
		} else {
			out.notes = append(out.notes, fmt.Sprintf("spans: %s; capture: %v", path, c))
		}
	}
	out.attempted, out.failed, out.failures = r.attempted, r.failed, r.failures
	return out
}

// checkTraffic runs the message-count gates: a deterministic workload
// sends the same messages in every rep, traced or not, and the windowed
// protocol's upstream equals a Sequential replay of the same stream.
func (r *runner) checkTraffic(reps []*rep) {
	w := r.w
	if w.deterministic {
		for _, p := range reps[1:] {
			r.check(p.stats == reps[0].stats, "%s: rep traffic %+v differs from %+v", w.name, p.stats, reps[0].stats)
		}
	}
	if w.app == appWindowed {
		if up, ok := r.sequentialUpstream(); ok {
			r.check(up == reps[0].stats.Upstream, "%s: upstream %d, Sequential replay %d", w.name, reps[0].stats.Upstream, up)
		}
	}
}

// endToEnd computes the end-to-end metrics from the untraced reps.
func (r *runner) endToEnd(reps []*rep, setup []float64) []namedMetric {
	plain, _ := split(reps)
	tput := make([]float64, len(plain))
	alloc := make([]float64, len(plain))
	live := make([]float64, len(plain))
	for i, p := range plain {
		tput[i] = float64(p.updates) / p.wall.Seconds()
		alloc[i] = p.allocB / float64(p.updates)
		live[i] = p.liveB / 1e6
	}
	fresh := pooled(plain, freshOf)
	query := pooled(plain, func(p *rep) []float64 { return p.query })
	return []namedMetric{
		{"setup_s", median(setup), "s"},
		{"updates_per_s", median(tput), "1/s"},
		{"msgs_per_update", median(msgsPerUpdate(plain)), "msgs"},
		{"fresh_p50_ms", percentile(fresh, 50), "ms"},
		{"fresh_p99_ms", percentile(fresh, 99), "ms"},
		{"query_p50_ms", percentile(query, 50), "ms"},
		{"query_p95_ms", percentile(query, 95), "ms"},
		{"alloc_bytes_per_update", median(alloc), "B"},
		{"live_heap_mb", median(live), "MB"},
	}
}

// notes are the human-readable sample counts and supported tails.
func (r *runner) notes(reps []*rep, setup []float64) []string {
	plain, traced := split(reps)
	fresh := pooled(plain, freshOf)
	query := pooled(plain, func(p *rep) []float64 { return p.query })
	tail := func(xs []float64) string {
		t := supportedTail(len(xs))
		return fmt.Sprintf("n=%d, p%g=%.4g ms", len(xs), t, percentile(xs, t))
	}
	tput := make([]float64, len(plain))
	for i, p := range plain {
		tput[i] = float64(p.updates) / p.wall.Seconds()
	}
	q1, q2, q3 := quartiles(tput)
	return []string{
		fmt.Sprintf("reps: %d untraced, %d traced; setup cycles: %d", len(plain), len(traced), len(setup)),
		fmt.Sprintf("updates/s per rep: q1 %.4g, median %.4g, q3 %.4g", q1, q2, q3),
		"fresh: " + tail(fresh),
		"query: " + tail(query),
	}
}

// meta identifies the host and tree a result was measured on.
type meta struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func hostMeta(seed uint64) meta {
	return meta{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOARCH: runtime.GOARCH,
		GoVersion: runtime.Version(), Commit: buildCommit(), Seed: seed,
	}
}

// buildCommit returns the VCS revision stamped into the binary, with
// "+dirty" for a modified tree, or "unknown" outside a checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value[:min(12, len(s.Value))]
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// normalizeArgs accepts "-trace 0" and "-trace 1" (as well as the bare
// boolean "-trace") by folding the value into the flag.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(run(normalizeArgs(os.Args[1:])))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Uint64("seed", 1, "input and protocol seed")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and spans")
	out := fs.String("out", filepath.Join(os.TempDir(), "wrs-perf"), "directory for trace spans")
	repeat := fs.Int("repeat", 0, "run each workload N times with seeds seed..seed+N-1 and print every metric's spread")
	plant := fs.Bool("plant", false, "corrupt one answer per workload (the run must then fail)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all := workloads(false)
	ws := all
	if *name != "" {
		w := findWorkload(all, *name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", *name)
			return 2
		}
		ws = []*workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace, out: *out, plant: *plant}
	if *repeat > 0 {
		return repeatRuns(ws, cfg, *repeat)
	}
	m, _ := json.Marshal(hostMeta(cfg.seed))
	fmt.Printf("# host %s\n", m)
	res := result{Metrics: map[string]metricValue{}}
	for _, w := range ws {
		o := runWorkload(w, cfg)
		printOutcome(o)
		res.Attempted += o.attempted
		res.Failed += o.failed
		ms := o.e2e
		if cfg.trace {
			ms = o.layers
		}
		for _, nm := range ms {
			key := nm.name
			if len(ws) > 1 {
				key = w.name + "/" + nm.name
			}
			res.Metrics[key] = metricValue{nm.value, nm.unit}
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printOutcome(o *outcome) {
	for _, nm := range o.e2e {
		fmt.Printf("%-16s %-26s %14.6g %s\n", o.workload, nm.name, nm.value, nm.unit)
	}
	fmt.Printf("%-16s %-26s %14.6g %s\n", o.workload, "failed_frac", float64(o.failed)/float64(max(o.attempted, 1)), "frac")
	for _, nm := range o.layers {
		fmt.Printf("%-16s %-34s %14.6g %s\n", o.workload, nm.name, nm.value, nm.unit)
	}
	for _, n := range o.notes {
		fmt.Printf("%-16s # %s\n", o.workload, n)
	}
	for _, f := range o.failures {
		fmt.Printf("%-16s FAIL %s\n", o.workload, f)
	}
}

// repeatRuns runs each workload n times with consecutive seeds and
// prints, for every metric, the median, quartiles and spread (the
// interquartile distance over the median). An end-to-end metric whose
// spread exceeds demoteSpread is flagged for demotion to per-layer;
// setup_s is exempt.
func repeatRuns(ws []*workload, cfg config, n int) int {
	const demoteSpread = 0.10
	m, _ := json.Marshal(hostMeta(cfg.seed))
	fmt.Printf("# host %s repeat=%d\n", m, n)
	failed := false
	for _, w := range ws {
		vals := map[string][]float64{}
		var order []namedMetric
		e2e := map[string]bool{}
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + uint64(i)
			o := runWorkload(w, c)
			if o.failed > 0 {
				failed = true
				printOutcome(o)
			}
			for _, nm := range o.e2e {
				e2e[nm.name] = true
			}
			for _, nm := range append(o.e2e, o.layers...) {
				if _, ok := vals[nm.name]; !ok {
					order = append(order, nm)
				}
				vals[nm.name] = append(vals[nm.name], nm.value)
			}
		}
		for _, nm := range order {
			q1, q2, q3 := quartiles(vals[nm.name])
			sp := spread(vals[nm.name])
			flag := ""
			if e2e[nm.name] && nm.name != "setup_s" && sp > demoteSpread {
				flag = "  DEMOTE"
			}
			fmt.Printf("%-16s %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s%s\n",
				w.name, nm.name, q2, q1, q3, sp, nm.unit, flag)
		}
	}
	if failed {
		return 1
	}
	return 0
}
