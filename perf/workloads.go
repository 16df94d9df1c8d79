package main

import (
	"math"
	"time"

	"wrs"
	"wrs/internal/quantile"
	"wrs/internal/xrand"
)

// appKind selects the application a workload opens.
type appKind int

const (
	appSampler appKind = iota
	appWindowed
	appQuantiles
)

// workload is one benchmark input set: the application and runtime it
// opens, the stream it feeds and how it feeds it. Every workload goes
// through the public wrs.Open/Handle API.
type workload struct {
	name string
	why  string

	app        appKind
	k, s       int
	width      int     // appWindowed
	eps, delta float64 // appQuantiles
	shards     int
	runtime    func() wrs.RuntimeSpec

	batch int // items per ObserveBatch call; 0 feeds item by item with Observe

	// Closed loop: n updates per rep, a fresh Handle per rep.
	n int
	// Open loop (n == 0): updates per second, flush period and querier
	// rate; the stream cycles through base weights of length nBase.
	rate    float64
	flushMS float64
	queryHz float64
	nBase   int

	weights func(r *xrand.RNG, n int) []float64

	// oracle: a recorder-based exactness run on a prefix of the stream.
	oracle bool
	// deterministic: message counts are a pure function of the inputs and
	// the seed, so every rep (traced or not) must report the same counts.
	deterministic bool
	// inlineSite and inlineCoord say whether the runtime calls the site
	// and coordinator machines on the goroutine that calls Observe, which
	// decides how the trace attributes their time.
	inlineSite, inlineCoord bool
}

func (w *workload) closed() bool { return w.n > 0 }

// sampleSize is the size of the sample the application maintains.
func (w *workload) sampleSize() int {
	if w.app == appQuantiles {
		return quantile.Params{Eps: w.eps, Delta: w.delta}.SampleSize()
	}
	return w.s
}

func paretoWeights(alpha float64) func(*xrand.RNG, int) []float64 {
	return func(r *xrand.RNG, n int) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = r.Pareto(alpha)
		}
		return ws
	}
}

// decayWeights are forward-decay weights: Pareto(alpha) scaled by
// e^(rate·i/n), so later items dominate the total weight.
func decayWeights(alpha, rate float64) func(*xrand.RNG, int) []float64 {
	return func(r *xrand.RNG, n int) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = r.Pareto(alpha) * math.Exp(rate*float64(i)/float64(n))
		}
		return ws
	}
}

// workloads returns the four benchmark workloads. The stream sizes keep
// one closed-loop rep near half a second on a 2-CPU host, so a 10 s run
// gets enough reps for a steady median, and each input buffer stays
// under 64 MiB. tiny shrinks every size for tests.
func workloads(tiny bool) []*workload {
	ws := []*workload{
		{
			name: "seq-pareto",
			why:  "the paper's synchronous model, single-threaded: site filter and RNG do the work at ~1e-3 msgs/update",
			app:  appSampler, k: 64, s: 64, shards: 1, runtime: wrs.Sequential,
			n: 1 << 22, weights: paretoWeights(1.2),
			oracle: true, deterministic: true, inlineSite: true, inlineCoord: true,
		},
		{
			name: "tcp-decay",
			why:  "time-decayed weights send ~1/3 of updates over TCP to 2 shards: wire codec, pre-filter and coordinator apply dominate",
			app:  appSampler, k: 2, s: 512, shards: 2, runtime: func() wrs.RuntimeSpec { return wrs.TCP("") },
			batch: 512, n: 1 << 21, weights: decayWeights(1.5, 50),
			oracle: true, inlineSite: true,
		},
		{
			name: "paced-quantiles",
			why:  "open loop at a fixed rate with a 40 Hz querier: flush round-trip and the O(s) query path set freshness and read latency",
			app:  appQuantiles, k: 2, eps: 0.05, delta: 0.01, shards: 1, runtime: func() wrs.RuntimeSpec { return wrs.TCP("") },
			batch: 256, rate: 2e6, flushMS: 5, queryHz: 40, nBase: 1 << 20, weights: paretoWeights(3),
			inlineSite: true,
		},
		{
			name: "go-window",
			why:  "push-only sliding-window protocol on goroutines: window heaps, retention and goroutine hand-off, no broadcasts",
			app:  appWindowed, k: 2, s: 64, width: 65536, shards: 2, runtime: wrs.Goroutines,
			batch: 256, n: 1 << 22, weights: paretoWeights(1.2),
			deterministic: true,
		},
	}
	if tiny {
		for _, w := range ws {
			if w.closed() {
				w.n = 1 << 13
			}
			w.nBase = 1 << 12
			w.width = min(w.width, 1024)
		}
	}
	return ws
}

func findWorkload(ws []*workload, name string) *workload {
	for _, w := range ws {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is the generated stream of one run. Closed-loop workloads feed
// items once per rep; the open loop cycles through weights with
// ever-increasing IDs.
type inputs struct {
	weights []float64  // open loop: the cycled base weights
	items   []wrs.Item // closed loop: item i has ID i
}

// inputSalt separates the input generator's stream from the protocol's
// WithSeed stream, so both derive from -seed without sharing draws.
const inputSalt = 0xD1B54A32D192ED03

func (w *workload) generate(seed uint64) *inputs {
	r := xrand.New(seed ^ inputSalt)
	if !w.closed() {
		return &inputs{weights: w.weights(r, w.nBase)}
	}
	in := &inputs{items: make([]wrs.Item, w.n)}
	for i, wt := range w.weights(r, w.n) {
		in.items[i] = wrs.Item{ID: uint64(i), Weight: wt}
	}
	return in
}

// weightOf returns the weight of the item with the given ID (for a
// closed loop, an ID below n).
func (in *inputs) weightOf(id uint64) float64 {
	if in.items != nil {
		return in.items[id].Weight
	}
	return in.weights[id%uint64(len(in.weights))]
}

// each walks items the way the workload's closed loop feeds them: one
// Observe per item round-robin over the sites, or ObserveBatch calls of
// w.batch items alternating between sites.
func (w *workload) each(items []wrs.Item, fn func(site int, part []wrs.Item) error) error {
	step := max(w.batch, 1)
	for i := 0; i < len(items); i += step {
		if err := fn((i/step)%w.k, items[i:min(i+step, len(items))]); err != nil {
			return err
		}
	}
	return nil
}

// deliver makes one Observe (item-by-item workloads) or ObserveBatch
// call.
func (w *workload) deliver(h handle, site int, part []wrs.Item) error {
	if w.batch == 0 {
		return h.Observe(site, part[0])
	}
	return h.ObserveBatch(site, part)
}

// feed delivers items as the closed loop does, without probes, and
// flushes.
func (w *workload) feed(h handle, items []wrs.Item) error {
	err := w.each(items, func(site int, part []wrs.Item) error { return w.deliver(h, site, part) })
	if err != nil {
		return err
	}
	return h.Flush()
}

// openLoopUpdates is the number of updates an open-loop run of the given
// length feeds, rounded down to whole batches.
func (w *workload) openLoopUpdates(d time.Duration) int {
	nb := int(w.rate * d.Seconds() / float64(w.batch))
	return max(nb, 1) * w.batch
}
