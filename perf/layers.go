package main

import (
	"math"
	"time"

	"wrs"
	"wrs/internal/core"
	"wrs/internal/fabric"
	"wrs/internal/relay"
	"wrs/internal/wire"
	"wrs/internal/xrand"
)

// capturePrefix bounds the untimed capture pass that feeds the replays.
const capturePrefix = 1 << 20

// replayPasses is how many times each replay runs; its median counts.
const replayPasses = 5

// sink keeps replay loops from being optimized away.
var sink int64

// capturePass runs the first n updates of the stream once more with
// capture decorators, untimed, recording the inputs of the per-layer
// replays.
func (r *runner) capturePass(n int) *capture {
	w := r.w
	tr := newTracer()
	tr.rec = newCapture(1 << 17)
	s, err := w.open(r.cfg.seed, tr.decorate(w), nil)
	if !r.call(err, "capture open") {
		return tr.rec
	}
	r.call(w.feed(s.h, r.prefixItems(min(n, capturePrefix))), "capture feed")
	r.call(s.h.Close(), "capture close")
	return tr.rec
}

// prefixItems returns the first n items of the workload's stream.
func (r *runner) prefixItems(n int) []wrs.Item {
	if r.in.items != nil {
		return r.in.items[:min(n, len(r.in.items))]
	}
	items := make([]wrs.Item, n)
	for i := range items {
		items[i] = wrs.Item{ID: uint64(i), Weight: r.in.weightOf(uint64(i))}
	}
	return items
}

// timeReplay runs fn replayPasses times and returns the median ns per op
// for ops operations per pass.
func timeReplay(ops int, fn func()) float64 {
	if ops == 0 {
		return 0
	}
	ds := make([]float64, replayPasses)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = float64(time.Since(t).Nanoseconds()) / float64(ops)
	}
	return median(ds)
}

// shardWeights returns W_p, the total input weight routed to each shard,
// over an n-update stream.
func (r *runner) shardWeights(n int) []float64 {
	ws := make([]float64, r.w.shards)
	for i := 0; i < n; i++ {
		ws[fabric.ShardOf(uint64(i), r.w.shards)] += r.in.weightOf(uint64(i))
	}
	return ws
}

// layerMetrics derives the per-layer metrics of a traced run from the
// tracer, the traced and untraced reps, and the capture pass. The names
// are the ones BENCHMARK.json lists under per_layer.
func (r *runner) layerMetrics(tr *tracer, reps []*rep, c *capture) []namedMetric {
	w := r.w
	plain, traced := split(reps)
	var wall, wait float64
	var updates, calls, upstream int64
	var late []float64
	for _, p := range traced {
		wall += float64(p.wall.Nanoseconds())
		wait += float64(p.wait.Nanoseconds())
		updates += int64(p.updates)
		calls += p.calls
		upstream += p.stats.Upstream
		late = append(late, p.late...)
	}
	u := float64(updates)

	obs := tr.aggregate(spObserve, rootObserve)
	scale := float64(calls) / math.Max(float64(obs.n), 1)
	var siteCalls, bcastCalls, observed, sent int64
	var buffered int
	for _, st := range tr.sites {
		siteCalls += st.calls.Load()
		bcastCalls += st.bcasts.Load()
		switch m := st.inner.(type) {
		case *core.Site:
			observed += m.Observed
			sent += m.Sent
		case *core.WindowSite:
			observed += m.Observed
			sent += m.Sent
			buffered = max(buffered, m.MaxKept)
		}
	}
	var coordCalls, poolPeak, retPeak int64
	var cs core.CoordStats
	for _, ct := range tr.coords {
		coordCalls += ct.calls.Load()
		poolPeak = max(poolPeak, ct.poolPeak.Load())
		retPeak = max(retPeak, ct.retPeak.Load())
		st := ct.inner.Core().Stats
		cs.EarlyMsgs += st.EarlyMsgs
		cs.DroppedRegular += st.DroppedRegular
		cs.LateEarlyMsgs += st.LateEarlyMsgs
	}
	site := tr.machineTotal(spSiteObserve, scale, siteCalls) + tr.machineTotal(spSiteBroadcast, scale, bcastCalls)
	coord := tr.machineTotal(spCoordHandle, scale, coordCalls)
	flush := tr.aggregate(spFlush, rootFlush)
	query := tr.aggregate(spQuery, rootNone)

	// The generator's wall time splits into Handle calls (observe, flush,
	// and in the closed loop the probe queries), the open loop's
	// scheduled waits, and the harness loop itself: the residual.
	onPath := obs.dur*scale + flush.dur
	if w.closed() {
		onPath += query.dur
	}
	tracedNs := wall / u
	residual := (wall - wait - onPath) / u

	var overhead float64
	if w.closed() {
		overhead = median(nsPerUpdate(traced))/median(nsPerUpdate(plain)) - 1
	} else {
		overhead = median(pooled(traced, freshOf))/median(pooled(plain, freshOf)) - 1
	}

	var bound float64
	if w.app != appWindowed {
		n := traced[0].updates
		var b float64
		for _, wp := range r.shardWeights(n) {
			b += theorem3Bound(w.k, w.sampleSize(), wp)
		}
		bound = float64(traced[0].stats.Upstream) / b
	}

	flushMS := scaled(tr.durations(spFlush), 1e-6)
	viewUS := scaled(tr.durations(spView), 1e-3)

	ms := []namedMetric{
		{"wrs.observe_ns", obs.dur * scale / u, "ns"},
		{"runtime.dispatch_ns", obs.self * scale / u, "ns"},
		{"wrs.flush_ms_p50", percentile(flushMS, 50), "ms"},
		{"wrs.flush_ms_p99", percentile(flushMS, 99), "ms"},
		{"wrs.query_lock_us_p50", percentile(viewUS, 50), "us"},
		{"wrs.query_lock_us_p99", percentile(viewUS, 99), "us"},
		{"wrs.query_merge_ms", ratio(query.self, float64(query.n)) / 1e6, "ms"},
		{"core.site.observe_ns", site / u, "ns"},
		{"core.site.busy_frac", site / wall, "frac"},
		{"core.site.pass_frac", ratio(float64(sent), float64(observed)), "frac"},
		{"core.coord.handle_ns", ratio(coord, float64(coordCalls)), "ns"},
		{"core.coord.busy_frac", coord / wall / float64(w.shards), "frac"},
		{"core.coord.early_frac", ratio(float64(cs.EarlyMsgs), float64(coordCalls)), "frac"},
		{"core.coord.dropped_frac", ratio(float64(cs.DroppedRegular+cs.LateEarlyMsgs), float64(coordCalls)), "frac"},
		{"core.coord.pool_peak_over_s", float64(poolPeak) / float64(w.sampleSize()), "frac"},
		{"core.bound_ratio", bound, "frac"},
		{"window.retained_peak", float64(retPeak), "count"},
		{"window.site_buffered_peak", float64(buffered), "count"},
		{"transport.prefiltered_frac", ratio(float64(upstream-coordCalls), float64(upstream)), "frac"},
		{"wire.bytes_per_update", median(msgsPerUpdate(traced)) * wire.MessageSize, "B"},
		{"harness.late_p99_ms", percentile(late, 99), "ms"},
		{"harness.traced_ns_per_update", tracedNs, "ns"},
		{"harness.residual_ns_per_update", residual, "ns"},
		{"harness.trace_overhead_frac", overhead, "frac"},
	}
	return append(ms, r.replays(c)...)
}

// replays times the layer packages' exported functions on captured
// traffic: the shard router, the site's threshold decision and jump,
// the wire codec and the relay filter.
func (r *runner) replays(c *capture) []namedMetric {
	w := r.w
	ids := r.prefixItems(min(len(c.pairs), capturePrefix))
	shardof := timeReplay(len(ids), func() {
		for _, it := range ids {
			sink += int64(fabric.ShardOf(it.ID, w.shards))
		}
	})

	var bits int64
	decide := timeReplay(len(c.pairs), func() {
		rng := xrand.New(r.cfg.seed)
		bits = 0
		for _, p := range c.pairs {
			te := xrand.NewThresholdExp(rng, p.w)
			if te.Above(p.th) {
				sink++
			}
			bits += int64(te.DecisionBits())
		}
	})
	armed := 0
	for _, p := range c.pairs {
		if p.th > 0 {
			armed++
		}
	}
	jump := timeReplay(armed, func() {
		rng := xrand.New(r.cfg.seed)
		var j xrand.Jump
		for _, p := range c.pairs {
			if p.th <= 0 {
				continue
			}
			if !j.ArmedAt(p.th) {
				j.Arm(rng, p.th)
			}
			if j.Offer(p.w) {
				sink++
			}
		}
	})

	var up []core.Message
	for p := 0; p < w.shards; p++ {
		for _, e := range c.logs[p] {
			if !e.down {
				up = append(up, e.m)
			}
		}
	}
	const perFrame = wire.MaxFrameSize / wire.MessageSize
	var frames [][]byte
	for i := 0; i < len(up); i += perFrame {
		frames = append(frames, wire.AppendMessages(nil, up[i:min(i+perFrame, len(up))]))
	}
	buf := make([]byte, 0, wire.MaxFrameSize)
	encode := timeReplay(len(up), func() {
		for i := 0; i < len(up); i += perFrame {
			buf = wire.AppendMessages(buf[:0], up[i:min(i+perFrame, len(up))])
		}
	})
	decode := timeReplay(len(up), func() {
		for _, f := range frames {
			if err := wire.ForEachMessage(f, func(core.Message) { sink++ }); err != nil {
				r.fail("wire replay: %v", err)
			}
		}
	})

	// Relays merge top-s only for apps whose answers read nothing beyond
	// the coordinator's top-s state; the windowed retention does not.
	merge := w.app != appWindowed
	var forwarded, filtered int64
	relayUp := timeReplay(len(up), func() {
		forwarded, filtered = 0, 0
		for p := 0; p < w.shards; p++ {
			m := relay.NewMachine(w.sampleSize(), merge)
			for _, e := range c.logs[p] {
				if e.down {
					m.Down(e.m)
				} else {
					m.Up(e.m, func(core.Message) { sink++ })
				}
			}
			forwarded += m.Forwarded()
			filtered += m.Filtered()
		}
	})

	return []namedMetric{
		{"fabric.shardof_ns", shardof, "ns"},
		{"xrand.decide_ns", decide, "ns"},
		{"xrand.jump_offer_ns", jump, "ns"},
		{"xrand.bits_per_decision", ratio(float64(bits), float64(len(c.pairs))), "bits"},
		{"wire.encode_ns", encode, "ns"},
		{"wire.decode_ns", decode, "ns"},
		{"relay.up_ns", relayUp, "ns"},
		{"relay.filtered_frac", ratio(float64(filtered), float64(forwarded+filtered)), "frac"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func scaled(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}

func nsPerUpdate(reps []*rep) []float64 {
	out := make([]float64, len(reps))
	for i, p := range reps {
		out[i] = p.nsPerUpdate()
	}
	return out
}

func msgsPerUpdate(reps []*rep) []float64 {
	out := make([]float64, len(reps))
	for i, p := range reps {
		out[i] = p.msgsPerUpdate()
	}
	return out
}

func freshOf(p *rep) []float64 { return p.fresh }

// split separates untraced from traced reps.
func split(reps []*rep) (plain, traced []*rep) {
	for _, p := range reps {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	return plain, traced
}

// pooled concatenates one sample series over reps.
func pooled(reps []*rep, f func(*rep) []float64) []float64 {
	var out []float64
	for _, p := range reps {
		out = append(out, f(p)...)
	}
	return out
}
