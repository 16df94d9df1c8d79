package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wrs/internal/core"
	"wrs/internal/netsim"
	rt "wrs/internal/runtime"
	"wrs/internal/stream"
)

// spanName names a traced layer boundary.
type spanName uint8

const (
	spObserve       spanName = iota // Handle.Observe / ObserveBatch
	spFlush                         // Handle.Flush
	spQuery                         // Handle.Query
	spView                          // one Snapshots.View inside a query
	spSiteObserve                   // a site machine's Observe
	spSiteBroadcast                 // a site machine's HandleBroadcast
	spCoordHandle                   // a coordinator machine's HandleMessage
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"wrs.observe", "wrs.flush", "wrs.query", "wrs.view",
	"core.site.observe", "core.site.broadcast", "core.coord.handle",
}

// root says which generator span an inline span ran under, because
// spans under sampled Observe calls stand for 61 calls each while spans
// under Flush stand for themselves.
type root uint8

const (
	rootNone root = iota
	rootObserve
	rootFlush
	nRoots
)

// sampleEvery is the sampling period of per-item paths: one span per 61
// calls, a count for every call. A prime period never locks onto the
// power-of-two rhythms of the workloads (round-robin sites, alternating
// batches, probes every n/128 updates), which would bias the sample.
const sampleEvery = 61

// maxSpans caps the spans kept for the trace file; aggregates keep
// counting past it.
const maxSpans = 1 << 18

type spanRec struct {
	name   spanName
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	ID     int64 `json:"id"`
	Parent int64 `json:"parent"`
	Req    int64 `json:"req"`
}

// spanLine is a span as written to the trace file.
type spanLine struct {
	Name string `json:"name"`
	spanRec
}

// agg accumulates self time and span count for one (name, root).
type agg struct {
	self, dur float64 // ns
	n         int64
}

// frame is an open inline span. child is the corrected duration of its
// finished children, ovh the tracing cost recorded inside it.
type frame struct {
	id, start, child, ovh int64
	name                  spanName
	root                  root
}

// tracer records spans at the layer boundaries the benchmark can reach
// from outside the program: around Handle calls, around Snapshots.View,
// and in decorators around every site and coordinator machine. Self
// time is a span's duration minus the time its child spans cover.
//
// Inline machines (called on the goroutine that calls Observe) record
// only while a generator span is open, as its children; machines on
// other goroutines sample every 61st call of their own.
//
// Recording a span costs time inside the spans around it. The tracer
// measures that cost once at start (spanCost inside the span itself,
// parentCost added to its parent) and subtracts it from every duration
// and self time it aggregates; the span file keeps raw timestamps.
type tracer struct {
	t0                   time.Time
	ids                  atomic.Int64
	spanCost, parentCost int64

	mu    sync.Mutex
	spans []spanRec
	aggs  [nSpanNames][nRoots]agg
	durs  [nSpanNames][]float64 // corrected ns; kept for flush, query and view

	// Generator goroutine only.
	stack []frame
	req   int64

	sites  []*siteTimer
	coords []*coordTimer
	rec    *capture // non-nil during the capture pass
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now(), spans: spanBuffer(maxSpans)}
	tr.spanCost, tr.parentCost = calibrate()
	return tr
}

// calibrate measures the tracing cost of one span: the time recorded
// inside an empty span, and the extra time its recording adds to its
// parent.
func calibrate() (spanCost, parentCost int64) {
	const n = 4096
	c := &tracer{t0: time.Now(), spans: spanBuffer(3 * n)}
	var root, nested, child []float64
	for i := 0; i < n; i++ {
		c.beginGen(spObserve, rootObserve, 0)
		c.endGen()
		c.beginGen(spObserve, rootObserve, 0)
		t, _ := c.begin(true, nil, spSiteObserve)
		c.end(t, spSiteObserve)
		c.endGen()
	}
	for k := 0; k+2 < len(c.spans); k += 3 {
		root = append(root, float64(c.spans[k].End-c.spans[k].Start))
		child = append(child, float64(c.spans[k+1].End-c.spans[k+1].Start))
		nested = append(nested, float64(c.spans[k+2].End-c.spans[k+2].Start))
	}
	spanCost = int64(median(child))
	parentCost = max(int64(median(nested)-median(root)-median(child)), 0)
	return spanCost, parentCost
}

// spanBuffer returns an empty span slice whose backing memory has been
// written once, so recording a span never takes a page fault.
func spanBuffer(n int) []spanRec {
	s := make([]spanRec, n)
	for i := range s {
		s[i].End = 1
	}
	return s[:0]
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// add aggregates one finished span: dur and self are corrected, start
// and end raw.
func (tr *tracer) add(name spanName, r root, start, end, dur, self, id, parent, req int64) {
	tr.mu.Lock()
	a := &tr.aggs[name][r]
	a.self += float64(self)
	a.dur += float64(dur)
	a.n++
	if name == spFlush || name == spQuery || name == spView {
		tr.durs[name] = append(tr.durs[name], float64(dur))
	}
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, spanRec{name, start, end, id, parent, req})
	}
	tr.mu.Unlock()
}

// beginGen opens a generator span (Observe or Flush); inline machine
// calls until endGen become its children.
func (tr *tracer) beginGen(name spanName, r root, req int64) {
	tr.req = req
	tr.stack = append(tr.stack, frame{id: tr.ids.Add(1), start: tr.now(), name: name, root: r})
}

func (tr *tracer) endGen() { tr.pop() }

func (tr *tracer) pop() {
	end := tr.now()
	f := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	dur := end - f.start - f.ovh - tr.spanCost
	var parent int64
	if len(tr.stack) > 0 {
		p := &tr.stack[len(tr.stack)-1]
		p.child += dur
		p.ovh += f.ovh + tr.spanCost + tr.parentCost
		parent = p.id
	}
	tr.add(f.name, f.root, f.start, end, dur, dur-f.child, f.id, parent, tr.req)
}

// token is an open machine span.
type token struct {
	inline bool
	start  int64
}

// begin opens a machine span if this call is to be recorded: inline
// calls while a generator span is open, other calls every 61st.
func (tr *tracer) begin(inline bool, n *int64, name spanName) (token, bool) {
	if inline {
		if len(tr.stack) == 0 {
			return token{}, false
		}
		r := tr.stack[0].root
		tr.stack = append(tr.stack, frame{id: tr.ids.Add(1), start: tr.now(), name: name, root: r})
		return token{inline: true}, true
	}
	*n++
	if *n%sampleEvery != 0 {
		return token{}, false
	}
	return token{start: tr.now()}, true
}

func (tr *tracer) end(t token, name spanName) {
	if t.inline {
		tr.pop()
		return
	}
	end := tr.now()
	dur := end - t.start - tr.spanCost
	tr.add(name, rootNone, t.start, end, dur, dur, tr.ids.Add(1), 0, 0)
}

// querySpan is one traced Handle.Query; it may run on any goroutine.
type querySpan struct {
	tr                    *tracer
	id, start, child, ovh int64
}

func (tr *tracer) beginQuery() *querySpan {
	return &querySpan{tr: tr, id: tr.ids.Add(1), start: tr.now()}
}

func (q *querySpan) beginView() int64 { return q.tr.now() }

func (q *querySpan) endView(start int64) {
	tr := q.tr
	end := tr.now()
	dur := end - start - tr.spanCost
	q.child += dur
	q.ovh += tr.spanCost + tr.parentCost
	tr.add(spView, rootNone, start, end, dur, dur, tr.ids.Add(1), q.id, q.id)
}

func (tr *tracer) endQuery(q *querySpan) {
	end := tr.now()
	dur := end - q.start - q.ovh - tr.spanCost
	tr.add(spQuery, rootNone, q.start, end, dur, dur-q.child, q.id, 0, q.id)
}

// aggregate returns the accumulated self time, duration and span count
// of a span name under one root.
func (tr *tracer) aggregate(name spanName, r root) agg {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.aggs[name][r]
}

// machineTotal returns a machine span name's total self time in ns:
// spans under sampled Observe calls scaled by observeScale, spans under
// Flush as recorded, and off-goroutine spans scaled from their sampled
// mean to all calls.
func (tr *tracer) machineTotal(name spanName, observeScale float64, offCalls int64) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	a := tr.aggs[name]
	t := a[rootObserve].self*observeScale + a[rootFlush].self
	if off := a[rootNone]; off.n > 0 {
		t += off.self / float64(off.n) * float64(offCalls)
	}
	return t
}

// durations returns the recorded durations of a span name, in ns.
func (tr *tracer) durations(name spanName) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]float64(nil), tr.durs[name]...)
}

// write stores the kept spans as JSON lines in dir/<workload>.jsonl.
func (tr *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(spanLine{spanNames[s.name], s}); err != nil {
			tr.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	tr.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// decorate returns the instance hook that wraps every site and
// coordinator machine of a workload in timing decorators.
func (tr *tracer) decorate(w *workload) func([]rt.Instance) {
	return func(insts []rt.Instance) {
		for p := range insts {
			ct := &coordTimer{inner: insts[p].Coord, tr: tr, inline: w.inlineCoord, shard: p}
			tr.coords = append(tr.coords, ct)
			if d, ok := insts[p].Coord.(interface{ DropBelow() float64 }); ok {
				insts[p].Coord = &dropCoordTimer{ct, d}
			} else {
				insts[p].Coord = ct
			}
			sites := make([]netsim.Site[core.Message], len(insts[p].Sites))
			for i, s := range insts[p].Sites {
				sites[i] = tr.wrapSite(s, w.inlineSite)
			}
			insts[p].Sites = sites
		}
	}
}

type batchSite interface {
	ObserveBatch(items []stream.Item, send func(core.Message)) error
	ObserveRepeated(it stream.Item, count int, send func(core.Message)) error
}

// wrapSite decorates a site machine. The decorator has ObserveBatch and
// ObserveRepeated only when the machine has them, so runtimes that
// check for those paths take the same branch with and without tracing.
func (tr *tracer) wrapSite(s netsim.Site[core.Message], inline bool) netsim.Site[core.Message] {
	st := &siteTimer{inner: s, tr: tr, inline: inline}
	st.thr, _ = s.(interface{ Threshold() float64 })
	tr.sites = append(tr.sites, st)
	if b, ok := s.(batchSite); ok {
		return &batchSiteTimer{st, b}
	}
	return st
}

// siteTimer times a site machine.
type siteTimer struct {
	inner  netsim.Site[core.Message]
	thr    interface{ Threshold() float64 }
	tr     *tracer
	inline bool
	n      int64 // calls seen by the sampler (one driving goroutine)
	calls  atomic.Int64
	bcasts atomic.Int64
}

func (d *siteTimer) Observe(it stream.Item, send func(core.Message)) error {
	d.calls.Add(1)
	if c := d.tr.rec; c != nil && d.thr != nil {
		c.pair(it.Weight, d.thr.Threshold())
	}
	if t, ok := d.tr.begin(d.inline, &d.n, spSiteObserve); ok {
		err := d.inner.Observe(it, send)
		d.tr.end(t, spSiteObserve)
		return err
	}
	return d.inner.Observe(it, send)
}

func (d *siteTimer) HandleBroadcast(m core.Message) {
	d.bcasts.Add(1)
	if t, ok := d.tr.begin(d.inline, &d.n, spSiteBroadcast); ok {
		d.inner.HandleBroadcast(m)
		d.tr.end(t, spSiteBroadcast)
		return
	}
	d.inner.HandleBroadcast(m)
}

// batchSiteTimer forwards the batched paths. No workload drives them
// (the TCP client and the goroutine runtime call Observe per item, and
// seq-pareto feeds item by item), so they are counted but not timed.
type batchSiteTimer struct {
	*siteTimer
	b batchSite
}

func (d *batchSiteTimer) ObserveBatch(items []stream.Item, send func(core.Message)) error {
	d.calls.Add(int64(len(items)))
	return d.b.ObserveBatch(items, send)
}

func (d *batchSiteTimer) ObserveRepeated(it stream.Item, count int, send func(core.Message)) error {
	d.calls.Add(int64(count))
	return d.b.ObserveRepeated(it, count, send)
}

// coordTimer times a coordinator machine and tracks its memory
// high-waters. It never adds UnionTopSMergeable: relays must not treat
// a decorated coordinator as mergeable.
type coordTimer struct {
	inner    rt.Coordinator
	tr       *tracer
	inline   bool
	shard    int
	n        int64 // serialized by the runtime's per-shard processing
	calls    atomic.Int64
	poolPeak atomic.Int64
	retPeak  atomic.Int64
}

func (d *coordTimer) HandleMessage(m core.Message, bcast func(core.Message)) {
	d.calls.Add(1)
	if c := d.tr.rec; c != nil {
		c.up(d.shard, m)
		bcast = c.down(d.shard, bcast)
	}
	if t, ok := d.tr.begin(d.inline, &d.n, spCoordHandle); ok {
		d.inner.HandleMessage(m, bcast)
		d.tr.end(t, spCoordHandle)
	} else {
		d.inner.HandleMessage(m, bcast)
	}
	if wc, ok := d.inner.(*core.WindowCoordinator); ok {
		raise(&d.retPeak, int64(wc.Retained()))
	} else {
		raise(&d.poolPeak, int64(d.inner.Core().WithheldCount()))
	}
}

func (d *coordTimer) Core() *core.Coordinator { return d.inner.Core() }

// dropCoordTimer also forwards DropBelow, so the TCP server pre-filters
// exactly as it would for the undecorated coordinator.
type dropCoordTimer struct {
	*coordTimer
	d interface{ DropBelow() float64 }
}

func (d *dropCoordTimer) DropBelow() float64 { return d.d.DropBelow() }

func raise(a *atomic.Int64, v int64) {
	if v > a.Load() {
		a.Store(v)
	}
}

// capture records, during one untimed pass, the inputs the per-layer
// replays need: (weight, site threshold) pairs and each shard's
// coordinator traffic in arrival order.
type capture struct {
	mu    sync.Mutex
	limit int
	pairs []wth
	logs  map[int][]logEntry
}

type wth struct{ w, th float64 }

type logEntry struct {
	down bool
	m    core.Message
}

func newCapture(limit int) *capture {
	return &capture{limit: limit, logs: make(map[int][]logEntry)}
}

func (c *capture) pair(w, th float64) {
	c.mu.Lock()
	if len(c.pairs) < c.limit {
		c.pairs = append(c.pairs, wth{w, th})
	}
	c.mu.Unlock()
}

func (c *capture) log(shard int, e logEntry) {
	c.mu.Lock()
	if len(c.logs[shard]) < c.limit {
		c.logs[shard] = append(c.logs[shard], e)
	}
	c.mu.Unlock()
}

func (c *capture) up(shard int, m core.Message) { c.log(shard, logEntry{m: m}) }

func (c *capture) down(shard int, bcast func(core.Message)) func(core.Message) {
	return func(m core.Message) {
		c.log(shard, logEntry{down: true, m: m})
		bcast(m)
	}
}

// String summarizes a capture for the log.
func (c *capture) String() string {
	n := 0
	for _, l := range c.logs {
		n += len(l)
	}
	return fmt.Sprintf("%d (weight, threshold) pairs, %d coordinator messages", len(c.pairs), n)
}
