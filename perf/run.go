package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"wrs"
)

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds float64 // measured time per workload
	trace   bool
	out     string // trace directory
	plant   bool   // corrupt one answer to prove the gates fire
}

// probesPerRep is how many Flush+Query probes a closed-loop rep makes:
// enough that a run of ~8 reps supports a 99th percentile.
const probesPerRep = 128

// setupCycles is how many Open/Close cycles setup_s takes the median of.
const setupCycles = 101

// rep is one measured pass over a workload's stream.
type rep struct {
	traced  bool
	wall    time.Duration // first Observe to the return of the last Flush
	wait    time.Duration // open loop: time the generator waited for its schedule
	updates int
	stats   wrs.Stats
	allocB  float64 // heap bytes allocated during the timed window
	liveB   float64 // heap retained by the open handle
	calls   int64   // Observe/ObserveBatch calls
	fresh   []float64
	query   []float64
	late    []float64
}

func (p *rep) nsPerUpdate() float64 { return float64(p.wall.Nanoseconds()) / float64(p.updates) }

func (p *rep) msgsPerUpdate() float64 {
	return float64(p.stats.Upstream+p.stats.Downstream) / float64(p.updates)
}

// runner measures one workload.
type runner struct {
	w   *workload
	cfg config
	in  *inputs

	attempted, failed int64
	failures          []string
	planted           bool
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// call counts an operation of the system and records its error.
func (r *runner) call(err error, what string) bool {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// check counts a correctness gate.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func heapInUse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// measureSetup times wrs.Open over several Open/Close cycles, each after
// a garbage collection so no cycle pays for an earlier one's garbage.
func (r *runner) measureSetup() []float64 {
	var out []float64
	for c := 0; c < setupCycles; c++ {
		runtime.GC()
		t := time.Now()
		s, err := r.w.open(r.cfg.seed, nil, nil)
		d := time.Since(t)
		if !r.call(err, "open") {
			continue
		}
		out = append(out, d.Seconds())
		r.call(s.h.Close(), "close")
	}
	return out
}

// closedRep opens a fresh Handle, feeds the whole stream and ends with
// Flush. Every n/probesPerRep updates it flushes and queries: a probe's
// freshness is the time from the return of the last Observe to the
// return of the Query that reads it.
func (r *runner) closedRep(tr *tracer) *rep {
	w := r.w
	s, err := r.openFor(tr)
	if !r.call(err, "open") {
		return nil
	}
	p := &rep{traced: tr != nil, updates: w.n}
	step := max(w.batch, 1)
	probeEvery := max(w.n/probesPerRep/step, 1) * step
	next, done := probeEvery, 0

	runtime.GC()
	a0 := heapAllocs()
	t0 := time.Now()
	err = w.each(r.in.items, func(site int, part []wrs.Item) error {
		if err := r.observe(s, tr, p, site, part); err != nil {
			return err
		}
		if done += len(part); done < next || done == w.n {
			return nil
		}
		next += probeEvery
		tp := time.Now()
		if err := r.flush(s, tr); err != nil {
			return err
		}
		tq := time.Now()
		s.query()
		end := time.Now()
		p.fresh = append(p.fresh, ms(end.Sub(tp)))
		p.query = append(p.query, ms(end.Sub(tq)))
		return nil
	})
	r.attempted += int64(w.n) + 2*int64(len(p.query))
	r.call(err, "feed")
	r.call(r.flush(s, tr), "flush")
	p.wall = time.Since(t0)
	p.allocB = heapAllocs() - a0
	p.stats = s.h.Stats()
	r.checkAnswer(r.answer(s), int64(w.n))
	p.liveB = heapInUse()
	r.call(s.h.Close(), "close")
	p.liveB -= heapInUse()
	return p
}

// observe delivers one Observe or ObserveBatch call, inside a generator
// span when the call is sampled for the trace.
func (r *runner) observe(s *session, tr *tracer, p *rep, site int, part []wrs.Item) error {
	sampled := tr != nil && p.calls%sampleEvery == 0
	if sampled {
		tr.beginGen(spObserve, rootObserve, p.calls)
	}
	err := r.w.deliver(s.h, site, part)
	if sampled {
		tr.endGen()
	}
	p.calls++
	return err
}

// openFor opens the workload, decorated when traced.
func (r *runner) openFor(tr *tracer) (*session, error) {
	if tr == nil {
		return r.w.open(r.cfg.seed, nil, nil)
	}
	return r.w.open(r.cfg.seed, tr.decorate(r.w), tr)
}

func (r *runner) flush(s *session, tr *tracer) error {
	if tr == nil {
		return s.h.Flush()
	}
	tr.beginGen(spFlush, rootFlush, 0)
	err := s.h.Flush()
	tr.endGen()
	return err
}

// answer runs the final query, corrupted once when planting.
func (r *runner) answer(s *session) answer {
	a := s.query()
	if r.cfg.plant && !r.planted {
		r.planted = true
		a = plantWrong(a)
	}
	return a
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// closedReps runs reps until the time budget is spent, at least minReps
// of each kind. In trace mode traced and untraced reps alternate.
func (r *runner) closedReps(budget time.Duration, tr *tracer) []*rep {
	const minReps = 3
	var reps []*rep
	start := time.Now()
	for i := 0; ; i++ {
		if time.Since(start) >= budget && count(reps, false) >= minReps && (tr == nil || count(reps, true) >= minReps) {
			return reps
		}
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
		}
		p := r.closedRep(t)
		if p == nil {
			return reps
		}
		reps = append(reps, p)
	}
}

func count(reps []*rep, traced bool) int {
	plain, tr := split(reps)
	if traced {
		return len(tr)
	}
	return len(plain)
}

// pacedRep runs the open loop for d: batches due on an absolute
// schedule at the workload's rate, a Flush every flushMS of schedule
// time, and a querier goroutine at queryHz. A batch's freshness is the
// time from when it was due to the return of the first Flush after it.
func (r *runner) pacedRep(d time.Duration, tr *tracer) *rep {
	w := r.w
	s, err := r.openFor(tr)
	if !r.call(err, "open") {
		return nil
	}
	n := w.openLoopUpdates(d)
	p := &rep{traced: tr != nil, updates: n}
	interval := time.Duration(float64(w.batch) / w.rate * 1e9)
	flushEvery := time.Duration(w.flushMS * 1e6)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var qErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Duration(1e9 / w.queryHz))
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t := time.Now()
				a := s.query()
				p.query = append(p.query, ms(time.Since(t)))
				if a.est == nil && qErr == nil {
					qErr = fmt.Errorf("query returned no estimate")
				}
			}
		}
	}()

	batch := make([]wrs.Item, w.batch)
	var pending []time.Time
	runtime.GC()
	a0 := heapAllocs()
	t0 := time.Now().Add(time.Millisecond)
	nextFlush := t0.Add(flushEvery)
	var last time.Time
	for j := 0; j*w.batch < n; j++ {
		due := t0.Add(time.Duration(j) * interval)
		tw := time.Now()
		waitUntil(due)
		p.wait += time.Since(tw)
		p.late = append(p.late, ms(time.Since(due)))
		base := j * w.batch
		for i := range batch {
			id := uint64(base + i)
			batch[i] = wrs.Item{ID: id, Weight: r.in.weightOf(id)}
		}
		if !r.call(r.observe(s, tr, p, j%w.k, batch), "observe") {
			break
		}
		pending = append(pending, due)
		if !due.Before(nextFlush) || (j+1)*w.batch >= n {
			for !due.Before(nextFlush) {
				nextFlush = nextFlush.Add(flushEvery)
			}
			if !r.call(r.flush(s, tr), "flush") {
				break
			}
			last = time.Now()
			for _, dt := range pending {
				p.fresh = append(p.fresh, ms(last.Sub(dt)))
			}
			pending = pending[:0]
		}
	}
	p.wall = last.Sub(t0)
	p.allocB = heapAllocs() - a0
	close(stop)
	wg.Wait()
	r.call(qErr, "concurrent query")
	r.attempted += int64(n) + int64(len(p.query))
	p.stats = s.h.Stats()
	r.checkAnswer(r.answer(s), int64(n))
	p.liveB = heapInUse()
	r.call(s.h.Close(), "close")
	p.liveB -= heapInUse()
	return p
}

// waitUntil sleeps until t. The generator never spins: on a 2-CPU host a
// spinning generator would take a CPU from the system it measures. A
// late wake-up delays the batch, which its freshness and the generator's
// lateness both record, and the absolute schedule catches up after it.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
