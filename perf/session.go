package main

import (
	"wrs"
	rt "wrs/internal/runtime"
	"wrs/internal/xrand"
)

// handle is the ingest surface every wrs.Handle[Q] shares.
type handle interface {
	Observe(site int, it wrs.Item) error
	ObserveBatch(site int, items []wrs.Item) error
	Flush() error
	Stats() wrs.Stats
	Close() error
}

// answer is a query result in the shape the correctness gates read.
type answer struct {
	items  []wrs.Sampled         // Sampler and Windowed
	window int                   // Windowed: positions inside some window
	est    *wrs.QuantileEstimate // Quantiles
}

// session is one open Handle together with its typed query.
type session struct {
	h     handle
	query func() answer
}

// hookApp wraps an application so the benchmark can reach the protocol
// instances Open builds (to attach recorders or timing decorators) and
// time the query's locked views. Everything else is delegated, so the
// Handle, runtime and shards are exactly those of the plain app.
type hookApp[Q any] struct {
	inner wrs.App[Q]
	hook  func([]rt.Instance)
	tr    *tracer
}

func (a *hookApp[Q]) Sites() int { return a.inner.Sites() }

func (a *hookApp[Q]) Instances(k, shards int, master *xrand.RNG) ([]rt.Instance, error) {
	insts, err := a.inner.Instances(k, shards, master)
	if err == nil && a.hook != nil {
		a.hook(insts)
	}
	return insts, err
}

func (a *hookApp[Q]) Query(snaps wrs.Snapshots) Q {
	if a.tr == nil {
		return a.inner.Query(snaps)
	}
	q := a.tr.beginQuery()
	ans := a.inner.Query(timedSnaps{Snapshots: snaps, q: q})
	a.tr.endQuery(q)
	return ans
}

// timedSnaps times every locked per-shard view of one traced query.
type timedSnaps struct {
	wrs.Snapshots
	q *querySpan
}

func (s timedSnaps) View(p int, fn func()) {
	v := s.q.beginView()
	s.Snapshots.View(p, fn)
	s.q.endView(v)
}

// open opens the workload's application with the given protocol seed.
// hook, when non-nil, sees the protocol instances before the runtime
// starts; tr, when non-nil, times queries.
func (w *workload) open(seed uint64, hook func([]rt.Instance), tr *tracer) (*session, error) {
	opts := []wrs.Option{wrs.WithSeed(seed), wrs.WithRuntime(w.runtime()), wrs.WithShards(w.shards)}
	switch w.app {
	case appWindowed:
		h, err := wrs.Open(wrap(wrs.Windowed(w.k, w.s, w.width), hook, tr), opts...)
		if err != nil {
			return nil, err
		}
		return &session{h: h, query: func() answer {
			ws := h.Query()
			return answer{items: ws.Items, window: ws.Window}
		}}, nil
	case appQuantiles:
		h, err := wrs.Open(wrap(wrs.Quantiles(w.k, w.eps, w.delta), hook, tr), opts...)
		if err != nil {
			return nil, err
		}
		return &session{h: h, query: func() answer {
			est := h.Query()
			return answer{est: &est}
		}}, nil
	default:
		h, err := wrs.Open(wrap(wrs.Sampler(w.k, w.s), hook, tr), opts...)
		if err != nil {
			return nil, err
		}
		return &session{h: h, query: func() answer { return answer{items: h.Query()} }}, nil
	}
}

// wrap returns app unchanged when there is nothing to hook, so untraced
// runs open exactly the shipped descriptor.
func wrap[Q any](app wrs.App[Q], hook func([]rt.Instance), tr *tracer) wrs.App[Q] {
	if hook == nil && tr == nil {
		return app
	}
	return &hookApp[Q]{inner: app, hook: hook, tr: tr}
}
