package main

import (
	"math"

	"wrs"
	"wrs/internal/core"
	rt "wrs/internal/runtime"
)

// oraclePrefix is the stream prefix the recorder oracle replays.
const oraclePrefix = 1 << 18

// checkAnswer validates a final query answer over an n-update stream.
func (r *runner) checkAnswer(a answer, n int64) {
	w := r.w
	switch w.app {
	case appQuantiles:
		r.check(a.est != nil, "%s: query returned no estimate", w.name)
		if a.est == nil {
			return
		}
		s := int64(w.sampleSize())
		r.check(a.est.Total() > 0 && a.est.Saturated() == (n > s),
			"%s: estimate total %v, saturated %v over %d updates", w.name, a.est.Total(), a.est.Saturated(), n)
		exact := newWeightedCDF(r.in.weights, n)
		e := exact.maxCDFError(a.est.CDF, 4096)
		r.check(e <= w.eps, "%s: max CDF error %.4f exceeds eps %.2f", w.name, e, w.eps)
	case appWindowed:
		r.checkSample(a.items, min(int64(a.window), int64(w.s)), n)
	default:
		r.checkSample(a.items, min(n, int64(w.s)), n)
	}
}

// checkSample checks that a sample is structurally valid: the expected
// size, distinct IDs, keys positive, finite and in descending order, and
// every item taken from the input.
func (r *runner) checkSample(items []wrs.Sampled, want, n int64) {
	w := r.w
	r.check(int64(len(items)) == want, "%s: sample has %d items, want %d", w.name, len(items), want)
	seen := make(map[uint64]bool, len(items))
	for i, it := range items {
		id := it.Item.ID
		ok := id < uint64(n) && !seen[id] && it.Item.Weight == r.in.weightOf(id) &&
			it.Key > 0 && !math.IsInf(it.Key, 0) && (i == 0 || items[i-1].Key >= it.Key)
		if !ok {
			r.check(false, "%s: sample entry %d (id %d, weight %v, key %v) is invalid", w.name, i, id, it.Item.Weight, it.Key)
			return
		}
		seen[id] = true
	}
	r.check(true, "")
}

// plantWrong corrupts an answer the way a broken sampler might: an item
// that was never observed, or a missing estimate.
func plantWrong(a answer) answer {
	if a.est != nil {
		a.est = nil
		return a
	}
	items := append([]wrs.Sampled(nil), a.items...)
	if len(items) > 0 {
		items[0].Item.ID = math.MaxUint64
	}
	a.items = items
	return a
}

// oracleRun attaches a core.Recorder to every site and coordinator, runs
// a prefix of the stream over the workload's own runtime and shard
// count, and checks that Query equals the exact top-s of every key the
// protocol generated.
func (r *runner) oracleRun() {
	w := r.w
	items := r.in.items[:min(len(r.in.items), oraclePrefix)]
	rec := core.NewRecorder()
	attached := true
	hook := func(insts []rt.Instance) {
		for _, inst := range insts {
			c, ok := inst.Coord.(*core.Coordinator)
			attached = attached && ok
			if ok {
				c.SetRecorder(rec)
			}
			for _, m := range inst.Sites {
				st, ok := m.(*core.Site)
				attached = attached && ok
				if ok {
					st.SetRecorder(rec)
				}
			}
		}
	}
	s, err := w.open(r.cfg.seed, hook, nil)
	if !r.call(err, "oracle open") {
		return
	}
	r.check(attached, "%s: oracle could not attach a recorder to every machine", w.name)
	r.call(w.feed(s.h, items), "oracle feed")
	got := s.query().items
	r.call(s.h.Close(), "oracle close")

	keys := make(map[uint64]float64, rec.Len())
	for i := 0; i < rec.Len(); i++ {
		id, key := rec.At(i)
		keys[id] = key
	}
	top := rec.TopIDs(w.s)
	r.check(len(keys) == len(items), "%s: recorder saw %d keys for %d updates", w.name, len(keys), len(items))
	r.check(len(got) == len(top), "%s: oracle sample has %d items, exact top-s has %d", w.name, len(got), len(top))
	for _, it := range got {
		if k, ok := keys[it.Item.ID]; !top[it.Item.ID] || !ok || k != it.Key {
			r.check(false, "%s: sampled id %d (key %v) is not in the exact top-%d", w.name, it.Item.ID, it.Key, w.s)
			return
		}
	}
	r.check(true, "")
}

// sequentialUpstream replays the stream on the Sequential runtime with
// the same seed, shards and feeding shape and returns its upstream
// message count. The windowed protocol's traffic does not depend on
// interleaving, so every runtime must match it exactly.
func (r *runner) sequentialUpstream() (int64, bool) {
	seq := *r.w
	seq.runtime = wrs.Sequential
	s, err := seq.open(r.cfg.seed, nil, nil)
	if !r.call(err, "replay open") {
		return 0, false
	}
	ok := r.call(seq.feed(s.h, r.in.items), "replay feed")
	up := s.h.Stats().Upstream
	r.call(s.h.Close(), "replay close")
	return up, ok
}
