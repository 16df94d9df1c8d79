package core

import (
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// Site is the per-site state machine of Algorithm 1. It holds O(1) words
// of state — its ControlPlane, the epoch threshold plus one saturation
// bit per level — and does O(1) expected work per update.
type Site struct {
	id    int
	cfg   Config
	r     float64
	rng   *xrand.RNG
	plane ControlPlane
	rec   *Recorder
	jump  xrand.Jump // armed A-ExpJ jump (Config.SkipAhead only)

	// Diagnostics.
	DecisionBits int64 // random bits used by threshold comparisons
	TotalBits    int64 // all random bits, including key materialization
	Observed     int64
	Sent         int64
	Skipped      int64 // arrivals consumed by an armed jump with no RNG draw
	Applied      int64 // broadcasts applied via HandleBroadcast
}

// NewSite returns the state machine for site id. Each site must get an
// independently seeded RNG.
func NewSite(id int, cfg Config, rng *xrand.RNG) *Site {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Site{id: id, cfg: cfg, r: cfg.R(), rng: rng}
}

// ID returns the site's identifier.
func (st *Site) ID() int { return st.id }

// SetRecorder attaches a key recorder (tests only; see Recorder).
func (st *Site) SetRecorder(rec *Recorder) { st.rec = rec }

// Threshold returns the site's current filtering threshold.
func (st *Site) Threshold() float64 { return st.plane.Threshold() }

// Observe processes one local arrival, emitting any resulting message
// through send. It is the hot path: one lazy threshold comparison
// (expected O(1) random bits) and, only if the key passes, one key
// materialization. With Config.SkipAhead the comparison is replaced by
// an armed exponential jump (xrand.Jump): sub-threshold arrivals cost
// one float subtraction and no RNG draws at all.
func (st *Site) Observe(it stream.Item, send func(Message)) error {
	if err := validWeight(it.Weight); err != nil {
		return err
	}
	st.Observed++
	j := levelOf(it.Weight, st.r)
	if !st.cfg.DisableLevelSets && !st.plane.Saturated(j) {
		st.Sent++
		send(Message{Kind: MsgEarly, Item: it})
		return nil
	}
	th := st.plane.Threshold()
	if st.cfg.DisableEpochs {
		th = 0
	}
	if st.cfg.SkipAhead && st.rec == nil && th > 0 {
		// ArmedAt re-arms whenever a broadcast moved the threshold since
		// the last arrival: the old jump targeted the old threshold, and
		// by memorylessness a fresh exponential at the new one is exact.
		if !st.jump.ArmedAt(th) {
			st.jump.Arm(st.rng, th)
		}
		if !st.jump.Offer(it.Weight) {
			st.Skipped++
			return nil
		}
		st.Sent++
		send(Message{Kind: MsgRegular, Item: it, Key: xrand.KeyAbove(st.rng, it.Weight, th)})
		return nil
	}
	te := xrand.NewThresholdExp(st.rng, it.Weight)
	above := te.Above(th)
	if above || st.rec != nil {
		key := te.Key()
		if st.rec != nil {
			st.rec.Record(it.ID, key)
		}
		if above {
			st.Sent++
			send(Message{Kind: MsgRegular, Item: it, Key: key})
		}
	}
	st.DecisionBits += int64(te.DecisionBits())
	st.TotalBits += int64(te.TotalBits())
	return nil
}

// ObserveBatch processes a run of local arrivals, equivalent to calling
// Observe on each in order. Under Config.SkipAhead it is the intended
// ingest entry point: the armed jump is carried across the whole run in
// a local, so a run of sub-threshold arrivals costs one branch and one
// subtraction each with no per-item state traffic. The threshold is
// re-read after every send — a send can advance the epoch synchronously
// — which re-arms the jump exactly as the one-by-one path would.
func (st *Site) ObserveBatch(items []stream.Item, send func(Message)) error {
	if !st.cfg.SkipAhead || st.rec != nil {
		for _, it := range items {
			if err := st.Observe(it, send); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < len(items); {
		it := items[i]
		if err := validWeight(it.Weight); err != nil {
			return err
		}
		th := st.plane.Threshold()
		if st.cfg.DisableEpochs {
			th = 0
		}
		if th <= 0 || (!st.cfg.DisableLevelSets && !st.plane.Saturated(levelOf(it.Weight, st.r))) {
			// Early and no-epoch arrivals take the one-by-one path
			// verbatim, keeping the batch bit-identical to an Observe
			// loop (same RNG draws in the same order).
			if err := st.Observe(it, send); err != nil {
				return err
			}
			i++
			continue
		}
		if !st.jump.ArmedAt(th) {
			st.jump.Arm(st.rng, th)
		}
		// Consume the run under this jump until it lands, the run ends,
		// or an item diverts to the early/naive path above.
		for i < len(items) {
			it = items[i]
			if validWeight(it.Weight) != nil {
				break // surface the error through the outer re-check
			}
			if !st.cfg.DisableLevelSets && !st.plane.Saturated(levelOf(it.Weight, st.r)) {
				break
			}
			i++
			st.Observed++
			if !st.jump.Offer(it.Weight) {
				st.Skipped++
				continue
			}
			st.Sent++
			send(Message{Kind: MsgRegular, Item: it, Key: xrand.KeyAbove(st.rng, it.Weight, th)})
			break // send may have advanced the epoch; re-read threshold
		}
	}
	return nil
}

// ObserveRepeated processes `count` identical copies of an item, as
// needed by the L1-tracking reduction of Section 5 (each update is
// duplicated l = s/(2*eps) times). It is distributionally identical to
// calling Observe count times but runs in O(1 + messages) time: the
// copies that fall below the threshold are skipped in one Binomial draw
// and the passing keys are drawn from the conditional (truncated
// exponential) distribution.
//
// When a Recorder is attached it falls back to the one-by-one path so
// every key is materialized.
func (st *Site) ObserveRepeated(it stream.Item, count int, send func(Message)) error {
	if err := validWeight(it.Weight); err != nil {
		return err
	}
	if count < 0 {
		count = 0
	}
	if st.rec != nil {
		for i := 0; i < count; i++ {
			if err := st.Observe(it, send); err != nil {
				return err
			}
		}
		return nil
	}
	j := levelOf(it.Weight, st.r)
	// Withheld copies go out one by one until the level saturates (the
	// saturation broadcast may flip the flag mid-loop in the synchronous
	// runtime, which is why the flag is re-checked per copy).
	for count > 0 && !st.cfg.DisableLevelSets && !st.plane.Saturated(j) {
		st.Observed++
		st.Sent++
		send(Message{Kind: MsgEarly, Item: it})
		count--
	}
	// Remaining copies are regular. Walk from one passing copy to the
	// next with an exponential jump over the run of identical weights
	// (xrand.Jump.SkipIdentical realizes the geometric skip law — a copy
	// passes with p = 1 - e^(-w/th)), re-reading the threshold after
	// every send — a send can advance the epoch synchronously, so this
	// is exactly equivalent to the one-by-one loop while doing
	// O(1 + messages sent) work. The jump is re-armed per iteration
	// rather than carried in st.jump so the copies of one call never
	// share randomness with surrounding Observe arrivals.
	for count > 0 {
		th := st.plane.Threshold()
		if st.cfg.DisableEpochs {
			th = 0
		}
		if th <= 0 {
			st.Observed++
			st.Sent++
			count--
			send(Message{Kind: MsgRegular, Item: it, Key: st.rng.ExpKey(it.Weight)})
			continue
		}
		var jp xrand.Jump
		jp.Arm(st.rng, th)
		skip := jp.SkipIdentical(it.Weight, count)
		st.Skipped += int64(skip)
		if skip >= count {
			st.Observed += int64(count)
			return nil
		}
		st.Observed += int64(skip + 1)
		count -= skip + 1
		st.Sent++
		send(Message{Kind: MsgRegular, Item: it, Key: xrand.KeyAbove(st.rng, it.Weight, th)})
	}
	return nil
}

// HandleBroadcast applies a coordinator announcement to the site's
// control plane (ControlPlane.Apply, which ignores what no coordinator
// sends). It never sends.
func (st *Site) HandleBroadcast(m Message) {
	st.Applied++
	st.plane.Apply(m)
}
