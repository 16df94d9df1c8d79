// Package relay implements the hierarchical aggregation tier that
// scales the protocol's fan-in: an intermediate node that terminates a
// slice of site (or lower-relay) connections, locally pre-filters their
// upstream candidate streams, coalesces the survivors into batch frames
// on ONE upstream connection, and fans coordinator broadcasts back down
// to its children. A depth-D tree of fanout F puts min(F, k)
// connections on the root instead of k, while both filters only ever
// drop messages the coordinator would drop on arrival anyway — see
// DESIGN.md §14 for the exactness and staleness arguments.
//
// Two independent filters run at every relay, per shard:
//
//   - Threshold pre-filter: a MsgRegular whose key is at or below the
//     last epoch threshold the relay saw broadcast is dropped. A site
//     with a fresh control plane would not have sent it (sites send only
//     strictly above the threshold), and every broadcast threshold is a
//     proven lower bound on the coordinator's s-th released key, so the
//     message has at least s released dominators and cannot enter any
//     future sample. Safe for every application, because it exactly
//     emulates a fresher site.
//   - Top-s union merge (Options.Merge): the relay keeps the top-s keys
//     it has forwarded on this shard; a MsgRegular at or below the
//     minimum of a full top-s is dropped — it has s forwarded dominators
//     in this relay's own substream, so by the union-top-s argument (the
//     same one behind the shard fabric's query merge) it can never be in
//     the global top-s. Safe only for protocols whose answers read
//     nothing beyond the coordinator's top-s state: the plain sampler,
//     heavy hitters, and quantiles opt in via the
//     core.Coordinator.UnionTopSMergeable marker; the L1 tracker's
//     exact-prefix accumulator and the windowed retention do not.
//
// Early messages, window candidates, and clock advances always pass
// through: their keys are either generated coordinator-side (early) or
// their retention is not top-s shaped (window).
package relay

import (
	"wrs/internal/core"
	"wrs/internal/sample"
	"wrs/internal/wire"
)

// Machine is the per-(relay, shard) filter state machine: the monotone
// control-plane view (a core.ControlPlane) used for pre-filtering and
// child join snapshots, plus the optional top-s merge heap. It
// implements netsim.TreeRelay[core.Message], so the deterministic
// driver (netsim.Cluster, under the sequential runtime and the chaos
// engine alike) and the TCP relay share one filtering implementation.
// Not safe for concurrent use; the TCP relay serializes access under
// its parent-writer mutex.
type Machine struct {
	merge bool
	plane core.ControlPlane      // fold of the broadcasts seen
	top   *sample.TopK[struct{}] // keys forwarded upstream (merge mode)

	forwarded int64
	filtered  int64
}

// NewMachine returns a relay filter machine for sample size s; merge
// enables the top-s union merge (see the package comment for when that
// is sound).
func NewMachine(s int, merge bool) *Machine {
	m := &Machine{merge: merge}
	if merge {
		m.top = sample.NewTopK[struct{}](s)
	}
	return m
}

// Up processes one upstream message: it either swallows it (both
// filters only drop messages with s proven dominators) or hands it to
// forward unchanged.
func (m *Machine) Up(msg core.Message, forward func(core.Message)) {
	if msg.Kind == core.MsgRegular {
		if th := m.plane.Threshold(); th > 0 && msg.Key <= th {
			m.filtered++
			return
		}
		if m.merge {
			if min, ok := m.top.Min(); ok && m.top.Full() && msg.Key <= min {
				m.filtered++
				return
			}
			m.top.Offer(msg.Key, struct{}{})
		}
	}
	m.forwarded++
	forward(msg)
}

// Down observes one coordinator broadcast on its way down, folding it
// into the relay's control plane so it can pre-filter and give joining
// children a snapshot.
func (m *Machine) Down(msg core.Message) { m.plane.Apply(msg) }

// ControlPlane returns the fold of the broadcasts seen: the view a child
// that attaches mid-stream replays. Broadcasts are monotone, so
// replaying state the child also receives live never moves it backwards.
func (m *Machine) ControlPlane() core.ControlPlane { return m.plane }

// Snapshot emits the control plane as broadcasts (ControlPlane.Snapshot).
func (m *Machine) Snapshot(emit func(core.Message)) { m.plane.Snapshot(emit) }

// Threshold returns the largest broadcast threshold seen (diagnostics).
func (m *Machine) Threshold() float64 { return m.plane.Threshold() }

// Forwarded returns how many upstream messages passed the filters.
func (m *Machine) Forwarded() int64 { return m.forwarded }

// Filtered returns how many upstream messages were swallowed.
func (m *Machine) Filtered() int64 { return m.filtered }

// UnionMergeable reports whether a coordinator-side protocol has opted
// in to the top-s union merge via the UnionTopSMergeable marker method
// (core.Coordinator has it; application wrappers whose answers read
// more than the top-s deliberately do not).
func UnionMergeable(proto any) bool {
	mk, ok := proto.(interface{ UnionTopSMergeable() bool })
	return ok && mk.UnionTopSMergeable()
}

// ProcessUpFrame decodes one child-to-parent batch frame against the
// per-shard machines, running every message through the target shard's
// filters (wire.ResolveShard names the shard) and handing survivors to
// forward. Malformed input — bad shard tag, out-of-range shard,
// misaligned or undecodable message section — returns an error so the
// caller drops the child connection; it never panics (FuzzRelayFrames).
func ProcessUpFrame(machines []*Machine, payload []byte, forward func(shard int, m core.Message)) error {
	shard, msgs, err := wire.ResolveShard(payload, len(machines))
	if err != nil {
		return err
	}
	mach := machines[shard]
	return wire.ForEachMessage(msgs, func(m core.Message) {
		mach.Up(m, func(fm core.Message) { forward(shard, fm) })
	})
}

// ProcessDownFrame decodes one parent-to-child broadcast frame,
// updating the target shard machine's control-plane view, and returns
// the message and word counts for fan-down accounting. Malformed input
// returns an error — the parent link is unusable — never a panic.
func ProcessDownFrame(machines []*Machine, payload []byte) (msgs, words int64, err error) {
	shard, body, err := wire.ResolveShard(payload, len(machines))
	if err != nil {
		return 0, 0, err
	}
	mach := machines[shard]
	err = wire.ForEachMessage(body, func(m core.Message) {
		mach.Down(m)
		msgs++
		words += int64(m.Words())
	})
	return msgs, words, err
}
