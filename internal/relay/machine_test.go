package relay

import (
	"math"
	"testing"

	"wrs/internal/core"
	"wrs/internal/stream"
	"wrs/internal/wire"
	"wrs/internal/xrand"
)

func upAll(m *Machine, msgs ...core.Message) []core.Message {
	var out []core.Message
	for _, msg := range msgs {
		m.Up(msg, func(fm core.Message) { out = append(out, fm) })
	}
	return out
}

func regular(key float64) core.Message {
	return core.Message{Kind: core.MsgRegular, Item: stream.Item{ID: uint64(key * 1000), Weight: key}, Key: key}
}

func TestMachineThresholdFilter(t *testing.T) {
	m := NewMachine(4, false)
	if got := upAll(m, regular(1)); len(got) != 1 {
		t.Fatalf("no threshold yet: forwarded %d, want 1", len(got))
	}
	m.Down(core.Message{Kind: core.MsgEpochUpdate, Threshold: 5})
	if m.Threshold() != 5 {
		t.Fatalf("threshold %g, want 5", m.Threshold())
	}
	if got := upAll(m, regular(4), regular(5)); len(got) != 0 {
		t.Errorf("keys at/below threshold forwarded: %v", got)
	}
	if got := upAll(m, regular(5.5)); len(got) != 1 {
		t.Errorf("key above threshold filtered")
	}
	// Thresholds are monotone: a stale lower broadcast must not regress.
	m.Down(core.Message{Kind: core.MsgEpochUpdate, Threshold: 3})
	if m.Threshold() != 5 {
		t.Errorf("threshold regressed to %g after stale broadcast", m.Threshold())
	}
	// Non-regular kinds always pass, whatever the threshold.
	passthrough := []core.Message{
		{Kind: core.MsgEarly, Item: stream.Item{ID: 9, Weight: 0.1}},
		{Kind: core.MsgWindow, Item: stream.Item{ID: 10, Weight: 0.1}, Key: 0.1, Level: 7},
		{Kind: core.MsgClock, Level: 9},
	}
	if got := upAll(m, passthrough...); len(got) != len(passthrough) {
		t.Errorf("non-regular kinds: forwarded %d of %d", len(got), len(passthrough))
	}
	if m.Filtered() != 2 {
		t.Errorf("filtered = %d, want 2", m.Filtered())
	}
}

func TestMachineMergeFilter(t *testing.T) {
	m := NewMachine(2, true)
	if got := upAll(m, regular(10), regular(9)); len(got) != 2 {
		t.Fatalf("first s keys must forward, got %d", len(got))
	}
	// Top-2 is {10, 9}: anything at or below 9 has 2 forwarded dominators.
	if got := upAll(m, regular(8), regular(9)); len(got) != 0 {
		t.Errorf("dominated keys forwarded: %v", got)
	}
	if got := upAll(m, regular(9.5)); len(got) != 1 {
		t.Errorf("new top-2 key filtered")
	}
	// Merge off: everything below threshold 0 forwards.
	off := NewMachine(2, false)
	if got := upAll(off, regular(10), regular(9), regular(1), regular(1)); len(got) != 4 {
		t.Errorf("merge off: forwarded %d of 4", len(got))
	}
}

func TestMachineSnapshot(t *testing.T) {
	m := NewMachine(4, false)
	var empty []core.Message
	m.Snapshot(func(msg core.Message) { empty = append(empty, msg) })
	if len(empty) != 0 {
		t.Fatalf("fresh machine snapshot emitted %v", empty)
	}
	m.Down(core.Message{Kind: core.MsgLevelSaturated, Level: 3})
	m.Down(core.Message{Kind: core.MsgLevelSaturated, Level: -1}) // no coordinator sends it: ignored
	m.Down(core.Message{Kind: core.MsgLevelSaturated, Level: 1})
	m.Down(core.Message{Kind: core.MsgEpochUpdate, Threshold: 2.5})
	var got []core.Message
	m.Snapshot(func(msg core.Message) { got = append(got, msg) })
	if len(got) != 3 {
		t.Fatalf("snapshot emitted %d messages, want 3", len(got))
	}
	if got[0].Level != 1 || got[1].Level != 3 {
		t.Errorf("levels not ascending: %v", got)
	}
	if got[2].Kind != core.MsgEpochUpdate || got[2].Threshold != 2.5 {
		t.Errorf("threshold message %v", got[2])
	}
}

// A forged broadcast frame on a relay's parent link must neither
// silence its threshold filter nor grow the state it replays to every
// child that joins.
func TestMachineIgnoresForgedBroadcasts(t *testing.T) {
	m := NewMachine(4, false)
	honest := []core.Message{
		{Kind: core.MsgLevelSaturated, Level: 2},
		{Kind: core.MsgEpochUpdate, Threshold: 5},
	}
	forged := []core.Message{
		{Kind: core.MsgLevelSaturated, Level: -1},
		{Kind: core.MsgLevelSaturated, Level: core.MaxLevel + 1},
		{Kind: core.MsgLevelSaturated, Level: math.MaxInt32},
		{Kind: core.MsgEpochUpdate, Threshold: math.Inf(1)},
		{Kind: core.MsgEpochUpdate, Threshold: math.NaN()},
		{Kind: core.MsgEpochUpdate, Threshold: -5},
	}
	for _, msg := range honest {
		m.Down(msg)
	}
	want := m.ControlPlane()
	for _, msg := range forged {
		m.Down(msg)
	}
	if m.ControlPlane() != want {
		t.Fatal("forged broadcasts changed the relay's control plane")
	}
	if th := m.Threshold(); th != 5 {
		t.Errorf("threshold %v after forged broadcasts, want 5", th)
	}
	if got := upAll(m, regular(6), regular(1e300)); len(got) != 2 {
		t.Errorf("keys above the real threshold: forwarded %d of 2", len(got))
	}
	var snap []core.Message
	m.Snapshot(func(msg core.Message) { snap = append(snap, msg) })
	if len(snap) != 2 || snap[0] != honest[0] || snap[1] != honest[1] {
		t.Errorf("snapshot %v, want exactly %v", snap, honest)
	}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		n++
		m.Down(core.Message{Kind: core.MsgLevelSaturated, Level: core.MaxLevel + n})
		m.Down(core.Message{Kind: core.MsgLevelSaturated, Level: -n})
		for _, msg := range forged {
			m.Down(msg)
		}
	})
	if allocs != 0 {
		t.Errorf("forged Down calls allocate %v times per run, want 0", allocs)
	}
	if m.ControlPlane() != want {
		t.Error("a stream of forged levels changed the relay's control plane")
	}
}

type optedOut struct{}

func (optedOut) UnionTopSMergeable() bool { return false }

func TestUnionMergeable(t *testing.T) {
	cfg := core.Config{K: 2, S: 4}
	coord := core.NewCoordinator(cfg, xrand.New(1))
	if !UnionMergeable(coord) {
		t.Error("core.Coordinator must be union-mergeable")
	}
	if UnionMergeable(struct{}{}) {
		t.Error("markerless type reported mergeable")
	}
	if UnionMergeable(optedOut{}) {
		t.Error("explicit false reported mergeable")
	}
	// The window coordinator wraps the sampler in a plain field; the
	// marker must not leak through.
	wc := core.NewWindowCoordinator(cfg, 16, xrand.New(2))
	if UnionMergeable(wc) {
		t.Error("window coordinator reported mergeable: non-monotone retention reads beyond the top-s")
	}
}

func frame(shard, shards int, msgs ...core.Message) []byte {
	var p []byte
	if shards > 1 {
		p = wire.AppendShardHeader(p, shard)
	}
	return wire.AppendMessages(p, msgs)
}

func TestProcessUpFrameRouting(t *testing.T) {
	machines := []*Machine{NewMachine(4, false), NewMachine(4, false)}
	machines[1].Down(core.Message{Kind: core.MsgEpochUpdate, Threshold: 5})
	var got []struct {
		shard int
		m     core.Message
	}
	forward := func(shard int, m core.Message) {
		got = append(got, struct {
			shard int
			m     core.Message
		}{shard, m})
	}
	if err := ProcessUpFrame(machines, frame(0, 2, regular(1)), forward); err != nil {
		t.Fatal(err)
	}
	if err := ProcessUpFrame(machines, frame(1, 2, regular(1), regular(6)), forward); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].shard != 0 || got[1].shard != 1 || got[1].m.Key != 6 {
		t.Errorf("routing got %+v", got)
	}
	if machines[1].Filtered() != 1 {
		t.Errorf("shard 1 filtered %d, want 1", machines[1].Filtered())
	}
}

func TestProcessFramesMalformed(t *testing.T) {
	one := []*Machine{NewMachine(4, false)}
	two := []*Machine{NewMachine(4, false), NewMachine(4, false)}
	drop := func(int, core.Message) {}
	badKind := make([]byte, wire.MessageSize)
	badKind[0] = 99
	beyondHosted := wire.AppendMessages(wire.AppendShardHeader(nil, 5), []core.Message{regular(1)})
	cases := []struct {
		name     string
		machines []*Machine
		payload  []byte
	}{
		{"misaligned", one, []byte{1, 2, 3}},
		{"truncated shard header", two, []byte{0xF5, 0}},
		{"untagged on sharded", two, frame(0, 1, regular(1))},
		{"bad kind", one, badKind},
		{"shard beyond hosted", two, beyondHosted},
	}
	for _, tc := range cases {
		if err := ProcessUpFrame(tc.machines, tc.payload, drop); err == nil {
			t.Errorf("ProcessUpFrame(%s): no error", tc.name)
		}
		if _, _, err := ProcessDownFrame(tc.machines, tc.payload); err == nil {
			t.Errorf("ProcessDownFrame(%s): no error", tc.name)
		}
	}
}

func TestProcessDownFrameCounts(t *testing.T) {
	machines := []*Machine{NewMachine(4, false)}
	p := frame(0, 1,
		core.Message{Kind: core.MsgEpochUpdate, Threshold: 2},
		core.Message{Kind: core.MsgLevelSaturated, Level: 1},
	)
	msgs, words, err := ProcessDownFrame(machines, p)
	if err != nil {
		t.Fatal(err)
	}
	if msgs != 2 || words != 4 {
		t.Errorf("msgs=%d words=%d, want 2 and 4", msgs, words)
	}
	if machines[0].Threshold() != 2 {
		t.Errorf("threshold %g, want 2", machines[0].Threshold())
	}
}
