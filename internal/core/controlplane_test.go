package core

import (
	"encoding/binary"
	"math"
	"testing"

	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// forgedBroadcasts are broadcasts no coordinator sends: levels outside
// [0, MaxLevel] and thresholds that are not finite and positive.
var forgedBroadcasts = []Message{
	{Kind: MsgLevelSaturated, Level: -1},
	{Kind: MsgLevelSaturated, Level: MaxLevel + 1},
	{Kind: MsgLevelSaturated, Level: math.MaxInt32},
	{Kind: MsgEpochUpdate, Threshold: math.Inf(1)},
	{Kind: MsgEpochUpdate, Threshold: math.NaN()},
	{Kind: MsgEpochUpdate, Threshold: -5},
}

func fold(msgs []Message) ControlPlane {
	var p ControlPlane
	for _, m := range msgs {
		p.Apply(m)
	}
	return p
}

func snapshotOf(p *ControlPlane) []Message {
	var out []Message
	p.Snapshot(func(m Message) { out = append(out, m) })
	return out
}

// broadcastMix is a broadcast sequence with honest levels at both ends
// of the bitset and across word boundaries, rising and stale
// thresholds, non-broadcast kinds, and the forged broadcasts.
func broadcastMix() []Message {
	msgs := []Message{
		{Kind: MsgLevelSaturated, Level: 0},
		{Kind: MsgLevelSaturated, Level: 63},
		{Kind: MsgLevelSaturated, Level: 64},
		{Kind: MsgLevelSaturated, Level: 700},
		{Kind: MsgLevelSaturated, Level: MaxLevel},
		{Kind: MsgEpochUpdate, Threshold: 2},
		{Kind: MsgEpochUpdate, Threshold: 16},
		{Kind: MsgEpochUpdate, Threshold: 4},
		{Kind: MsgEpochUpdate, Threshold: math.MaxFloat64},
		{Kind: MsgEarly, Level: 5, Threshold: 1e300},
		{Kind: MsgRegular, Level: 6, Key: 3},
		{Kind: MsgWindow, Level: 7},
		{Kind: MsgClock, Level: 8},
	}
	return append(msgs, forgedBroadcasts...)
}

func TestControlPlaneFoldOrderAndRepeats(t *testing.T) {
	msgs := broadcastMix()
	want := fold(msgs)
	if want.Threshold() != math.MaxFloat64 {
		t.Fatalf("threshold %v, want MaxFloat64", want.Threshold())
	}
	rng := xrand.New(20261019)
	for trial := 0; trial < 200; trial++ {
		perm := append([]Message(nil), msgs...)
		// Repeat a random prefix, then shuffle (Fisher-Yates).
		perm = append(perm, perm[:rng.Intn(len(perm))]...)
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		if got := fold(perm); got != want {
			t.Fatalf("trial %d: fold of a permutation with repeats differs:\n%v\nwant\n%v", trial, snapshotOf(&got), snapshotOf(&want))
		}
	}
}

func TestControlPlaneSnapshot(t *testing.T) {
	var zero ControlPlane
	if got := snapshotOf(&zero); len(got) != 0 {
		t.Fatalf("zero plane snapshot emitted %v", got)
	}
	p := fold(broadcastMix())
	got := snapshotOf(&p)
	wantLevels := []int{0, 63, 64, 700, MaxLevel}
	if len(got) != len(wantLevels)+1 {
		t.Fatalf("snapshot emitted %d messages, want %d: %v", len(got), len(wantLevels)+1, got)
	}
	for i, j := range wantLevels {
		if got[i] != (Message{Kind: MsgLevelSaturated, Level: j}) {
			t.Errorf("snapshot[%d] = %+v, want level %d (ascending)", i, got[i], j)
		}
	}
	if last := got[len(got)-1]; last != (Message{Kind: MsgEpochUpdate, Threshold: math.MaxFloat64}) {
		t.Errorf("snapshot ends with %+v, want the threshold", last)
	}
	if replay := fold(got); replay != p {
		t.Errorf("replaying the snapshot into a zero plane gives %v, want %v", snapshotOf(&replay), got)
	}
}

func TestControlPlaneSaturatedRange(t *testing.T) {
	var p ControlPlane
	for j := 0; j <= MaxLevel; j++ {
		p.Apply(Message{Kind: MsgLevelSaturated, Level: j})
	}
	for _, j := range []int{-1, -64, MaxLevel + 1, MaxLevel + 64, math.MaxInt32, math.MinInt, math.MaxInt} {
		if p.Saturated(j) {
			t.Errorf("Saturated(%d) = true outside [0, %d]", j, MaxLevel)
		}
	}
	for _, j := range []int{0, 1, 63, 64, 512, MaxLevel} {
		if !p.Saturated(j) {
			t.Errorf("Saturated(%d) = false after saturating every level", j)
		}
	}
}

// A forged broadcast — one frame on a site's connection — must neither
// silence the site nor grow its state. Only what a coordinator can
// send is applied.
func TestSiteIgnoresForgedBroadcasts(t *testing.T) {
	cfg := Config{K: 4, S: 8}
	st := NewSite(0, cfg, xrand.New(7))
	const w = 1000 // level 9 at r = 2
	honest := []Message{
		{Kind: MsgLevelSaturated, Level: levelOf(w, cfg.R())},
		{Kind: MsgEpochUpdate, Threshold: 4},
	}
	for _, m := range honest {
		st.HandleBroadcast(m)
	}
	want := st.plane
	for _, m := range forgedBroadcasts {
		st.HandleBroadcast(m)
	}
	if st.plane != want {
		t.Fatalf("forged broadcasts changed the plane: %v, want %v", snapshotOf(&st.plane), honest)
	}
	if th := st.Threshold(); th != 4 {
		t.Errorf("threshold %v after forged broadcasts, want 4", th)
	}
	if got := snapshotOf(&st.plane); len(got) != 2 || got[0] != honest[0] || got[1] != honest[1] {
		t.Errorf("snapshot %v, want exactly %v", got, honest)
	}

	// Items of the saturated level far above the real threshold are
	// all still sent, as regular messages.
	const n = 100
	var sent []Message
	for i := 0; i < n; i++ {
		if err := st.Observe(stream.Item{ID: uint64(i), Weight: w}, func(m Message) { sent = append(sent, m) }); err != nil {
			t.Fatal(err)
		}
	}
	if len(sent) != n {
		t.Fatalf("sent %d of %d items of weight %d above threshold 4", len(sent), n, w)
	}
	for _, m := range sent {
		if m.Kind != MsgRegular || !(m.Key > 4) {
			t.Fatalf("sent %+v, want a regular message with key above 4", m)
		}
	}

	forged := 0
	allocs := testing.AllocsPerRun(100, func() {
		forged++
		st.HandleBroadcast(Message{Kind: MsgLevelSaturated, Level: MaxLevel + forged})
		st.HandleBroadcast(Message{Kind: MsgLevelSaturated, Level: -forged})
		for _, m := range forgedBroadcasts {
			st.HandleBroadcast(m)
		}
	})
	if allocs != 0 {
		t.Errorf("forged HandleBroadcast calls allocate %v times per run, want 0", allocs)
	}
	if st.plane != want {
		t.Errorf("a stream of forged levels changed the plane: %v", snapshotOf(&st.plane))
	}
}

// FuzzControlPlane folds arbitrary (kind, level, threshold) sequences:
// the threshold stays finite and never falls, no saturation bit
// clears, nothing outside [0, MaxLevel] reads as saturated, and the
// snapshot round-trips into a zero plane.
func FuzzControlPlane(f *testing.F) {
	const rec = 13 // kind byte, int32 level, float64 threshold bits
	enc := func(msgs ...Message) []byte {
		var b []byte
		for _, m := range msgs {
			b = append(b, byte(m.Kind))
			b = binary.LittleEndian.AppendUint32(b, uint32(int32(m.Level)))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Threshold))
		}
		return b
	}
	f.Add(enc(broadcastMix()...))
	f.Add(enc(forgedBroadcasts...))
	f.Add(enc(Message{Kind: MsgEpochUpdate, Threshold: 8}, Message{Kind: MsgEpochUpdate, Threshold: 2}, Message{Kind: MsgLevelSaturated, Level: 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p ControlPlane
		for ; len(data) >= rec; data = data[rec:] {
			m := Message{
				Kind:      MsgKind(data[0]),
				Level:     int(int32(binary.LittleEndian.Uint32(data[1:]))),
				Threshold: math.Float64frombits(binary.LittleEndian.Uint64(data[5:])),
			}
			before := p
			p.Apply(m)
			if th := p.Threshold(); math.IsNaN(th) || math.IsInf(th, 0) || th < before.Threshold() {
				t.Fatalf("threshold %v after %v (was %v)", th, before.Threshold(), m)
			}
			for i := range p.saturated {
				if p.saturated[i]&before.saturated[i] != before.saturated[i] {
					t.Fatalf("a saturation bit cleared applying %+v", m)
				}
			}
			if m.Level < 0 || m.Level > MaxLevel {
				if p.Saturated(m.Level) {
					t.Fatalf("Saturated(%d) = true outside [0, %d]", m.Level, MaxLevel)
				}
				if p.saturated != before.saturated {
					t.Fatalf("out-of-range level %d set a bit", m.Level)
				}
			}
		}
		snap := snapshotOf(&p)
		for i := 1; i < len(snap); i++ {
			if snap[i].Kind == MsgLevelSaturated && snap[i].Level <= snap[i-1].Level {
				t.Fatalf("snapshot levels not ascending: %v", snap)
			}
		}
		if replay := fold(snap); replay != p {
			t.Fatalf("snapshot %v does not round-trip", snap)
		}
	})
}
