package heavyhitter

import (
	"math"
	"testing"
	"testing/quick"

	"wrs/internal/core"
	"wrs/internal/netsim"
	"wrs/internal/stream"
	"wrs/internal/swr"
	"wrs/internal/xrand"
)

// plantStream builds the skewed instance from the package tests: a few
// giants (plain HHs), a band of mediums (residual HHs but not plain HHs),
// and a sea of unit items.
func plantStream(giants, mediums, lights int, k int) (*stream.Stream, []float64) {
	var weights []float64
	for i := 0; i < giants; i++ {
		weights = append(weights, 1e8+float64(i))
	}
	for i := 0; i < mediums; i++ {
		weights = append(weights, 400+float64(i))
	}
	for i := 0; i < lights; i++ {
		weights = append(weights, 1)
	}
	s := &stream.Stream{K: k}
	for i, w := range weights {
		s.Updates = append(s.Updates, stream.Update{
			Pos: i, Site: i % k, Item: stream.Item{ID: uint64(i), Weight: w},
		})
	}
	return s, weights
}

func runTracker(t *testing.T, tr *Tracker, s *stream.Stream) netsim.Stats {
	t.Helper()
	coreSites := make([]netsim.Site[core.Message], len(tr.Sites))
	for i, st := range tr.Sites {
		coreSites[i] = st
	}
	cl := netsim.NewCluster[core.Message](tr.Coord, coreSites)
	if err := cl.RunStream(s); err != nil {
		t.Fatal(err)
	}
	return cl.Stats
}

func TestParams(t *testing.T) {
	p := Params{Eps: 0.1, Delta: 0.1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := p.SampleSize(); s != int(math.Ceil(6*math.Log(100)/0.1)) {
		t.Errorf("SampleSize = %d", s)
	}
	if o := p.OutputSize(); o != 20 {
		t.Errorf("OutputSize = %d", o)
	}
	for _, bad := range []Params{{0, 0.1}, {0.1, 0}, {1, 0.1}, {0.1, 1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("params %+v accepted", bad)
		}
	}
}

func TestGroundTruthOracles(t *testing.T) {
	weights := []float64{100, 50, 10, 10, 10, 10, 10}
	if tail := ResidualTail(weights, 2); tail != 50 {
		t.Errorf("ResidualTail = %v, want 50", tail)
	}
	if tail := ResidualTail(weights, 0); tail != 200 {
		t.Errorf("ResidualTail(0) = %v, want 200", tail)
	}
	// eps = 0.5: top-2 removed, tail = 50; residual HHs have w >= 25.
	hh := ExactResidualHH(weights, 0.5)
	if len(hh) != 2 || hh[0] != 0 || hh[1] != 1 {
		t.Errorf("ExactResidualHH = %v, want [0 1]", hh)
	}
	// Plain HHs at eps=0.25: w >= 50.
	plain := ExactHH(weights, 0.25)
	if len(plain) != 2 || plain[0] != 0 || plain[1] != 1 {
		t.Errorf("ExactHH = %v, want [0 1]", plain)
	}
}

func TestRecallHelper(t *testing.T) {
	got := []stream.Item{{ID: 1}, {ID: 2}}
	if r := Recall(got, []int{1, 2, 3, 4}); r != 0.5 {
		t.Errorf("Recall = %v", r)
	}
	if r := Recall(nil, nil); r != 1 {
		t.Errorf("empty Recall = %v", r)
	}
}

func TestResidualTrackerRecall(t *testing.T) {
	// The planted instance: residual HHs include the mediums, which are
	// invisible to plain eps-HH analysis (they are ~1e-6 of total W).
	const k = 4
	p := Params{Eps: 0.1, Delta: 0.05}
	for trial := 0; trial < 8; trial++ {
		st, weights := plantStream(5, 6, 3000, k)
		want := ExactResidualHH(weights, p.Eps)
		if len(want) != 11 { // 5 giants + 6 mediums
			t.Fatalf("planted instance broken: %d residual HHs", len(want))
		}
		tr, err := NewTracker(k, p, xrand.New(uint64(9000+trial)))
		if err != nil {
			t.Fatal(err)
		}
		runTracker(t, tr, st)
		got := tr.Query()
		if len(got) > p.OutputSize() {
			t.Fatalf("query returned %d items > bound %d", len(got), p.OutputSize())
		}
		if r := Recall(got, want); r < 1 {
			t.Errorf("trial %d: residual recall = %v, want 1", trial, r)
		}
	}
}

func TestSWRTrackerFindsPlainButMissesResidual(t *testing.T) {
	const k = 4
	p := Params{Eps: 0.1, Delta: 0.05}
	plainRecall, residualRecall := 0.0, 0.0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		st, weights := plantStream(5, 6, 3000, k)
		tr, err := NewSWRTracker(k, p, xrand.New(uint64(100+trial)))
		if err != nil {
			t.Fatal(err)
		}
		sites := make([]netsim.Site[swr.Message], len(tr.Sites))
		for i, s := range tr.Sites {
			sites[i] = s
		}
		cl := netsim.NewCluster[swr.Message](tr.Coord, sites)
		if err := cl.RunStream(st); err != nil {
			t.Fatal(err)
		}
		got := tr.Query()
		plainRecall += Recall(got, ExactHH(weights, p.Eps))
		residualRecall += Recall(got, ExactResidualHH(weights, p.Eps))
	}
	plainRecall /= trials
	residualRecall /= trials
	if plainRecall < 0.99 {
		t.Errorf("SWR plain recall = %v, want ~1 (coupon collector)", plainRecall)
	}
	// 5 giants hold ~99.999% of the weight: the mediums are essentially
	// never drawn, so residual recall collapses to ~5/11 (the giants).
	if residualRecall > 0.7 {
		t.Errorf("SWR residual recall = %v; expected to fail (< 0.7) on skewed stream", residualRecall)
	}
	t.Logf("SWR baseline: plain recall %v, residual recall %v", plainRecall, residualRecall)
}

func TestResidualTrackerMessageEfficiency(t *testing.T) {
	const k = 8
	p := Params{Eps: 0.1, Delta: 0.1}
	st, _ := plantStream(5, 6, 30000, k)
	tr, err := NewTracker(k, p, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	stats := runTracker(t, tr, st)
	n := int64(len(st.Updates))
	if stats.Total() >= n/2 {
		t.Errorf("tracker sent %d messages on %d updates; want sublinear", stats.Total(), n)
	}
}

func TestSpaceSavingExactWhenUnderCapacity(t *testing.T) {
	ss := NewSpaceSaving(10)
	weights := map[uint64]float64{1: 5, 2: 3, 3: 8}
	for id, w := range weights {
		ss.Observe(id, w/2)
		ss.Observe(id, w/2)
	}
	for id, w := range weights {
		got, errB, ok := ss.Estimate(id)
		if !ok || got != w || errB != 0 {
			t.Errorf("Estimate(%d) = (%v, %v, %v), want (%v, 0, true)", id, got, errB, ok, w)
		}
	}
	if ss.ErrorBound() != 0 {
		t.Errorf("under-capacity error bound = %v", ss.ErrorBound())
	}
}

func TestSpaceSavingErrorBound(t *testing.T) {
	// Overestimates bounded by W/m; no false negatives at phi.
	rng := xrand.New(5)
	const m, n = 20, 5000
	ss := NewSpaceSaving(m)
	truth := map[uint64]float64{}
	var total float64
	for i := 0; i < n; i++ {
		id := uint64(rng.Intn(200))
		w := 1 + math.Floor(10*rng.Float64())
		if id < 5 {
			w += 200 // planted heavy ids
		}
		ss.Observe(id, w)
		truth[id] += w
		total += w
	}
	if ss.Total() != total {
		t.Fatalf("Total = %v, want %v", ss.Total(), total)
	}
	bound := total / m
	if ss.ErrorBound() > bound {
		t.Errorf("ErrorBound %v > W/m = %v", ss.ErrorBound(), bound)
	}
	for _, c := range ss.Query(0.05) {
		tw := truth[c.ID]
		if c.Count < tw {
			t.Errorf("id %d underestimated: %v < %v", c.ID, c.Count, tw)
		}
		if c.Count-tw > ss.ErrorBound() {
			t.Errorf("id %d overestimate %v exceeds bound %v", c.ID, c.Count-tw, ss.ErrorBound())
		}
	}
	// No false negatives: every true 5% HH must be in the query result.
	got := map[uint64]bool{}
	for _, c := range ss.Query(0.05) {
		got[c.ID] = true
	}
	for id, tw := range truth {
		if tw >= 0.05*total && !got[id] {
			t.Errorf("true heavy hitter %d missing from query", id)
		}
	}
}

func TestSpaceSavingCounterInvariants(t *testing.T) {
	f := func(ids []uint8) bool {
		ss := NewSpaceSaving(4)
		var total float64
		for _, id := range ids {
			ss.Observe(uint64(id%16), 1)
			total++
		}
		// Min counter <= total/m.
		return ss.ErrorBound() <= total/4+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCandidatesFromTiedWeights feeds CandidatesFrom a sample whose
// weights tie in long runs, in many input orders: the candidate list
// must not change, and within a weight tie the larger key ranks first.
func TestCandidatesFromTiedWeights(t *testing.T) {
	p := Params{Eps: 0.1, Delta: 0.1}
	rng := xrand.New(21)
	entries := make([]core.SampleEntry, 3*p.SampleSize())
	for i := range entries {
		w := float64(1 + i%3)
		entries[i] = core.SampleEntry{Key: rng.ExpKey(w), Item: stream.Item{ID: uint64(i), Weight: w}}
	}
	want := CandidatesFrom(append([]core.SampleEntry(nil), entries...), p)
	if len(want) != p.OutputSize() {
		t.Fatalf("%d candidates, want %d", len(want), p.OutputSize())
	}
	keyOf := make(map[uint64]float64, len(entries))
	for _, e := range entries {
		keyOf[e.Item.ID] = e.Key
	}
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if a.Weight < b.Weight || (a.Weight == b.Weight && keyOf[a.ID] < keyOf[b.ID]) {
			t.Fatalf("rank %d (w=%v, key=%v) before rank %d (w=%v, key=%v)", i-1, a.Weight, keyOf[a.ID], i, b.Weight, keyOf[b.ID])
		}
	}
	for trial := 0; trial < 20; trial++ {
		for i := len(entries) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			entries[i], entries[j] = entries[j], entries[i]
		}
		got := CandidatesFrom(append([]core.SampleEntry(nil), entries...), p)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: rank %d is %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
