package window

import (
	"math"
	"sort"
	"testing"

	"wrs/internal/stream"
	"wrs/internal/xrand"
)

type keyRec struct {
	pos  int
	id   uint64
	key  float64
	item stream.Item
}

// bruteTop returns the top-min(s,window) ids of the last `width` keys.
func bruteTop(recs []keyRec, width, s int) map[uint64]bool {
	lo := len(recs) - width
	if lo < 0 {
		lo = 0
	}
	win := append([]keyRec(nil), recs[lo:]...)
	sort.Slice(win, func(i, j int) bool { return win[i].key > win[j].key })
	if len(win) > s {
		win = win[:s]
	}
	out := map[uint64]bool{}
	for _, r := range win {
		out[r.id] = true
	}
	return out
}

func TestWindowMatchesBruteForceEveryStep(t *testing.T) {
	for _, cfg := range []struct{ s, width int }{
		{1, 10}, {3, 25}, {5, 100}, {10, 7}, // width < s included
	} {
		w, err := New(cfg.s, cfg.width, xrand.New(uint64(cfg.s*100+cfg.width)))
		if err != nil {
			t.Fatal(err)
		}
		var recs []keyRec
		w.KeyHook = func(id uint64, key float64) {
			recs = append(recs, keyRec{pos: len(recs), id: id, key: key})
		}
		rng := xrand.New(9)
		for i := 0; i < 600; i++ {
			it := stream.Item{ID: uint64(i), Weight: 1 + 99*rng.Float64()}
			if err := w.Observe(it); err != nil {
				t.Fatal(err)
			}
			want := bruteTop(recs, cfg.width, cfg.s)
			got := w.Sample()
			if len(got) != len(want) {
				t.Fatalf("s=%d width=%d step %d: sample size %d, want %d",
					cfg.s, cfg.width, i, len(got), len(want))
			}
			for _, e := range got {
				if !want[e.Item.ID] {
					t.Fatalf("s=%d width=%d step %d: item %d not in brute-force top set",
						cfg.s, cfg.width, i, e.Item.ID)
				}
			}
			for j := 1; j < len(got); j++ {
				if got[j].Key > got[j-1].Key {
					t.Fatal("sample not sorted desc")
				}
			}
		}
	}
}

func TestWindowRetainedIsSublinear(t *testing.T) {
	const s, width, n = 8, 10000, 50000
	w, err := New(s, width, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	maxRetained := 0
	for i := 0; i < n; i++ {
		if err := w.Observe(stream.Item{ID: uint64(i), Weight: 1 + rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		if r := w.Retained(); r > maxRetained {
			maxRetained = r
		}
	}
	// Expected O(s * log(width/s)) ~ 8 * 7.1 = 57; allow a wide margin.
	bound := 6 * float64(s) * (1 + math.Log(float64(width)/float64(s)))
	if float64(maxRetained) > bound {
		t.Errorf("retained reached %d, want O(s log(width/s)) <= %v", maxRetained, bound)
	}
	if maxRetained >= width/10 {
		t.Errorf("retained %d not sublinear in width %d", maxRetained, width)
	}
	t.Logf("max retained: %d (window %d)", maxRetained, width)
}

func TestWindowInclusionDistribution(t *testing.T) {
	// Within a full window, inclusion must follow the weighted SWOR law
	// on the window's items: heavier items more likely.
	const s, width, trials = 2, 5, 30000
	weights := []float64{1, 2, 4, 8, 16}
	counts := make([]float64, len(weights))
	for tr := 0; tr < trials; tr++ {
		w, _ := New(s, width, xrand.New(uint64(tr)*31+1))
		// Prefix noise that must be forgotten entirely.
		for i := 0; i < 7; i++ {
			w.Observe(stream.Item{ID: 999, Weight: 1000})
		}
		for i, wt := range weights {
			w.Observe(stream.Item{ID: uint64(i), Weight: wt})
		}
		for _, e := range w.Sample() {
			if e.Item.ID == 999 {
				t.Fatal("expired item sampled")
			}
			counts[e.Item.ID]++
		}
	}
	// Compare against exact inclusion probabilities for {1,2,4,8,16}, s=2
	// (computed by the sample package oracle in its own tests; here just
	// check monotonicity and a coarse range for the heaviest item).
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Errorf("window inclusion not monotone in weight: %v", counts)
		}
	}
	pHeavy := counts[4] / trials
	if pHeavy < 0.78 || pHeavy > 0.88 {
		t.Errorf("heaviest inclusion = %v, want ~0.825", pHeavy)
	}
}

func TestWindowValidation(t *testing.T) {
	if _, err := New(0, 5, xrand.New(1)); err == nil {
		t.Error("s=0 accepted")
	}
	if _, err := New(5, 0, xrand.New(1)); err == nil {
		t.Error("width=0 accepted")
	}
	w, _ := New(1, 5, xrand.New(1))
	if err := w.Observe(stream.Item{Weight: -1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestWindowSmallStream(t *testing.T) {
	w, _ := New(3, 100, xrand.New(2))
	if got := w.Sample(); len(got) != 0 {
		t.Fatalf("empty sampler returned %d items", len(got))
	}
	w.Observe(stream.Item{ID: 1, Weight: 5})
	if got := w.Sample(); len(got) != 1 || got[0].Item.ID != 1 {
		t.Fatalf("single-item sample wrong: %v", got)
	}
	if w.N() != 1 {
		t.Errorf("N = %d", w.N())
	}
}

// TestTopEntriesTieAtBoundary puts a run of equal keys across the s
// boundary: whatever the input order, the lowest IDs of the run must
// fill the remaining slots, in ID order, after every larger key.
func TestTopEntriesTieAtBoundary(t *testing.T) {
	const s, tied = 16, 20
	var entries []Entry
	for i := 0; i < 10; i++ { // ten keys above the run, ten below
		entries = append(entries,
			Entry{Key: 10 + float64(i), Item: stream.Item{ID: uint64(100 + i)}},
			Entry{Key: float64(i) / 10, Item: stream.Item{ID: uint64(200 + i)}})
	}
	for i := 0; i < tied; i++ {
		entries = append(entries, Entry{Key: 5, Item: stream.Item{ID: uint64(tied - i)}})
	}
	rng := xrand.New(11)
	for trial := 0; trial < 20; trial++ {
		for i := len(entries) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			entries[i], entries[j] = entries[j], entries[i]
		}
		got := TopEntries(append([]Entry(nil), entries...), s)
		if len(got) != s {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), s)
		}
		for i, e := range got {
			wantKey, wantID := 19-float64(i), uint64(109-i)
			if i >= 10 {
				wantKey, wantID = 5, uint64(i-9)
			}
			if e.Key != wantKey || e.Item.ID != wantID {
				t.Fatalf("trial %d: rank %d is key %v id %d, want key %v id %d", trial, i, e.Key, e.Item.ID, wantKey, wantID)
			}
		}
	}
}
