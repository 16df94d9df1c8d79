package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"wrs/internal/stream"
	"wrs/internal/xrand"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{K: 0, S: 1}).Validate(); err == nil {
		t.Error("K=0 accepted")
	}
	if err := (Config{K: 1, S: 0}).Validate(); err == nil {
		t.Error("S=0 accepted")
	}
	if err := (Config{K: 4, S: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestConfigR(t *testing.T) {
	if r := (Config{K: 4, S: 16}).R(); r != 2 {
		t.Errorf("R = %v, want 2 (k/s < 2 clamps to 2)", r)
	}
	if r := (Config{K: 64, S: 4}).R(); r != 16 {
		t.Errorf("R = %v, want 16", r)
	}
}

func TestConfigLevelCap(t *testing.T) {
	// cap = ceil(4rs) = max(8s, 4k).
	if c := (Config{K: 4, S: 16}).LevelCap(); c != 128 {
		t.Errorf("LevelCap = %d, want 128", c)
	}
	if c := (Config{K: 100, S: 4}).LevelCap(); c != 400 {
		t.Errorf("LevelCap = %d, want 400", c)
	}
}

// TestConfigStalenessWindow pins W = max(64, 4·⌈s/k⌉) on the perf
// workloads' shapes (tcp-decay k = 2, s = 512; paced-quantiles s = 8478)
// and at the floor, and the budget W is sized to: one broadcast that
// every site sees late costs k·W ≤ max(64k, 4(s+k−1)) extra messages.
func TestConfigStalenessWindow(t *testing.T) {
	for _, c := range []struct{ k, s, want int }{
		{2, 512, 1024}, {2, 8478, 16956}, {4, 8, 64}, {8, 8, 64}, {1000, 8, 64},
	} {
		w := Config{K: c.k, S: c.s}.StalenessWindow()
		if w != c.want {
			t.Errorf("k=%d s=%d: StalenessWindow = %d, want %d", c.k, c.s, w, c.want)
		}
		if budget := max(64*c.k, 4*(c.s+c.k-1)); c.k*w > budget {
			t.Errorf("k=%d s=%d: k·W = %d exceeds max(64k, 4(s+k-1)) = %d", c.k, c.s, c.k*w, budget)
		}
	}
}

func TestLevelOfDefinition(t *testing.T) {
	// Definition 4: level j satisfies w in [r^j, r^(j+1)); w < r -> 0.
	f := func(wRaw, rRaw float64) bool {
		w := math.Abs(wRaw)
		if w == 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return true
		}
		// Keep w in a numerically sane range.
		w = math.Mod(w, 1e12)
		if w <= 0 {
			return true
		}
		r := 2 + math.Mod(math.Abs(rRaw), 30)
		j := levelOf(w, r)
		if j < 0 {
			return false
		}
		if w < r {
			return j == 0
		}
		return math.Pow(r, float64(j)) <= w && w < math.Pow(r, float64(j+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestLevelOfBoundaries(t *testing.T) {
	cases := []struct {
		w, r float64
		want int
	}{
		{0.5, 2, 0}, {1, 2, 0}, {1.99, 2, 0}, {2, 2, 1}, {4, 2, 2},
		{8, 2, 3}, {1 << 20, 2, 20}, {15.9, 16, 0}, {16, 16, 1}, {256, 16, 2},
		// Every float64 has a level: non-finite weights reach the
		// coordinator in forged messages.
		{math.MaxFloat64, 2, 1023}, {math.Inf(1), 2, 1023}, {math.NaN(), 2, 0},
		{math.Inf(-1), 2, 0}, {math.Copysign(0, -1), 2, 0}, {5e-324, 2, 0},
		// ControlPlane's level set has MaxLevel+1 bits: the largest
		// weight reaches exactly MaxLevel at the smallest base r = 2,
		// and a larger base only lowers it.
		{math.Inf(1), 2, MaxLevel}, {math.MaxFloat64, 2.5, 774}, {math.MaxFloat64, 4.5, 471},
		{math.MaxFloat64, 64, 170}, {math.MaxFloat64, 1e6, 51},
	}
	for _, c := range cases {
		var got int
		returnsWithin(t, fmt.Sprintf("levelOf(%v, %v)", c.w, c.r), func() { got = levelOf(c.w, c.r) })
		if got != c.want {
			t.Errorf("levelOf(%v, %v) = %d, want %d", c.w, c.r, got, c.want)
		}
		if got > MaxLevel {
			t.Errorf("levelOf(%v, %v) = %d, above MaxLevel %d", c.w, c.r, got, MaxLevel)
		}
	}
}

// levelOfByPow is levelOf without the exponent form: the loop every
// base other than 2 takes, and the reference the r = 2 form must match.
func levelOfByPow(w, r float64) int {
	if !(w >= r) {
		return 0
	}
	return levelByPow(min(w, math.MaxFloat64), r)
}

// TestLevelOfExponentMatchesLoop pins levelOf at r = 2, which reads the
// float exponent, to the Pow loop: on every power of two and its
// neighbours, on subnormals and non-finite values, and on a million
// weights of each perf workload's shape — Pareto(1.2) (seq-pareto) and
// Pareto(1.5)·e^(50·i/n) (tcp-decay).
func TestLevelOfExponentMatchesLoop(t *testing.T) {
	check := func(w float64) {
		if got, want := levelOf(w, 2), levelOfByPow(w, 2); got != want {
			t.Fatalf("levelOf(%v, 2) = %d, loop reference %d", w, got, want)
		}
	}
	for j := 1; j <= 1023; j++ {
		w := math.Ldexp(1, j)
		check(w)
		check(math.Nextafter(w, 0))
		check(math.Nextafter(w, math.Inf(1)))
	}
	for _, w := range []float64{5e-324, 1e-310, 0x1p-1022 - 5e-324, 0x1p-1022, 1, 2,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		check(w)
	}
	const n = 1_000_000
	rng := xrand.New(14)
	for i := 0; i < n; i++ {
		check(rng.Pareto(1.2))
		check(rng.Pareto(1.5) * math.Exp(50*float64(i)/n))
	}
}

// FuzzLevelOf drives levelOf with arbitrary float64 bit patterns. At
// r = 2 the exponent form must equal the Pow loop; at other bases the
// level must be returned, lie in [0, MaxLevel] and be monotone in w.
func FuzzLevelOf(f *testing.F) {
	f.Add(uint64(0x4000000000000000), uint64(0x4010000000000000)) // 2, 4
	f.Add(uint64(0x7fefffffffffffff), uint64(0x7ff0000000000000)) // MaxFloat64, +Inf
	f.Add(uint64(1), uint64(0x7ff8000000000001))                  // 5e-324, NaN
	f.Fuzz(func(t *testing.T, a, b uint64) {
		w1, w2 := math.Float64frombits(a), math.Float64frombits(b)
		for _, w := range []float64{w1, w2} {
			if got, want := levelOf(w, 2), levelOfByPow(w, 2); got != want {
				t.Fatalf("levelOf(%v, 2) = %d, loop reference %d", w, got, want)
			}
		}
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		for _, r := range []float64{2, 2.5, 4.5, 64} {
			j1, j2 := levelOf(w1, r), levelOf(w2, r)
			for _, j := range []int{j1, j2} {
				if j < 0 || j > MaxLevel {
					t.Fatalf("levelOf(%v or %v, %v) = %d, outside [0, %d]", w1, w2, r, j, MaxLevel)
				}
			}
			if w1 <= w2 && j1 > j2 {
				t.Fatalf("levelOf(%v, %v) = %d > levelOf(%v, %v) = %d", w1, r, j1, w2, r, j2)
			}
		}
	})
}

func TestEpochThresholdBoundaries(t *testing.T) {
	cases := []struct{ u, r, want float64 }{
		{0.5, 2, 0}, {1, 2, 1}, {3, 2, 2}, {1 << 20, 2, 1 << 20}, {255, 16, 16},
		{math.MaxFloat64, 2, math.Ldexp(1, 1023)}, {math.Inf(1), 2, 0}, {math.NaN(), 2, 0},
		{math.Inf(-1), 2, 0}, {math.Copysign(0, -1), 2, 0}, {5e-324, 2, 0},
	}
	for _, c := range cases {
		var got float64
		returnsWithin(t, fmt.Sprintf("epochThreshold(%v, %v)", c.u, c.r), func() { got = epochThreshold(c.u, c.r) })
		if got != c.want {
			t.Errorf("epochThreshold(%v, %v) = %v, want %v", c.u, c.r, got, c.want)
		}
	}
}

// One early message with weight +Inf — a 29-byte frame over TCP, handled
// under the shard mutex — must not stop the coordinator.
func TestCoordinatorEarlyInfWeightReturns(t *testing.T) {
	c := NewCoordinator(Config{K: 4, S: 8}, xrand.New(1))
	m := Message{Kind: MsgEarly, Item: stream.Item{ID: 1, Weight: math.Inf(1)}}
	returnsWithin(t, "HandleMessage(early, weight +Inf)", func() { c.HandleMessage(m, func(Message) {}) })
	if c.Stats.EarlyMsgs != 1 {
		t.Errorf("EarlyMsgs = %d, want 1", c.Stats.EarlyMsgs)
	}
}

// returnsWithin fails the test if fn has not returned after 10 s (it is
// left running): a non-total level computation loops forever.
func returnsWithin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func TestEpochThresholdProperties(t *testing.T) {
	// The threshold never exceeds u and equals r^j for some j >= 0 (or 0).
	f := func(uRaw, rRaw float64) bool {
		u := math.Abs(uRaw)
		if math.IsInf(u, 0) || math.IsNaN(u) {
			return true
		}
		u = math.Mod(u, 1e15)
		r := 2 + math.Mod(math.Abs(rRaw), 30)
		th := epochThreshold(u, r)
		if th > u {
			return false
		}
		if u < 1 {
			return th == 0
		}
		if th <= 0 {
			return false
		}
		// th = r^j for integer j >= 0 and r*th > u (it is the largest
		// such power).
		j := math.Round(math.Log(th) / math.Log(r))
		if j < 0 || math.Abs(th-math.Pow(r, j)) > 1e-9*th {
			return false
		}
		return th*r > u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestEpochThresholdMonotone(t *testing.T) {
	r := 2.0
	prev := 0.0
	for u := 0.1; u < 1e9; u *= 1.37 {
		th := epochThreshold(u, r)
		if th < prev {
			t.Fatalf("threshold decreased: %v -> %v at u=%v", prev, th, u)
		}
		prev = th
	}
}

func TestMessageWords(t *testing.T) {
	if w := (Message{Kind: MsgEarly}).Words(); w != 3 {
		t.Errorf("early words = %d", w)
	}
	if w := (Message{Kind: MsgRegular}).Words(); w != 4 {
		t.Errorf("regular words = %d", w)
	}
	if w := (Message{Kind: MsgEpochUpdate}).Words(); w != 2 {
		t.Errorf("epoch words = %d", w)
	}
}

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{
		MsgEarly: "early", MsgRegular: "regular",
		MsgLevelSaturated: "level-saturated", MsgEpochUpdate: "epoch-update",
		MsgKind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("MsgKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
