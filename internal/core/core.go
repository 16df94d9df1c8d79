// Package core implements the paper's primary contribution: the
// message-optimal algorithm for weighted sampling without replacement
// from a distributed stream (Section 3, Algorithms 1-3, Theorem 3).
//
// The implementation is transport-agnostic: Site and Coordinator are
// state machines that emit messages through callbacks, so they can be
// driven by the deterministic sequential simulator, by the concurrent
// goroutine runtime (package netsim), or embedded in a user's own
// network layer.
//
// Summary of the algorithm:
//
//   - Every item (e, w) receives a key v = w/t with t ~ Exp(1); the
//     coordinator's sample is the set of items with the s largest keys
//     (precision sampling; correct by Proposition 1).
//   - Epochs: the coordinator tracks u, the s-th largest released key,
//     and broadcasts the threshold r^j with u in [r^j, r^(j+1)),
//     r = max(2, k/s). Sites drop keys below the threshold locally,
//     which removes the naive O(ks log W) message blow-up.
//   - Level sets: an item of weight w in [r^j, r^(j+1)) is "withheld" —
//     sent to the coordinator as an *early* message and parked in level
//     set D_j — until 4rs items of its level exist. This keeps extreme
//     heavy hitters from stalling epoch advancement. Withheld items
//     still carry keys (generated at the coordinator on arrival), so the
//     maintained sample — the top s keys of S ∪ (∪_j D_j) — is a valid
//     weighted SWOR at every instant.
package core

import (
	"fmt"
	"math"

	"wrs/internal/stream"
)

// MsgKind discriminates protocol messages.
type MsgKind uint8

const (
	// MsgEarly carries a withheld item from a site to the coordinator
	// (site -> coordinator, no key attached).
	MsgEarly MsgKind = iota
	// MsgRegular carries an item and its key (site -> coordinator).
	MsgRegular
	// MsgLevelSaturated announces that level set D_j filled up
	// (coordinator -> all sites).
	MsgLevelSaturated
	// MsgEpochUpdate announces a new filtering threshold
	// (coordinator -> all sites).
	MsgEpochUpdate
	// MsgWindow carries a sequence-stamped sliding-window candidate: an
	// item, its key, and the shard-local stamp packing the site-local
	// arrival position with the site id (site -> coordinator; the
	// windowed application).
	MsgWindow
	// MsgClock advances a site's sub-stream clock without carrying an
	// item, so the coordinator can expire that site's sent candidates
	// even when the site's newest arrivals were all buffered locally
	// (site -> coordinator; the windowed application).
	MsgClock
)

func (k MsgKind) String() string {
	switch k {
	case MsgEarly:
		return "early"
	case MsgRegular:
		return "regular"
	case MsgLevelSaturated:
		return "level-saturated"
	case MsgEpochUpdate:
		return "epoch-update"
	case MsgWindow:
		return "window"
	case MsgClock:
		return "window-clock"
	default:
		return "unknown"
	}
}

// Message is a protocol message. Every message fits in O(1) machine words
// (Proposition 7): an item id, a weight, and at most one of key, level, or
// threshold. The windowed application reuses the Level slot as its
// sequence stamp (see WindowStamp), so its messages ride the same wire
// layout.
type Message struct {
	Kind      MsgKind
	Item      stream.Item // early, regular, window
	Key       float64     // regular, window
	Level     int         // level-saturated; sequence stamp for window/window-clock
	Threshold float64     // epoch-update
}

// Words returns the size of the message in machine words, for
// communication accounting.
func (m Message) Words() int {
	switch m.Kind {
	case MsgEarly:
		return 3 // kind + id + weight
	case MsgRegular:
		return 4 // kind + id + weight + key
	case MsgWindow:
		return 5 // kind + id + weight + key + stamp
	default:
		return 2 // kind + payload (level, threshold, or stamp)
	}
}

// MaxWindowStamp is the largest sequence stamp a window message can
// carry: stamps share the Level slot, which the wire format encodes as
// an int32.
const MaxWindowStamp = math.MaxInt32

// WindowStamp packs a site-local arrival position and the site id into
// the shard-local sequence stamp carried in Message.Level: stamp =
// pos·k + site. The packing is unique across a shard's k sub-streams
// and order-preserving within each, so one int both names the
// sub-stream and advances its clock. Positions are bounded by
// MaxWindowStamp/k; WindowSite.Observe errors before overflowing.
func WindowStamp(pos, site, k int) int { return pos*k + site }

// SplitWindowStamp unpacks a sequence stamp into (pos, site). The
// caller must reject negative stamps first.
func SplitWindowStamp(stamp, k int) (pos, site int) { return stamp / k, stamp % k }

// Config holds the algorithm parameters shared by sites and coordinator.
type Config struct {
	K int // number of sites
	S int // sample size

	// DisableLevelSets turns off the withholding of heavy items
	// (ablation A1). The sample remains a correct weighted SWOR; the
	// message bound of Theorem 3 no longer holds on skewed streams.
	DisableLevelSets bool
	// DisableEpochs turns off threshold broadcasts (ablation A2): sites
	// send every key, reproducing the naive O(n) protocol.
	DisableEpochs bool

	// SkipAhead switches sites to the A-ExpJ exponential-jump filter
	// (xrand.Jump): one armed jump per threshold epoch skips whole runs
	// of sub-threshold arrivals with zero RNG draws, instead of one lazy
	// threshold comparison per arrival. Distributionally identical to
	// the default path — same sample law, same message bound — but a
	// different realization of the randomness, so it is opt-in: the
	// bit-exact legacy suites and recorded-oracle tests pin the lazy
	// path. Sites with a Recorder attached fall back to the lazy path
	// regardless (skipped items have no key to record).
	SkipAhead bool
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: need at least 1 site, got %d", c.K)
	}
	if c.S < 1 {
		return fmt.Errorf("core: need sample size >= 1, got %d", c.S)
	}
	return nil
}

// R returns the epoch/level base r = max(2, k/s).
func (c Config) R() float64 {
	r := float64(c.K) / float64(c.S)
	if r < 2 {
		r = 2
	}
	return r
}

// LevelCap returns the saturation size ceil(4*r*s) = max(8s, 4k) of each
// level set.
func (c Config) LevelCap() int {
	cap8s := 8 * c.S
	if cap4k := 4 * c.K; cap4k > cap8s {
		return cap4k
	}
	return cap8s
}

// StalenessWindow returns the default flow-control window W used by
// asynchronous transports: after every W upstream messages a site must
// synchronize (round-trip) with the coordinator before sending more,
// so it can never run further than W messages ahead of the control
// plane. W = max(64, 4·⌈s/k⌉) bounds what one broadcast that every
// site sees late can cost, k·W ≤ max(64k, 4(s+k−1)) extra messages, by
// a constant times Theorem 3's per-epoch budget (about
// k·ln r/ln(1+k/s), which is Θ(max(s, k))), and its floor keeps the
// round-trip overhead at one per 64 messages sent at most. See
// DESIGN.md §5.
func (c Config) StalenessWindow() int {
	return max(64, 4*((c.S+c.K-1)/c.K))
}

// levelOf returns the level j >= 0 with w in [r^j, r^(j+1)) per
// Definition 4 (weights below r, including (0,1), map to level 0). At
// r = 2 the level is the float exponent of w; any other r searches the
// math.Pow boundaries (levelByPow). It is total: NaN maps to level 0 and
// +Inf to the level of math.MaxFloat64, so it stays monotone and ends on
// any input a forged message can carry.
func levelOf(w, r float64) int {
	if !(w >= r) {
		return 0
	}
	if w > math.MaxFloat64 {
		w = math.MaxFloat64
	}
	if r == 2 {
		_, e := math.Frexp(w) // w in [2^(e-1), 2^e)
		return e - 1
	}
	return levelByPow(w, r)
}

// levelByPow is levelOf for finite w >= r: a logarithm estimate, then
// post-correction loops against math.Pow that guard against
// floating-point boundary rounding. At r = 2 it is the reference the
// exponent form is tested against.
func levelByPow(w, r float64) int {
	j := int(math.Floor(math.Log(w) / math.Log(r)))
	for j > 0 && math.Pow(r, float64(j)) > w {
		j--
	}
	for math.Pow(r, float64(j+1)) <= w {
		j++
	}
	if j < 0 {
		j = 0
	}
	return j
}

// epochThreshold returns the filtering threshold r^floor(log_r u) for
// finite u >= 1 and 0 otherwise — u < 1 ("epoch 0 until u reaches r";
// see DESIGN.md), NaN and ±Inf. The returned threshold never exceeds u,
// so a site filtering with it can only drop keys with at least s
// released dominators.
func epochThreshold(u, r float64) float64 {
	if !(u >= 1) || math.IsInf(u, 1) {
		return 0
	}
	j := int(math.Floor(math.Log(u) / math.Log(r)))
	th := math.Pow(r, float64(j))
	for th > u && j > 0 {
		j--
		th = math.Pow(r, float64(j))
	}
	if th > u {
		return 0
	}
	return th
}

func validWeight(w float64) error {
	if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("core: weight must be positive and finite, got %v", w)
	}
	return nil
}
