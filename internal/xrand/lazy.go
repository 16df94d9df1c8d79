package xrand

import (
	"math"
	"math/bits"
)

// LazyUniform is a uniform (0,1) variate whose bits are generated on
// demand, most significant first. After n bits the value is known to lie
// in [prefix/2^n, (prefix+1)/2^n); a comparison against a constant p can
// therefore be decided as soon as the interval excludes p, which takes an
// expected O(1) bits. This implements the machinery of Proposition 7 in
// the paper: a site can decide "does this item's key beat the epoch
// threshold?" without paying for a full-precision exponential, and only
// materializes the remaining bits when the item is actually sent.
//
// Refinement is capped at 53 bits. If a comparison is still ambiguous at
// the cap (probability 2^-53 per comparison) the fully materialized value
// decides it, so decisions are always consistent with Value().
type LazyUniform struct {
	rng    *RNG
	prefix uint64 // high bits generated so far
	n      uint   // number of bits in prefix (<= 53)
	buf    uint64 // buffered raw random bits
	bufn   uint   // number of valid bits in buf

	// DecisionBits counts bits consumed by Above calls; Bits counts all
	// bits consumed including materialization. Both are diagnostics for
	// the Proposition 7 experiments.
	DecisionBits int
	Bits         int
}

// NewLazyUniform returns a LazyUniform drawing bits from rng.
func NewLazyUniform(rng *RNG) LazyUniform {
	return LazyUniform{rng: rng}
}

const lazyMaxBits = 53

func (l *LazyUniform) nextBit() uint64 {
	if l.bufn == 0 {
		l.buf = l.rng.Uint64()
		l.bufn = 64
	}
	b := l.buf >> 63
	l.buf <<= 1
	l.bufn--
	l.Bits++
	return b
}

func (l *LazyUniform) refine() {
	l.prefix = l.prefix<<1 | l.nextBit()
	l.n++
}

// Above reports whether the variate is > p, refining only as many bits as
// needed to decide.
func (l *LazyUniform) Above(p float64) bool {
	if p < 0 {
		return true
	}
	if p >= 1 {
		return false
	}
	for {
		scale := math.Ldexp(1, -int(l.n)) // 2^-n
		lo := float64(l.prefix) * scale
		hi := lo + scale
		if lo > p {
			return true
		}
		if hi <= p {
			return false
		}
		if l.n >= lazyMaxBits {
			// Ambiguous at full precision: let the materialized value decide.
			return l.Value() > p
		}
		before := l.Bits
		l.refine()
		l.DecisionBits += l.Bits - before
	}
}

// Value materializes the variate to 53-bit precision and returns it. The
// returned value lies strictly inside (0, 1) and inside every interval
// used by earlier Above decisions, so it never contradicts them.
func (l *LazyUniform) Value() float64 {
	for l.n < lazyMaxBits {
		l.refine()
	}
	return (float64(l.prefix) + 0.5) * 0x1p-53
}

// ThresholdExp decides whether the precision-sampling key v = w/t
// (t ~ Exp(1)) of an item with weight w exceeds a threshold, and can then
// materialize the key. The underlying uniform U relates to the key by
// t = -ln(U), so v > u  <=>  t < w/u  <=>  U > e^(-w/u).
//
// It runs the LazyUniform process in closed form. That process takes
// its bits most significant first from one Uint64 x and stops at 53, so
// its variate is U = (X+½)·2^-53 with X = x>>11. Against p in [0, 1)
// with P = ⌊p·2^53⌋ the bit-serial loop stops at the first bit where X
// and P differ, and then U > p iff X > P; when X == P it reaches the cap
// and the materialized U decides. One draw, one XOR and one leading-zero
// count therefore give the same decision, DecisionBits, TotalBits and
// key as the lazy loop, and leave the RNG where it would: the draw
// happens where the loop would take its first bit. LazyUniform stays the
// reference the tests compare against.
type ThresholdExp struct {
	rng *RNG
	w   float64
	x   uint64 // X, the variate's 53 bits, once drawn
	n   int    // leading bits of X the lazy loop has taken; 0 until drawn

	decisionBits int
}

// NewThresholdExp prepares the key comparison for an item of weight w > 0.
func NewThresholdExp(rng *RNG, w float64) ThresholdExp {
	return ThresholdExp{rng: rng, w: w}
}

// Above reports whether the item's key exceeds u. A non-positive threshold
// always passes (keys are strictly positive).
func (t *ThresholdExp) Above(u float64) bool {
	if u <= 0 {
		return true
	}
	p := math.Exp(-t.w / u)
	if p >= 1 {
		return false
	}
	t.draw()
	above, n := decide(t.x, p)
	if n > t.n {
		t.decisionBits += n - t.n
		t.n = n
	}
	return above
}

// decide is LazyUniform.Above(p) for p < 1 in closed form, on a variate
// whose 53 bits are X: the decision, and how many leading bits the lazy
// loop takes to reach it. No interval excludes a NaN p, so the loop
// takes all 53 bits and the materialized comparison answers false; P is
// not computed from NaN, whose conversion to an integer is undefined.
func decide(X uint64, p float64) (above bool, n int) {
	if math.IsNaN(p) {
		return false, lazyMaxBits
	}
	P := uint64(p * 0x1p53)
	n = min(bits.LeadingZeros64(X^P)-10, lazyMaxBits)
	return X > P || (X == P && value(X) > p), n
}

// value is the variate (X+½)·2^-53, exactly LazyUniform.Value.
func value(X uint64) float64 { return (float64(X) + 0.5) * 0x1p-53 }

// draw takes the one Uint64 the lazy loop would split into bits.
func (t *ThresholdExp) draw() {
	if t.n == 0 {
		t.x = t.rng.Uint64() >> (64 - lazyMaxBits)
	}
}

// Key materializes and returns the key v = w / (-ln U). It is consistent
// with every earlier Above decision.
func (t *ThresholdExp) Key() float64 {
	t.draw()
	t.n = lazyMaxBits
	return t.w / -math.Log(value(t.x))
}

// DecisionBits returns the number of random bits consumed by Above calls.
func (t *ThresholdExp) DecisionBits() int { return t.decisionBits }

// TotalBits returns all random bits consumed, including materialization.
func (t *ThresholdExp) TotalBits() int { return t.n }
