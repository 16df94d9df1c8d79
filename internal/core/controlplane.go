package core

import (
	"math"
	"math/bits"
)

// MaxLevel is the highest level a saturation broadcast can name:
// levelOf(math.MaxFloat64, 2) = 1023, +Inf maps to the same level, and
// a base r > 2 only lowers a weight's level.
const MaxLevel = 1023

// ControlPlane is the protocol's whole downstream state (DESIGN.md
// §2.3): the epoch threshold plus one saturation bit per level. Since
// broadcasts only raise the threshold or set a bit, a plane is the fold
// of the broadcasts applied to it in any order, with any repeats, and
// replaying its Snapshot into a zero plane reproduces it. The zero value
// is the initial plane.
type ControlPlane struct {
	threshold float64
	saturated [(MaxLevel + 1) / 64]uint64
}

// Apply folds one broadcast into the plane. It ignores what no
// coordinator sends — a level outside [0, MaxLevel], a threshold that is
// not finite — so a forged broadcast can neither silence a filter nor
// grow its state; a threshold at or below the current one is stale.
func (p *ControlPlane) Apply(m Message) {
	switch m.Kind {
	case MsgLevelSaturated:
		if j := uint(m.Level); j <= MaxLevel {
			p.saturated[j/64] |= 1 << (j % 64)
		}
	case MsgEpochUpdate:
		if m.Threshold > p.threshold && m.Threshold <= math.MaxFloat64 {
			p.threshold = m.Threshold
		}
	default:
		// Upstream and window kinds are never broadcast.
	}
}

// Threshold returns the epoch threshold (0 before the first epoch).
func (p *ControlPlane) Threshold() float64 { return p.threshold }

// Saturated reports whether level j is saturated; false outside
// [0, MaxLevel].
func (p *ControlPlane) Saturated(j int) bool {
	u := uint(j)
	return u <= MaxLevel && p.saturated[u/64]&(1<<(u%64)) != 0
}

// Snapshot emits the plane as broadcasts: the saturated levels in
// ascending order, then the threshold if it is positive.
func (p *ControlPlane) Snapshot(emit func(Message)) {
	for w, word := range p.saturated {
		for ; word != 0; word &= word - 1 {
			emit(Message{Kind: MsgLevelSaturated, Level: w*64 + bits.TrailingZeros64(word)})
		}
	}
	if p.threshold > 0 {
		emit(Message{Kind: MsgEpochUpdate, Threshold: p.threshold})
	}
}
