package netsim

import "fmt"

// TreeRelay is the per-node state machine of a hierarchical aggregation
// tree (package relay provides the protocol implementation). A relay
// sits between a slice of sites (or lower relays) and the coordinator
// (or a higher relay): upstream messages pass through Up, which either
// swallows them (pre-filtering below the broadcast threshold, or
// against the top-s union merge) or hands them to forward; coordinator
// broadcasts pass through Down on their way to the children, letting
// the relay track the monotone control plane.
type TreeRelay[M Msg] interface {
	// Up processes one upstream message, calling forward for each
	// message that should continue toward the coordinator (zero or one
	// per call today; the signature permits coalescing relays).
	Up(m M, forward func(M))
	// Down observes one coordinator broadcast on its way down the tree.
	Down(m M)
}

// ValidateTree checks a tree shape: depth 0 (the flat topology, no
// relay tier) needs no fanout; any deeper tree needs fanout >= 2 —
// fanout 1 would chain every message through depth relays for no
// connection reduction.
func ValidateTree(fanout, depth int) error {
	if depth < 0 {
		return fmt.Errorf("netsim: tree depth %d is negative", depth)
	}
	if depth > 0 && fanout < 2 {
		return fmt.Errorf("netsim: tree fanout %d < 2 (depth %d)", fanout, depth)
	}
	return nil
}

// TreeTierSizes returns the relay count of each tier of a fanout-ary
// aggregation tree over k sites, tier 0 being the coordinator's
// children and tier depth-1 the leaves the sites attach to. Tier t
// holds min(fanout^(t+1), k) relays — no tier needs more nodes than
// there are sites — so the root terminates min(fanout, k) connections
// instead of k.
func TreeTierSizes(k, fanout, depth int) []int {
	sizes := make([]int, depth)
	width := 1
	for t := range sizes {
		if fanout > 0 && width > k/fanout {
			width = k // clamp before multiplying: a huge fanout must not overflow
		} else {
			width *= fanout
		}
		sizes[t] = width
	}
	return sizes
}

// TreeParent is the tree's one wiring rule: node of tier attaches to
// node TreeParent(sizes, tier, node) of tier-1, where tier len(sizes)
// is the sites and tier 0 attaches to the coordinator (node 0).
// Round-robin and seed-independent, it gives every parent at most
// fanout children.
func TreeParent(sizes []int, tier, node int) int {
	if tier == 0 {
		return 0
	}
	return node % sizes[tier-1]
}

// TreeTierStats is one relay tier's message accounting in a Cluster.
type TreeTierStats struct {
	Nodes     int   // relay nodes in this tier
	In        int64 // messages entering the tier from below
	Forwarded int64 // messages the tier passed toward the coordinator
}

// Filtered returns the messages this tier swallowed.
func (t TreeTierStats) Filtered() int64 { return t.In - t.Forwarded }

// RootFanIn returns how many connections the coordinator terminates:
// the top tier's node count, or k for the flat topology.
func (c *Cluster[M]) RootFanIn() int { return c.width(0) }

// RootUpstream returns the messages that reached the coordinator — the
// top tier's forwarded count, or Stats.Upstream for the flat topology.
// The gap to Stats.Upstream (the site edge) is what relay pre-filtering
// saved.
func (c *Cluster[M]) RootUpstream() int64 {
	if len(c.Relays) == 0 {
		return c.Stats.Upstream
	}
	return c.tierFwd[0]
}

// TierStats returns per-tier message accounting, tier 0 first; empty
// for the flat topology.
func (c *Cluster[M]) TierStats() []TreeTierStats {
	out := make([]TreeTierStats, len(c.Relays))
	for t := range out {
		out[t] = TreeTierStats{Nodes: c.sizes[t], In: c.tierIn[t], Forwarded: c.tierFwd[t]}
	}
	return out
}
