// Package netsim provides the two in-process runtimes that drive the
// transport-agnostic site/coordinator state machines (package
// internal/runtime wraps them, together with the TCP transport, behind
// one Runtime interface):
//
//   - Cluster: the one deterministic driver, over a flat topology or a
//     relay tree, with exact message and word accounting. Left alone it
//     delivers every hop inline — the synchronous model of Section 2.1
//     (a broadcast is delivered to every site before the next arrival),
//     on which all message-complexity experiments run; the chaos engine
//     (package workload) plugs its virtual clock, link models and
//     faults into its Link seam instead.
//   - ConcurrentCluster (concurrent.go): a goroutine-per-site runtime
//     with batched FIFO input queues and FIFO links in both directions,
//     demonstrating the protocol live and validating that correctness
//     survives asynchrony (stale thresholds only cost extra messages;
//     see DESIGN.md).
package netsim

import (
	"fmt"

	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// Msg is the constraint for protocol messages: they must report their
// size in machine words for communication accounting.
type Msg interface {
	Words() int
}

// Site is a per-site protocol state machine.
type Site[M Msg] interface {
	// Observe processes one local arrival and may emit messages to the
	// coordinator through send.
	Observe(it stream.Item, send func(M)) error
	// HandleBroadcast applies a coordinator announcement. Implementations
	// must not send from inside HandleBroadcast.
	HandleBroadcast(M)
}

// RepeatSite is implemented by sites that can process many identical
// copies of an update in sublinear time (the L1-tracking duplication).
type RepeatSite[M Msg] interface {
	ObserveRepeated(it stream.Item, count int, send func(M)) error
}

// BatchSite is implemented by sites with a native batch ingest path
// (core.Site's A-ExpJ skip-ahead keeps its armed jump in a register
// across a batch). FeedBatch uses it when present.
type BatchSite[M Msg] interface {
	ObserveBatch(items []stream.Item, send func(M)) error
}

// Coordinator is the central protocol state machine.
type Coordinator[M Msg] interface {
	// HandleMessage processes one site message and may broadcast
	// announcements to all sites through bcast.
	HandleMessage(m M, bcast func(M))
}

// Stats counts network traffic. A broadcast costs k messages, matching
// the paper's accounting.
type Stats struct {
	Upstream   int64 // site -> coordinator messages
	Downstream int64 // coordinator -> site messages (broadcast = k)
	UpWords    int64
	DownWords  int64
}

// Total returns the total number of messages sent over the network.
func (s Stats) Total() int64 { return s.Upstream + s.Downstream }

// TotalWords returns the total number of machine words sent.
func (s Stats) TotalWords() int64 { return s.UpWords + s.DownWords }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Upstream += other.Upstream
	s.Downstream += other.Downstream
	s.UpWords += other.UpWords
	s.DownWords += other.DownWords
}

// Hop names one edge of a Cluster's topology by its lower end: node
// Node of relay tier Tier, where Tier == Depth() names site Node. An
// upward hop carries a message from that end to its parent (the
// coordinator, above tier 0); a downward hop carries a broadcast from
// the parent into that end.
type Hop struct {
	Up   bool
	Tier int
	Node int
}

// Cluster is the deterministic driver: it wires the protocol state
// machines into a flat topology (every site under the coordinator) or
// a relay tree (NewTreeCluster) and moves every message and broadcast
// copy across one hop at a time. With Link unset each hop is delivered
// inline, so a broadcast reaches every site before the next arrival:
// the synchronous model of Section 2.1, which every message-complexity
// experiment runs on. A scheduler (the chaos engine of package
// workload) sets Link to carry hops over its own clock, links and
// faults instead.
//
// Stats is measured at the site edge, so a tree and the flat topology
// compare directly; what relays filter shows in RootUpstream and
// TierStats. On a tree, a site's messages climb through its leaf relay
// and that relay's ancestors, and broadcasts fan down through every
// relay to every site. Relays only drop messages the coordinator would
// drop on arrival, so under synchronous delivery the coordinator state,
// the broadcast sequence and Stats are bit-identical to the flat
// topology's under the same seeds.
type Cluster[M Msg] struct {
	Coord  Coordinator[M]
	Sites  []Site[M]
	Relays [][]TreeRelay[M] // [tier][node]; tier 0 reports to the coordinator
	Stats  Stats

	// Link, when set, receives every copy the cluster sends, and must
	// call Arrive(h, m) when (and only if) that copy lands. When nil,
	// the cluster calls Arrive itself, inline.
	Link func(Hop, M)

	sizes   []int       // relay tier widths; nil when flat
	tierIn  []int64     // per tier: messages entering from below
	tierFwd []int64     // per tier: messages passed toward the coordinator
	forward [][]func(M) // per relay: its upward send
	cur     int         // the site being fed; sends come only from it
	send    func(M)
	bcast   func(M)
}

// NewCluster assembles a flat cluster: every site reports directly to
// the coordinator.
func NewCluster[M Msg](coord Coordinator[M], sites []Site[M]) *Cluster[M] {
	c := &Cluster[M]{Coord: coord, Sites: sites}
	c.send = c.sendUp
	c.bcast = c.broadcast
	return c
}

// NewTreeCluster assembles a cluster over depth relay tiers of the
// given fanout (TreeTierSizes, wired by TreeParent); newRelay builds
// the state machine of each node. Depth 0 is the flat topology.
func NewTreeCluster[M Msg](coord Coordinator[M], sites []Site[M], fanout, depth int, newRelay func(tier, node int) TreeRelay[M]) (*Cluster[M], error) {
	if err := ValidateTree(fanout, depth); err != nil {
		return nil, err
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("netsim: tree cluster with no sites")
	}
	c := NewCluster(coord, sites)
	if depth == 0 {
		return c, nil
	}
	c.sizes = TreeTierSizes(len(sites), fanout, depth)
	c.Relays = make([][]TreeRelay[M], depth)
	c.forward = make([][]func(M), depth)
	c.tierIn = make([]int64, depth)
	c.tierFwd = make([]int64, depth)
	for t, n := range c.sizes {
		c.Relays[t] = make([]TreeRelay[M], n)
		c.forward[t] = make([]func(M), n)
		for node := range c.Relays[t] {
			c.Relays[t][node] = newRelay(t, node)
			c.forward[t][node] = func(m M) {
				c.tierFwd[t]++
				c.hop(Hop{Up: true, Tier: t, Node: node}, m)
			}
		}
	}
	return c, nil
}

// K returns the number of sites.
func (c *Cluster[M]) K() int { return len(c.Sites) }

// Depth returns the number of relay tiers (0 when flat).
func (c *Cluster[M]) Depth() int { return len(c.Relays) }

// width returns the node count of tier t: 1 for the coordinator (t =
// -1), the relay tier's size, or k for the sites (t = Depth()).
func (c *Cluster[M]) width(t int) int {
	switch {
	case t < 0:
		return 1
	case t < len(c.sizes):
		return c.sizes[t]
	default:
		return len(c.Sites)
	}
}

func (c *Cluster[M]) sendUp(m M) {
	c.Stats.Upstream++
	c.Stats.UpWords += int64(m.Words())
	c.hop(Hop{Up: true, Tier: len(c.Relays), Node: c.cur}, m)
}

func (c *Cluster[M]) broadcast(m M) {
	k := int64(len(c.Sites))
	c.Stats.Downstream += k
	c.Stats.DownWords += int64(m.Words()) * k
	c.fanDown(0, 0, m)
}

// fanDown sends m to the children of node parent of tier t-1, in
// ascending order: the nodes of tier t that TreeParent maps to parent.
func (c *Cluster[M]) fanDown(t, parent int, m M) {
	for child, n, stride := parent, c.width(t), c.width(t-1); child < n; child += stride {
		c.hop(Hop{Tier: t, Node: child}, m)
	}
}

func (c *Cluster[M]) hop(h Hop, m M) {
	if c.Link != nil {
		c.Link(h, m)
		return
	}
	c.Arrive(h, m)
}

// Arrive completes hop h: an upward message enters the parent's state
// machine (a relay's Up, or the coordinator's HandleMessage); a
// downward broadcast enters the lower end (a site's HandleBroadcast,
// or a relay's Down, which then fans it on to the relay's children).
// Whatever that sends next goes through Link again.
func (c *Cluster[M]) Arrive(h Hop, m M) {
	switch {
	case h.Up && h.Tier == 0:
		c.Coord.HandleMessage(m, c.bcast)
	case h.Up:
		t, node := h.Tier-1, TreeParent(c.sizes, h.Tier, h.Node)
		c.tierIn[t]++
		c.Relays[t][node].Up(m, c.forward[t][node])
	case h.Tier == len(c.Relays):
		c.Sites[h.Node].HandleBroadcast(m)
	default:
		c.Relays[h.Tier][h.Node].Down(m)
		c.fanDown(h.Tier+1, h.Node, m)
	}
}

// feeding checks a site index and makes that site the sender of every
// message until the next feed.
func (c *Cluster[M]) feeding(siteID int) error {
	if siteID < 0 || siteID >= len(c.Sites) {
		return fmt.Errorf("netsim: site %d out of range [0,%d)", siteID, len(c.Sites))
	}
	c.cur = siteID
	return nil
}

// Feed delivers one arrival to a site and sends every resulting
// message; with Link unset, every message and broadcast it triggers is
// delivered before Feed returns.
func (c *Cluster[M]) Feed(siteID int, it stream.Item) error {
	if err := c.feeding(siteID); err != nil {
		return err
	}
	return c.Sites[siteID].Observe(it, c.send)
}

// FeedBatch delivers a slice of arrivals to a site in order — the
// sequential-runtime counterpart of transport.SiteClient.ObserveBatch,
// so code can be written against one feeding API and run on either
// runtime. Sites with a native batch path (BatchSite) get the whole
// slice in one call; otherwise batching changes nothing observable and
// exists for API parity.
func (c *Cluster[M]) FeedBatch(siteID int, items []stream.Item) error {
	if err := c.feeding(siteID); err != nil {
		return err
	}
	if bs, ok := c.Sites[siteID].(BatchSite[M]); ok {
		return bs.ObserveBatch(items, c.send)
	}
	for _, it := range items {
		if err := c.Sites[siteID].Observe(it, c.send); err != nil {
			return err
		}
	}
	return nil
}

// FeedRepeated delivers count identical copies of an arrival, using the
// site's batched path when available.
func (c *Cluster[M]) FeedRepeated(siteID int, it stream.Item, count int) error {
	if err := c.feeding(siteID); err != nil {
		return err
	}
	if rs, ok := c.Sites[siteID].(RepeatSite[M]); ok {
		return rs.ObserveRepeated(it, count, c.send)
	}
	for i := 0; i < count; i++ {
		if err := c.Sites[siteID].Observe(it, c.send); err != nil {
			return err
		}
	}
	return nil
}

// Run feeds an entire generated stream through the cluster.
func (c *Cluster[M]) Run(g *stream.Generator, rng *xrand.RNG) error {
	g.Reset()
	for {
		u, ok := g.Next(rng)
		if !ok {
			return nil
		}
		if err := c.Feed(u.Site, u.Item); err != nil {
			return err
		}
	}
}

// RunStream feeds a materialized stream through the cluster.
func (c *Cluster[M]) RunStream(s *stream.Stream) error {
	for _, u := range s.Updates {
		if err := c.Feed(u.Site, u.Item); err != nil {
			return err
		}
	}
	return nil
}
