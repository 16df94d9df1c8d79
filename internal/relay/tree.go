package relay

import (
	"errors"

	"wrs/internal/core"
	"wrs/internal/netsim"
	"wrs/internal/transport"
)

// tiers is a relay tree under one coordinator address: depth tiers of
// the given fanout, tier 0 attached to the server, wired by
// netsim.TreeParent down to the sites (or bench connections).
type tiers struct {
	cfg                   core.Config
	shards, fanout, depth int
	opts                  Options
	sizes                 []int
	nodes                 [][]*Relay
}

// dial builds the tiers beneath serverAddr and returns each site's leaf
// address and the teardown (leaves first): the shape of
// transport.IngestBenchOpts.TreeDial and transport.NewShardedClusterVia.
// Depth 0 builds nothing and routes every site to the server. On error
// everything already started is torn down.
func (t *tiers) dial(serverAddr string) (func(site int) string, func() error, error) {
	if err := netsim.ValidateTree(t.fanout, t.depth); err != nil {
		return nil, nil, err
	}
	t.sizes = netsim.TreeTierSizes(t.cfg.K, t.fanout, t.depth)
	t.nodes = make([][]*Relay, t.depth)
	for tier, n := range t.sizes {
		t.nodes[tier] = make([]*Relay, n)
		for node := range t.nodes[tier] {
			parentAddr := serverAddr
			if tier > 0 {
				parentAddr = t.nodes[tier-1][netsim.TreeParent(t.sizes, tier, node)].Addr()
			}
			r, err := New(t.cfg, t.shards, parentAddr, "", t.opts)
			if err != nil {
				t.close()
				return nil, nil, err
			}
			t.nodes[tier][node] = r
		}
	}
	if t.depth == 0 {
		return func(int) string { return serverAddr }, t.close, nil
	}
	leaves := t.nodes[t.depth-1]
	return func(site int) string { return leaves[netsim.TreeParent(t.sizes, t.depth, site)].Addr() }, t.close, nil
}

// close tears the tiers down from the leaves up.
func (t *tiers) close() error {
	var errs []error
	for tier := len(t.nodes) - 1; tier >= 0; tier-- {
		for _, r := range t.nodes[tier] {
			if r != nil {
				errs = append(errs, r.Close())
			}
		}
	}
	return errors.Join(errs...)
}

// IngestTier adapts the relay fabric to transport.IngestBenchOpts
// .TreeDial: it returns a hook that builds depth tiers of the given
// fanout over the bench server's address and routes bench connection i
// to its leaf relay by netsim.TreeParent — the same topology
// NewTreeCluster gives sites. cfg must match the bench's server
// configuration (relay filter machines size their top-s from cfg.S).
func IngestTier(cfg core.Config, shards, fanout, depth int, opts Options) func(serverAddr string) (func(conn int) string, func() error, error) {
	return func(serverAddr string) (func(conn int) string, func() error, error) {
		t := &tiers{cfg: cfg, shards: shards, fanout: fanout, depth: depth, opts: opts}
		return t.dial(serverAddr)
	}
}

// TierStats is one relay tier's traffic accounting in a TreeCluster.
type TierStats struct {
	Nodes        int   // relay nodes in this tier
	Forwarded    int64 // upstream messages the tier passed toward the root
	Filtered     int64 // upstream messages the tier swallowed
	DownMessages int64 // broadcast messages the tier delivered to its children
	DownWords    int64
}

// TreeCluster is the deployment-shaped runtime over a hierarchical
// relay tree: a transport.Cluster — one CoordinatorServer hosting all
// protocol shards, one SiteClient per site — whose sites dial leaf
// relays of depth tiers instead of the server. The root terminates
// min(fanout, k) connections instead of k; every tier pre-filters
// upstream candidates and fans broadcasts down. Depth 0 degenerates to
// the flat topology (no relays, sites dial the server directly).
//
// The driving surface is transport.Cluster's — Feed, FeedBatch, Flush,
// Do/DoShard, Server().Query(), Close — so every application runs over
// the tree unchanged. A site's Flush round-trips through its whole
// relay chain: each relay on the path ships its buffered frames before
// forwarding the ping, and the pong comes back only after the
// coordinator has processed everything and every triggered broadcast
// has been queued ahead of it at each tier.
type TreeCluster struct {
	*transport.Cluster
	tiers *tiers
}

// NewTreeCluster starts a coordinator server hosting len(protos)
// protocol shards on addr ("127.0.0.1:0" when empty), builds depth
// relay tiers of the given fanout beneath it, and connects one
// multiplexing SiteClient per site to its leaf relay (wired by
// netsim.TreeParent — round-robin, seed-independent). machines is
// indexed [shard][site]. The top-s union merge is enabled on every
// relay only when every shard protocol has opted in via the
// UnionTopSMergeable marker; the threshold pre-filter is always on. On
// error everything already started is torn down.
func NewTreeCluster(cfg core.Config, protos []transport.Coordinator, machines [][]netsim.Site[core.Message], addr string, fanout, depth int, opts Options) (*TreeCluster, error) {
	t := &tiers{cfg: cfg, shards: len(protos), fanout: fanout, depth: depth, opts: opts}
	cl, err := transport.NewShardedClusterVia(cfg, protos, machines, addr, t.dial)
	if err != nil {
		return nil, err
	}
	return &TreeCluster{Cluster: cl, tiers: t}, nil
}

// Depth returns the number of relay tiers.
func (c *TreeCluster) Depth() int { return c.tiers.depth }

// RootConns returns how many connections the coordinator terminates:
// the top relay tier's node count, or k for the flat topology. This is
// the quantity the tree exists to shrink.
func (c *TreeCluster) RootConns() int {
	if c.tiers.depth == 0 {
		return c.tiers.cfg.K
	}
	return len(c.tiers.nodes[0])
}

// RootUpstream returns the messages forwarded to the coordinator by the
// top relay tier — the root edge's traffic. For the flat topology it
// equals the site edge, Stats().Upstream.
func (c *TreeCluster) RootUpstream() int64 {
	if c.tiers.depth == 0 {
		return c.Stats().Upstream
	}
	var n int64
	for _, r := range c.tiers.nodes[0] {
		n += r.Forwarded()
	}
	return n
}

// TierStats returns per-tier traffic accounting, tier 0 (the root's
// children) first. Empty for the flat topology.
func (c *TreeCluster) TierStats() []TierStats {
	out := make([]TierStats, len(c.tiers.nodes))
	for t, tier := range c.tiers.nodes {
		st := TierStats{Nodes: len(tier)}
		for _, r := range tier {
			st.Forwarded += r.Forwarded()
			st.Filtered += r.Filtered()
			st.DownMessages += r.DownMessages()
			st.DownWords += r.DownWords()
		}
		out[t] = st
	}
	return out
}

// Stats returns cumulative protocol traffic in the paper's accounting,
// measured at the site edge so trees and the flat topology compare
// directly: upstream counts messages sites put on the wire, downstream
// counts per-site broadcast deliveries (for depth > 0, the leaf tier's
// fan-down; snapshot frames included). Control frames and shard tags
// are excluded. The root edge — what relay filtering saved — is
// RootUpstream and TierStats.
func (c *TreeCluster) Stats() netsim.Stats {
	s := c.Cluster.Stats()
	if c.tiers.depth == 0 {
		return s
	}
	s.Downstream, s.DownWords = 0, 0
	for _, r := range c.tiers.nodes[c.tiers.depth-1] {
		s.Downstream += r.DownMessages()
		s.DownWords += r.DownWords()
	}
	return s
}
