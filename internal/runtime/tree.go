package runtime

import "wrs/internal/relay"

// TCPTree returns the deployment-shaped runtime over a hierarchical
// relay tree, a *relay.TreeCluster: one CoordinatorServer on addr
// ("127.0.0.1:0" when empty) hosting every shard's coordinator, depth
// tiers of relay.Relay nodes beneath it carrying every shard's traffic
// in shard-tagged frames, and one multiplexing SiteClient per site
// attached to a leaf relay — the root terminates min(fanout, k)
// connections instead of k. Depth 0 is the flat TCP topology. The top-s
// union merge engages only when EVERY shard coordinator has opted in —
// one non-mergeable shard disables it everywhere, because relays filter
// per shard but are configured uniformly.
func TCPTree(addr string, fanout, depth int) Factory {
	return func(insts []Instance) (ShardedRuntime, error) {
		cfg, protos, machines, err := unzip(insts)
		if err != nil {
			return nil, err
		}
		merge := true
		for _, proto := range protos {
			merge = merge && relay.UnionMergeable(proto)
		}
		return relay.NewTreeCluster(cfg, protos, machines, addr, fanout, depth, relay.Options{Merge: merge})
	}
}
