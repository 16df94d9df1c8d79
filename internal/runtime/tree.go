package runtime

import (
	"wrs/internal/core"
	"wrs/internal/fabric"
	"wrs/internal/netsim"
	"wrs/internal/relay"
	"wrs/internal/transport"
)

// TCPTree returns the deployment-shaped runtime over a hierarchical
// relay tree: a CoordinatorServer on addr ("127.0.0.1:0" when empty),
// depth tiers of relay.Relay nodes beneath it, and one SiteClient per
// site attached to a leaf relay — the root terminates min(fanout, k)
// connections instead of k. Depth 0 is the flat TCP topology.
func TCPTree(addr string, fanout, depth int) Factory {
	sharded := TCPTreeSharded(addr, fanout, depth)
	return func(inst Instance) (Runtime, error) {
		return sharded([]Instance{inst})
	}
}

// TCPTreeSharded returns the sharded tree builder: one coordinator
// server hosting all P shard coordinators, one relay tree carrying
// every shard's traffic in shard-tagged frames, and one multiplexing
// connection per site to its leaf relay. The top-s union merge engages
// only when EVERY shard coordinator has opted in — one non-mergeable
// shard disables it everywhere, because relays filter per shard but are
// configured uniformly.
func TCPTreeSharded(addr string, fanout, depth int) ShardedFactory {
	return func(insts []Instance) (ShardedRuntime, error) {
		if err := fabric.Validate(len(insts)); err != nil {
			return nil, err
		}
		cfg := insts[0].Cfg
		protos := make([]transport.Coordinator, len(insts))
		machines := make([][]netsim.Site[core.Message], len(insts))
		merge := true
		for p, inst := range insts {
			protos[p] = inst.Coord
			machines[p] = inst.Sites
			merge = merge && relay.UnionMergeable(inst.Coord)
		}
		return relay.NewTreeCluster(cfg, protos, machines, addr, fanout, depth, relay.Options{Merge: merge})
	}
}
