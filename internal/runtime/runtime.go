// Package runtime is the pluggable runtime layer: a protocol instance
// is a (Coordinator, []Site) pair of transport-agnostic state machines,
// and a runtime is anything that can drive P of them (P shards, 1 when
// unsharded) — deliver arrivals to sites, carry the resulting messages
// to the coordinators, and fan broadcasts back.
//
// There is one kind of Factory, from P instances to a ShardedRuntime.
// Three runtimes ship with the repository, all driving the same
// unchanged state machines:
//
//   - Sequential: the deterministic synchronous simulator
//     (netsim.Cluster) — the model analyzed in the paper; every
//     message-complexity experiment runs on it. SequentialTree is the
//     same driver over a relay tree.
//   - Goroutines: the in-process asynchronous runtime
//     (netsim.ConcurrentCluster) — one goroutine per site, FIFO links.
//   - TCP: the deployment-shaped runtime (transport.Cluster) — a real
//     CoordinatorServer plus one SiteClient connection per site, with
//     batching, flow control, and the lock-minimized ingest path.
//     TCPTree is the same over relay.TreeCluster.
//
// The in-process factories run one instance bare behind a one-shard
// adapter and compose more through Fabric, one runtime per shard; the
// TCP factories host every shard on one server, over one connection per
// site.
//
// Because the split is sampler/communication-substrate (the design axis
// of Hübschle-Schneider & Sanders, arXiv:1910.11069), every application
// — plain SWOR, heavy hitters, L1 tracking — runs over every runtime:
// the application supplies the instances, the runtime supplies delivery.
package runtime

import (
	"errors"

	"wrs/internal/core"
	"wrs/internal/fabric"
	"wrs/internal/netsim"
	"wrs/internal/relay"
	"wrs/internal/stream"
	"wrs/internal/transport"
)

// Coordinator is the coordinator side of an instance: the plain sampler
// coordinator or an application wrapper around it. It is the protocol a
// transport server hosts; Core exposes the inner sampler for queries
// and transport-level snapshots.
type Coordinator = transport.Coordinator

// Instance is one protocol instance, ready to be driven by a runtime.
type Instance struct {
	Cfg   core.Config
	Coord Coordinator
	Sites []netsim.Site[core.Message]
}

// SiteList widens a slice of concrete site machines (*core.Site,
// *l1track.DupSite, ...) to the netsim.Site[core.Message] slice an
// Instance carries — the conversion every application performs when
// assembling instances.
func SiteList[S netsim.Site[core.Message]](sites []S) []netsim.Site[core.Message] {
	out := make([]netsim.Site[core.Message], len(sites))
	for i, s := range sites {
		out[i] = s
	}
	return out
}

// Runtime drives a protocol instance. Which goroutines may call Feed
// and FeedBatch is runtime-specific: the sequential runtime is
// single-threaded, the others allow one feeder per site.
type Runtime interface {
	// Feed delivers one arrival to a site.
	Feed(site int, it stream.Item) error
	// FeedBatch delivers a slice of arrivals to a site in order, using
	// the runtime's batched path. A runtime neither keeps nor writes
	// the batch after FeedBatch returns: the caller may overwrite it
	// then, and the public ObserveBatch passes the caller's own slice.
	FeedBatch(site int, items []stream.Item) error
	// Flush is a barrier: when it returns, everything fed before the
	// call has reached the coordinator and the resulting broadcasts
	// have been applied as far as the runtime can guarantee.
	Flush() error
	// Stats returns cumulative protocol traffic.
	Stats() netsim.Stats
	// Do runs fn serialized with coordinator message processing, so fn
	// can read coordinator state consistently at any time.
	Do(fn func())
	// Close releases the runtime's resources. Feeding afterwards is an
	// error. Close does not flush.
	Close() error
}

// ShardedRuntime drives P protocol shards under the Runtime contract:
// Feed routes each arrival to its item's shard (fabric.ShardOf),
// FeedBatch splits batches per shard in one pass, and
// Flush/Stats/Close fan out and aggregate. DoShard serializes with a
// single shard's message processing — the read path for merging
// per-shard coordinator state without stalling the other shards.
type ShardedRuntime interface {
	Runtime
	// Shards returns the number of protocol shards.
	Shards() int
	// DoShard runs fn serialized with shard p's coordinator message
	// processing only.
	DoShard(p int, fn func())
}

// Factory builds a runtime over P instances that share one
// configuration, one instance per shard.
type Factory func(insts []Instance) (ShardedRuntime, error)

// build starts a runtime over one instance: the per-shard step of the
// in-process factories.
type build func(inst Instance) (Runtime, error)

// inProcess makes a Factory from a one-instance build: one instance
// runs bare behind the one-shard adapter, more compose through Fabric.
func inProcess(b build) Factory {
	return func(insts []Instance) (ShardedRuntime, error) {
		if len(insts) != 1 {
			return newFabric(insts, b)
		}
		r, err := b(insts[0])
		if err != nil {
			return nil, err
		}
		return singleShard{r}, nil
	}
}

// singleShard is the one-shard adapter: one instance's runtime under
// the ShardedRuntime contract (DoShard(0) is Do).
type singleShard struct{ Runtime }

func (s singleShard) Shards() int              { return 1 }
func (s singleShard) DoShard(_ int, fn func()) { s.Do(fn) }

// Sequential returns the deterministic synchronous runtime: messages
// and broadcasts are delivered inline inside Feed, exactly the model of
// Section 2.1. It is SequentialTree's flat (depth-0) case.
// Single-goroutine use only.
func Sequential() Factory { return sequential }

// sequential and goroutines are built once: a Factory is a closure, and
// Open calls Sequential() or Goroutines() afresh for every handle.
var (
	sequential = SequentialTree(0, 0)
	goroutines = inProcess(func(inst Instance) (Runtime, error) {
		cc := netsim.NewConcurrentCluster[core.Message](inst.Coord, inst.Sites)
		cc.Start()
		return goRuntime{cc}, nil
	})
)

// SequentialTree returns the deterministic synchronous runtime over a
// hierarchical relay tree (netsim.NewTreeCluster with relay.Machine
// nodes): messages climb the tree and broadcasts fan down inline inside
// Feed, with relay pre-filtering on the way up. Because relays only
// drop messages the coordinator would drop on arrival anyway,
// coordinator state, the broadcast sequence, and site-edge Stats are
// bit-identical to Sequential under the same seeds. The top-s union
// merge engages only when the instance's coordinator has opted in
// (relay.UnionMergeable). Single-goroutine use only.
func SequentialTree(fanout, depth int) Factory {
	return inProcess(func(inst Instance) (Runtime, error) {
		s, merge := inst.Cfg.S, relay.UnionMergeable(inst.Coord)
		c, err := netsim.NewTreeCluster[core.Message](inst.Coord, inst.Sites, fanout, depth,
			func(int, int) netsim.TreeRelay[core.Message] { return relay.NewMachine(s, merge) })
		if err != nil {
			return nil, err
		}
		return &seqRuntime{c: c}, nil
	})
}

// Goroutines returns the in-process asynchronous runtime: one goroutine
// per site plus one for the coordinator, FIFO links both ways.
func Goroutines() Factory { return goroutines }

// TCP returns the deployment-shaped runtime, a *transport.Cluster: ONE
// CoordinatorServer listening on addr ("127.0.0.1:0" when empty — any
// free loopback port) hosting every shard's coordinator behind its own
// ingest mutex, and one SiteClient connection per site carrying every
// shard's traffic in shard-tagged frames — k connections, not P×k.
func TCP(addr string) Factory {
	return func(insts []Instance) (ShardedRuntime, error) {
		cfg, protos, machines, err := unzip(insts)
		if err != nil {
			return nil, err
		}
		return transport.NewCluster(cfg, protos, machines, addr, nil)
	}
}

// unzip splits P instances into what the TCP clusters take: the shared
// configuration, the shard coordinators, and the site machines indexed
// [shard][site].
func unzip(insts []Instance) (core.Config, []Coordinator, [][]netsim.Site[core.Message], error) {
	if err := fabric.Validate(len(insts)); err != nil {
		return core.Config{}, nil, nil, err
	}
	protos := make([]Coordinator, len(insts))
	machines := make([][]netsim.Site[core.Message], len(insts))
	for p, inst := range insts {
		protos[p] = inst.Coord
		machines[p] = inst.Sites
	}
	return insts[0].Cfg, protos, machines, nil
}

// seqRuntime adapts netsim.Cluster. Everything is synchronous, so
// Flush is a no-op and Do is a plain call; Close only rejects further
// feeding, keeping the contract uniform across runtimes.
type seqRuntime struct {
	c      *netsim.Cluster[core.Message]
	closed bool
}

func (r *seqRuntime) Feed(site int, it stream.Item) error {
	if r.closed {
		return errClosed
	}
	return r.c.Feed(site, it)
}
func (r *seqRuntime) FeedBatch(site int, items []stream.Item) error {
	if r.closed {
		return errClosed
	}
	return r.c.FeedBatch(site, items)
}
func (r *seqRuntime) Flush() error        { return nil }
func (r *seqRuntime) Stats() netsim.Stats { return r.c.Stats }
func (r *seqRuntime) Do(fn func())        { fn() }
func (r *seqRuntime) Close() error        { r.closed = true; return nil }

var errClosed = errors.New("runtime: feed on closed runtime")

// goRuntime adapts netsim.ConcurrentCluster; Close drains it. Drain is
// idempotent and the cluster's counters stop once its goroutines are
// joined, so Stats after Close reads the final traffic.
type goRuntime struct {
	*netsim.ConcurrentCluster[core.Message]
}

func (r goRuntime) Close() error {
	_, err := r.Drain()
	return err
}
