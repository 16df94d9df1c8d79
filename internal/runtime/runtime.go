// Package runtime is the pluggable runtime layer: a protocol instance
// is a (Coordinator, []Site) pair of transport-agnostic state machines,
// and a Runtime is anything that can drive one — deliver arrivals to
// sites, carry the resulting messages to the coordinator, and fan
// broadcasts back.
//
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
//
// Because the split is sampler/communication-substrate (the design axis
// of Hübschle-Schneider & Sanders, arXiv:1910.11069), every application
// — plain SWOR, heavy hitters, L1 tracking — runs over every runtime:
// the application supplies the instance, the runtime supplies delivery.
package runtime

import (
	"errors"

	"wrs/internal/core"
	"wrs/internal/netsim"
	"wrs/internal/relay"
	"wrs/internal/stream"
	"wrs/internal/transport"
)

// Coordinator is the coordinator side of an instance: the plain sampler
// coordinator or an application wrapper around it. Core exposes the
// inner sampler for queries and transport-level snapshots.
type Coordinator interface {
	HandleMessage(m core.Message, bcast func(core.Message))
	Core() *core.Coordinator
}

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
	// the runtime's batched path.
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

// Factory builds a runtime over an instance.
type Factory func(inst Instance) (Runtime, error)

// Sequential returns the deterministic synchronous runtime: messages
// and broadcasts are delivered inline inside Feed, exactly the model of
// Section 2.1. It is SequentialTree's flat (depth-0) case.
// Single-goroutine use only.
func Sequential() Factory { return sequential }

// sequential is built once: a Factory is a closure, and Open calls
// Sequential() afresh for every handle.
var sequential = SequentialTree(0, 0)

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
	return func(inst Instance) (Runtime, error) {
		s, merge := inst.Cfg.S, relay.UnionMergeable(inst.Coord)
		c, err := netsim.NewTreeCluster[core.Message](inst.Coord, inst.Sites, fanout, depth,
			func(int, int) netsim.TreeRelay[core.Message] { return relay.NewMachine(s, merge) })
		if err != nil {
			return nil, err
		}
		return &seqRuntime{c: c}, nil
	}
}

// Goroutines returns the in-process asynchronous runtime: one goroutine
// per site plus one for the coordinator, FIFO links both ways.
func Goroutines() Factory {
	return func(inst Instance) (Runtime, error) {
		cc := netsim.NewConcurrentCluster[core.Message](inst.Coord, inst.Sites)
		cc.Start()
		return &goRuntime{cc: cc}, nil
	}
}

// TCP returns the deployment-shaped runtime: a CoordinatorServer
// listening on addr ("127.0.0.1:0" when empty — any free loopback
// port) and one SiteClient connection per site.
func TCP(addr string) Factory {
	return func(inst Instance) (Runtime, error) {
		return transport.NewCluster(inst.Cfg, inst.Coord, inst.Sites, addr)
	}
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

// goRuntime adapts netsim.ConcurrentCluster; Close drains it.
type goRuntime struct {
	cc *netsim.ConcurrentCluster[core.Message]

	closed     bool
	finalStats netsim.Stats
	closeErr   error
}

func (r *goRuntime) Feed(site int, it stream.Item) error { return r.cc.Feed(site, it) }
func (r *goRuntime) FeedBatch(site int, items []stream.Item) error {
	return r.cc.FeedBatch(site, items)
}
func (r *goRuntime) Flush() error { return r.cc.Flush() }
func (r *goRuntime) Stats() netsim.Stats {
	if r.closed {
		return r.finalStats
	}
	return r.cc.Stats()
}
func (r *goRuntime) Do(fn func()) { r.cc.Do(fn) }
func (r *goRuntime) Close() error {
	if !r.closed {
		r.finalStats, r.closeErr = r.cc.Drain()
		r.closed = true
	}
	return r.closeErr
}
