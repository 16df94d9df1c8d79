package runtime

import (
	"errors"
	"sync"

	"wrs/internal/core"
	"wrs/internal/fabric"
	"wrs/internal/netsim"
	"wrs/internal/stream"
	"wrs/internal/transport"
)

// ShardedRuntime drives a fabric of P protocol shards under the
// Runtime contract: Feed routes each arrival to its item's shard
// (fabric.ShardOf), FeedBatch splits batches per shard in one pass,
// and Flush/Stats/Close fan out and aggregate. DoShard serializes with
// a single shard's message processing — the read path for merging
// per-shard coordinator state without stalling the other shards.
type ShardedRuntime interface {
	Runtime
	// Shards returns the number of protocol shards.
	Shards() int
	// DoShard runs fn serialized with shard p's coordinator message
	// processing only.
	DoShard(p int, fn func())
}

// ShardedFactory builds a sharded runtime over P instances that share
// one configuration. Factories with shard-aware infrastructure (TCP:
// one server, one connection per site for all shards) provide their
// own; everything else composes per-instance runtimes with NewFabric.
type ShardedFactory func(insts []Instance) (ShardedRuntime, error)

// Single adapts a single-instance Runtime to the ShardedRuntime
// contract (one shard; DoShard(0) is Do). It is the P = 1 path, which
// leaves the pre-fabric runtime stack byte-identical.
func Single(r Runtime) ShardedRuntime { return singleShard{r} }

type singleShard struct{ Runtime }

func (s singleShard) Shards() int              { return 1 }
func (s singleShard) DoShard(_ int, fn func()) { s.Do(fn) }

// Fabric composes P independently built runtimes — one full protocol
// instance each — into one ShardedRuntime. It is the generic
// composition used by the in-process runtimes; the TCP transport has a
// native sharded cluster instead (TCPSharded) so the connection count
// stays k rather than P×k.
type Fabric struct {
	runs []Runtime

	// splitMu guards free: the per-shard split buffers of finished
	// FeedBatch calls, built on first use and reused after. Each call
	// takes a set of its own, so concurrent calls never share one.
	splitMu sync.Mutex
	free    [][][]stream.Item
}

// NewFabric builds one runtime per instance with f and composes them.
// On error every runtime already started is closed.
func NewFabric(insts []Instance, f Factory) (*Fabric, error) {
	if err := fabric.Validate(len(insts)); err != nil {
		return nil, err
	}
	runs := make([]Runtime, len(insts))
	for p, inst := range insts {
		r, err := f(inst)
		if err != nil {
			for _, started := range runs[:p] {
				started.Close()
			}
			return nil, err
		}
		runs[p] = r
	}
	return &Fabric{runs: runs}, nil
}

// Shards returns the number of composed shards.
func (f *Fabric) Shards() int { return len(f.runs) }

// Feed routes one arrival to its item's shard.
func (f *Fabric) Feed(site int, it stream.Item) error {
	return f.runs[fabric.ShardOf(it.ID, len(f.runs))].Feed(site, it)
}

// FeedBatch splits the batch across shards in one pass, preserving
// per-shard arrival order, and delivers each part through the shard
// runtime's batched path. The split reuses buffers across calls, so a
// steady stream of batches allocates nothing here; shard runtimes must
// not retain a part after their FeedBatch returns.
func (f *Fabric) FeedBatch(site int, items []stream.Item) error {
	parts := f.takeSplit()
	defer f.putSplit(parts)
	p := len(f.runs)
	for _, it := range items {
		s := fabric.ShardOf(it.ID, p)
		parts[s] = append(parts[s], it)
	}
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		if err := f.runs[s].FeedBatch(site, part); err != nil {
			return err
		}
	}
	return nil
}

// takeSplit returns an empty set of per-shard parts that no other
// FeedBatch call holds.
func (f *Fabric) takeSplit() [][]stream.Item {
	f.splitMu.Lock()
	defer f.splitMu.Unlock()
	if n := len(f.free); n > 0 {
		parts := f.free[n-1]
		f.free = f.free[:n-1]
		return parts
	}
	return make([][]stream.Item, len(f.runs))
}

// putSplit empties parts and returns them to the free list.
func (f *Fabric) putSplit(parts [][]stream.Item) {
	for s := range parts {
		parts[s] = parts[s][:0]
	}
	f.splitMu.Lock()
	f.free = append(f.free, parts)
	f.splitMu.Unlock()
}

// Flush barriers every shard in turn, on the caller's goroutine. For
// the in-process runtimes that costs no more than waiting on all at
// once: the later shards keep draining while an earlier one is waited
// on.
func (f *Fabric) Flush() error {
	var errs []error
	for _, r := range f.runs {
		if err := r.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Stats sums traffic across shards.
func (f *Fabric) Stats() netsim.Stats {
	var s netsim.Stats
	for _, r := range f.runs {
		s.Add(r.Stats())
	}
	return s
}

// Do runs fn serialized with every shard's message processing at once
// (the shard locks are acquired in ascending order, so concurrent Do
// calls cannot deadlock). Prefer DoShard: Do stalls all shards.
func (f *Fabric) Do(fn func()) { f.doFrom(0, fn) }

func (f *Fabric) doFrom(p int, fn func()) {
	if p == len(f.runs) {
		fn()
		return
	}
	f.runs[p].Do(func() { f.doFrom(p+1, fn) })
}

// DoShard runs fn serialized with shard p's message processing only.
func (f *Fabric) DoShard(p int, fn func()) { f.runs[p].Do(fn) }

// Close closes every shard runtime and joins their errors.
func (f *Fabric) Close() error {
	errs := make([]error, len(f.runs))
	for p, r := range f.runs {
		errs[p] = r.Close()
	}
	return errors.Join(errs...)
}

// TCPSharded returns the sharded TCP builder: ONE coordinator server
// hosting all P shard coordinators (per-shard ingest mutexes) and one
// multiplexing connection per site carrying every shard's traffic in
// shard-tagged frames — k connections total, not P×k.
func TCPSharded(addr string) ShardedFactory {
	return func(insts []Instance) (ShardedRuntime, error) {
		if err := fabric.Validate(len(insts)); err != nil {
			return nil, err
		}
		cfg := insts[0].Cfg
		protos := make([]transport.Coordinator, len(insts))
		machines := make([][]netsim.Site[core.Message], len(insts))
		for p, inst := range insts {
			protos[p] = inst.Coord
			machines[p] = inst.Sites
		}
		return transport.NewShardedCluster(cfg, protos, machines, addr)
	}
}
