package runtime

import (
	"errors"
	"sync"

	"wrs/internal/fabric"
	"wrs/internal/netsim"
	"wrs/internal/stream"
)

// Fabric composes P independently built runtimes — one full protocol
// instance each — into one ShardedRuntime: the in-process factories'
// many-shard case. The TCP factories host every shard on one server
// instead, so the connection count stays k rather than P×k.
type Fabric struct {
	runs []Runtime

	// splitMu guards free: the per-shard split buffers of finished
	// FeedBatch calls, built on first use and reused after. Each call
	// takes a set of its own, so concurrent calls never share one.
	splitMu sync.Mutex
	free    [][][]stream.Item
}

// newFabric builds one runtime per instance with b and composes them.
// On error every runtime already started is closed.
func newFabric(insts []Instance, b build) (*Fabric, error) {
	if err := fabric.Validate(len(insts)); err != nil {
		return nil, err
	}
	runs := make([]Runtime, len(insts))
	for p, inst := range insts {
		r, err := b(inst)
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
