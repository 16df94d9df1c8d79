// Package fabric provides the shard-partitioning primitives for running
// P independent protocol instances behind one sampling API: a
// deterministic, seed-stable router that partitions a stream by item ID,
// and the sum of per-shard coordinator statistics. The exact merge of
// per-shard query results is core.TopSample over their concatenation.
//
// Correctness of the merge rests on the precision-sampling keys: the
// global weighted SWOR is the set of items with the s largest keys, and
// the top-s of a union is contained in the union of per-shard top-s
// sets (an item of the global top-s has fewer than s dominators overall,
// hence fewer than s within its own shard). So P full protocol
// instances, each maintaining a size-s sample over its partition, merge
// to exactly the sample one instance would maintain over the whole
// stream — the property Hübschle-Schneider & Sanders exploit for
// communication-efficient and parallel weighted reservoir sampling
// (arXiv:1910.11069, arXiv:1903.00227).
package fabric

import (
	"fmt"

	"wrs/internal/core"
)

// routerSalt decorrelates the shard router from every other use of the
// item ID (the ID is fed through a full splitmix64 mix, so IDs that are
// sequential — the common case — spread uniformly across shards).
const routerSalt = 0x7F4A7C15A0761D65

// ShardOf routes an item ID to one of p shards. It is a pure function
// of (id, p): stable across runs, seeds, runtimes, and processes, which
// is what lets independently constructed sites and coordinators agree
// on the partition without coordination.
func ShardOf(id uint64, p int) int {
	if p <= 1 {
		return 0
	}
	// splitmix64 finalizer over the salted ID.
	z := id ^ routerSalt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(p))
}

// MergeCoordStats sums per-shard coordinator statistics. Message and
// broadcast counts are additive across independent instances.
func MergeCoordStats(stats []core.CoordStats) core.CoordStats {
	var out core.CoordStats
	for _, st := range stats {
		out.EarlyMsgs += st.EarlyMsgs
		out.RegularMsgs += st.RegularMsgs
		out.Saturations += st.Saturations
		out.EpochAdvances += st.EpochAdvances
		out.LateEarlyMsgs += st.LateEarlyMsgs
		out.DroppedRegular += st.DroppedRegular
		out.IgnoredMsgs += st.IgnoredMsgs
	}
	return out
}

// Validate reports whether p is a usable shard count.
func Validate(p int) error {
	if p < 1 || p > MaxShards {
		return fmt.Errorf("fabric: shard count must be in [1,%d], got %d", MaxShards, p)
	}
	return nil
}

// MaxShards bounds the shard count; the wire format carries the shard
// index in 16 bits.
const MaxShards = 1 << 16
