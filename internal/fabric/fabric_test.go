package fabric

import (
	"testing"

	"wrs/internal/core"
	"wrs/internal/stream"
)

func TestShardOfDeterministicAndInRange(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16, 100} {
		for id := uint64(0); id < 10000; id++ {
			s := ShardOf(id, p)
			if s < 0 || s >= p {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, p, s)
			}
			if s != ShardOf(id, p) {
				t.Fatalf("ShardOf(%d, %d) not deterministic", id, p)
			}
		}
	}
}

func TestShardOfSingleShardIsZero(t *testing.T) {
	for id := uint64(0); id < 100; id++ {
		if ShardOf(id, 1) != 0 {
			t.Fatalf("ShardOf(%d, 1) != 0", id)
		}
	}
}

// TestShardOfBalanced checks that sequential IDs — the common case —
// spread roughly uniformly: the splitmix64 finalizer must decorrelate
// the low bits from the modulus.
func TestShardOfBalanced(t *testing.T) {
	const n, p = 100000, 8
	counts := make([]int, p)
	for id := uint64(0); id < n; id++ {
		counts[ShardOf(id, p)]++
	}
	want := n / p
	for s, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("shard %d holds %d of %d ids (want ~%d)", s, c, n, want)
		}
	}
}

func TestMergeIsExactTopS(t *testing.T) {
	// Three "shards" with interleaved keys; the merge of their top-4
	// truncations must be the global top-4.
	mk := func(keys ...float64) []core.SampleEntry {
		out := make([]core.SampleEntry, len(keys))
		for i, k := range keys {
			out[i] = core.SampleEntry{Key: k, Item: stream.Item{ID: uint64(k * 10)}}
		}
		return out
	}
	all := append(append(mk(9, 5, 1), mk(8, 6, 2)...), mk(7, 4, 3)...)
	got := core.TopSample(all, 4)
	want := []float64{9, 8, 7, 6}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Key != want[i] {
			t.Errorf("merged[%d].Key = %v, want %v", i, e.Key, want[i])
		}
	}
}

func TestMergeCoordStats(t *testing.T) {
	a := core.CoordStats{EarlyMsgs: 1, RegularMsgs: 2, Saturations: 3, EpochAdvances: 4, LateEarlyMsgs: 5, DroppedRegular: 6}
	b := core.CoordStats{EarlyMsgs: 10, RegularMsgs: 20, Saturations: 30, EpochAdvances: 40, LateEarlyMsgs: 50, DroppedRegular: 60}
	got := MergeCoordStats([]core.CoordStats{a, b})
	want := core.CoordStats{EarlyMsgs: 11, RegularMsgs: 22, Saturations: 33, EpochAdvances: 44, LateEarlyMsgs: 55, DroppedRegular: 66}
	if got != want {
		t.Errorf("MergeCoordStats = %+v, want %+v", got, want)
	}
	if got.Broadcasts() != 77 {
		t.Errorf("Broadcasts = %d, want 77", got.Broadcasts())
	}
}

func TestValidate(t *testing.T) {
	for _, p := range []int{1, 2, MaxShards} {
		if err := Validate(p); err != nil {
			t.Errorf("Validate(%d) = %v", p, err)
		}
	}
	for _, p := range []int{0, -1, MaxShards + 1} {
		if err := Validate(p); err == nil {
			t.Errorf("Validate(%d) accepted", p)
		}
	}
}
