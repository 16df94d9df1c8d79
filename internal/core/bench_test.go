package core

import (
	"testing"

	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// BenchmarkTopSample merges two shards' snapshots, each the most a
// coordinator holds (2s candidates), down to the top s = 512 — the
// tcp-decay workload's query. Each iteration merges a fresh copy, since
// TopSample reorders its input.
func BenchmarkTopSample(b *testing.B) {
	const s, shards = 512, 2
	rng := xrand.New(1)
	entries := make([]SampleEntry, shards*2*s)
	for i := range entries {
		w := 1 + 99*rng.Float64()
		entries[i] = SampleEntry{Key: rng.ExpKey(w), Item: stream.Item{ID: uint64(i), Weight: w}}
	}
	buf := make([]SampleEntry, len(entries))
	b.ReportAllocs()
	for b.Loop() {
		copy(buf, entries)
		TopSample(buf, s)
	}
}
