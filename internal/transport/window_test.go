package transport

import (
	"testing"

	"wrs/internal/core"
	"wrs/internal/fabric"
	"wrs/internal/netsim"
	"wrs/internal/stream"
	"wrs/internal/window"
	"wrs/internal/xrand"
)

// TestWindowedOverShardedTCP runs the windowed application's machines
// over a real sharded TCP cluster: sequence-stamped frames (MsgWindow
// candidates and MsgClock advances) multiplex with shard tags on k
// connections, the server hosts P windowed coordinators behind
// per-shard mutexes, and after a flush the merged query must equal the
// brute-force union-window oracle exactly. This is the first hosted
// coordinator whose state is non-monotone (candidates expire), so it
// exercises that the transport makes no monotonicity assumption about
// the apps it carries — and that the MsgRegular pre-filter never
// touches window traffic.
func TestWindowedOverShardedTCP(t *testing.T) {
	const k, s, width, shards, n = 2, 4, 20, 3, 1200
	cfg := core.Config{K: k, S: s}
	master := xrand.New(77)
	mirror := xrand.New(77)

	protos := make([]Coordinator, shards)
	machines := make([][]netsim.Site[core.Message], shards)
	coords := make([]*core.WindowCoordinator, shards)
	oracleRNG := make([][]*xrand.RNG, shards)
	for p := 0; p < shards; p++ {
		coords[p] = core.NewWindowCoordinator(cfg, width, master.Split())
		mirror.Split()
		protos[p] = coords[p]
		machines[p] = make([]netsim.Site[core.Message], k)
		oracleRNG[p] = make([]*xrand.RNG, k)
		for i := 0; i < k; i++ {
			machines[p][i] = core.NewWindowSite(i, cfg, width, master.Split())
			oracleRNG[p][i] = mirror.Split()
		}
	}

	cluster, err := NewCluster(cfg, protos, machines, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	subs := make([][][]window.Entry, shards)
	for p := range subs {
		subs[p] = make([][]window.Entry, k)
	}
	wrng := xrand.New(5)
	var batches [][]stream.Item = make([][]stream.Item, k)
	for i := 0; i < n; i++ {
		it := stream.Item{ID: uint64(i)*7919 + 3, Weight: 0.2 + 30*wrng.Float64()}
		site := i % k
		p := fabric.ShardOf(it.ID, shards)
		key := oracleRNG[p][site].ExpKey(it.Weight)
		subs[p][site] = append(subs[p][site], window.Entry{Pos: len(subs[p][site]), Key: key, Item: it})
		batches[site] = append(batches[site], it)
	}
	for site, items := range batches {
		// Mixed batch sizes so frames split mid-window repeatedly.
		for off := 0; off < len(items); off += 113 {
			end := off + 113
			if end > len(items) {
				end = len(items)
			}
			if err := cluster.FeedBatch(site, items[off:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}

	var got []window.Entry
	var cov core.WindowCoverage
	for p := 0; p < shards; p++ {
		p := p
		cluster.DoShard(p, func() {
			var c core.WindowCoverage
			got, c = coords[p].SnapshotWindow(got)
			cov.Add(c)
		})
	}
	got = window.TopEntries(got, s)

	var want []window.Entry
	for p := range subs {
		for site := range subs[p] {
			sub := subs[p][site]
			lo := len(sub) - width
			if lo < 0 {
				lo = 0
			}
			want = append(want, sub[lo:]...)
		}
	}
	want = window.TopEntries(want, s)

	if len(got) != len(want) {
		t.Fatalf("sample sizes: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Item != want[i].Item {
			t.Fatalf("sample[%d] diverged over TCP: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if cov.Retained == 0 || cov.Observed == 0 {
		t.Errorf("empty coverage after %d updates: %+v", n, cov)
	}
	if pf := cluster.Server().PreFiltered(); pf != 0 {
		t.Errorf("pre-filter dropped %d windowed messages; it must only touch MsgRegular", pf)
	}
	var st core.WindowCoordStats
	for _, c := range coords {
		st.WindowMsgs += c.Stats.WindowMsgs
		st.ClockMsgs += c.Stats.ClockMsgs
		st.BadStamps += c.Stats.BadStamps
	}
	if st.BadStamps != 0 {
		t.Errorf("%d bad stamps over the wire", st.BadStamps)
	}
	up := cluster.Stats().Upstream
	if up != st.WindowMsgs+st.ClockMsgs {
		t.Errorf("sent %d messages, coordinators handled %d candidates + %d clocks",
			up, st.WindowMsgs, st.ClockMsgs)
	}
	if up >= n {
		t.Errorf("upstream %d for n=%d: windowed filtering lost over TCP", up, n)
	}
}
