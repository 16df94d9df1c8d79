package transport

import (
	"io"
	"net"
	"testing"
	"time"

	"wrs/internal/core"
	"wrs/internal/netsim"
	"wrs/internal/stream"
	"wrs/internal/wire"
	"wrs/internal/xrand"
)

// startShardedServer spins up a P-shard coordinator server on a
// loopback listener, one fresh sampler coordinator per shard.
func startShardedServer(t testing.TB, cfg core.Config, shards int, master *xrand.RNG) (*CoordinatorServer, string) {
	t.Helper()
	protos := make([]Coordinator, shards)
	for p := range protos {
		protos[p] = core.NewCoordinator(cfg, master.Split())
	}
	srv, err := NewShardedCoordinatorServer(cfg, protos)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := srv.Serve(ln); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	return srv, ln.Addr().String()
}

// TestShardedServerRoutesByTag pins the server-side dispatch: frames
// tagged for shard p land on shard p's coordinator only.
func TestShardedServerRoutesByTag(t *testing.T) {
	cfg := core.Config{K: 1, S: 4}
	const shards = 3
	srv, addr := startShardedServer(t, cfg, shards, xrand.New(41))
	defer srv.Close()

	rc := dialRaw(t, addr)
	defer rc.close()
	for p := 0; p < shards; p++ {
		payload := wire.AppendShardHeader(nil, p)
		for i := 0; i < p+1; i++ { // shard p gets p+1 messages
			payload = wire.AppendMessage(payload, core.Message{
				Kind: core.MsgRegular,
				Item: stream.Item{ID: uint64(100*p + i), Weight: 1},
				Key:  float64(1 + i),
			})
		}
		if err := rc.send(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.sync(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Processed(); got != 1+2+3 {
		t.Errorf("Processed = %d, want 6", got)
	}
	for p := 0; p < shards; p++ {
		var entries []core.SampleEntry
		srv.DoShard(p, func() { entries = srv.Coord(p).Snapshot(nil) })
		if len(entries) != p+1 {
			t.Errorf("shard %d holds %d entries, want %d", p, len(entries), p+1)
		}
		for _, e := range entries {
			if e.Item.ID/100 != uint64(p) {
				t.Errorf("shard %d holds item %d from another shard", p, e.Item.ID)
			}
		}
	}
}

// TestShardedServerRejectsBadShardIndex is the wire-robustness
// acceptance: a frame naming a shard the server does not host is a
// protocol violation — the connection is dropped with no panic, the
// malformed frame's messages never reach any coordinator, and the
// server keeps serving healthy connections.
func TestShardedServerRejectsBadShardIndex(t *testing.T) {
	cfg := core.Config{K: 1, S: 4}
	const shards = 2
	srv, addr := startShardedServer(t, cfg, shards, xrand.New(43))
	defer srv.Close()

	bad := dialRaw(t, addr)
	defer bad.close()
	payload := wire.AppendShardHeader(nil, 7) // server hosts shards 0..1
	payload = wire.AppendMessage(payload, core.Message{
		Kind: core.MsgRegular, Item: stream.Item{ID: 1, Weight: 1}, Key: 5,
	})
	if err := bad.send(payload); err != nil {
		t.Fatal(err)
	}
	if err := bad.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection; the read eventually fails.
	bad.conn.SetReadDeadline(deadline())
	if _, err := io.ReadAll(bad.conn); err != nil && err != io.EOF {
		t.Fatalf("expected clean close, read failed with %v", err)
	}
	if got := srv.Processed(); got != 0 {
		t.Errorf("malformed frame processed %d messages", got)
	}

	// A healthy connection still works end to end.
	good := dialRaw(t, addr)
	defer good.close()
	ok := wire.AppendShardHeader(nil, 1)
	ok = wire.AppendMessage(ok, core.Message{
		Kind: core.MsgRegular, Item: stream.Item{ID: 2, Weight: 1}, Key: 5,
	})
	if err := good.send(ok); err != nil {
		t.Fatal(err)
	}
	if err := good.sync(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Processed(); got != 1 {
		t.Errorf("Processed = %d after healthy frame, want 1", got)
	}
}

// TestShardedServerRejectsUntaggedFrame pins that a sharded server
// refuses plain (untagged) batch frames: a client that does not know
// the shard layout would otherwise have its whole stream silently
// ingested into shard 0, sampling the same ID domain in two shards and
// corrupting the exact merge.
func TestShardedServerRejectsUntaggedFrame(t *testing.T) {
	cfg := core.Config{K: 1, S: 4}
	srv, addr := startShardedServer(t, cfg, 2, xrand.New(59))
	defer srv.Close()

	rc := dialRaw(t, addr)
	defer rc.close()
	payload := wire.AppendMessage(nil, core.Message{
		Kind: core.MsgRegular, Item: stream.Item{ID: 1, Weight: 1}, Key: 5,
	})
	if err := rc.send(payload); err != nil {
		t.Fatal(err)
	}
	if err := rc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	rc.conn.SetReadDeadline(deadline())
	if _, err := io.ReadAll(rc.conn); err != nil && err != io.EOF {
		t.Fatalf("expected clean close, read failed with %v", err)
	}
	if got := srv.Processed(); got != 0 {
		t.Errorf("untagged frame processed %d messages on a sharded server", got)
	}
}

// TestShardedServerRejectsTruncatedShardFrame covers the other
// malformed shapes: a shard header with a misaligned message section
// drops the connection without a panic.
func TestShardedServerRejectsTruncatedShardFrame(t *testing.T) {
	cfg := core.Config{K: 1, S: 4}
	srv, addr := startShardedServer(t, cfg, 2, xrand.New(47))
	defer srv.Close()

	rc := dialRaw(t, addr)
	defer rc.close()
	payload := wire.AppendShardHeader(nil, 0)
	payload = append(payload, 0xAB, 0xCD) // not a multiple of MessageSize
	if err := rc.send(payload); err != nil {
		t.Fatal(err)
	}
	if err := rc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	rc.conn.SetReadDeadline(deadline())
	if _, err := io.ReadAll(rc.conn); err != nil && err != io.EOF {
		t.Fatalf("expected clean close, read failed with %v", err)
	}
	if got := srv.Processed(); got != 0 {
		t.Errorf("malformed frame processed %d messages", got)
	}
}

// TestShardedClusterEndToEnd drives a 3-shard cluster through the
// Cluster surface (the runtime contract) and checks the merged query
// against per-shard routing.
func TestShardedClusterEndToEnd(t *testing.T) {
	cfg := core.Config{K: 2, S: 6}
	const shards = 3
	master := xrand.New(53)
	protos := make([]Coordinator, shards)
	sitesByShard := make([][]netsim.Site[core.Message], shards)
	for p := 0; p < shards; p++ {
		protos[p] = core.NewCoordinator(cfg, master.Split())
		sitesByShard[p] = make([]netsim.Site[core.Message], cfg.K)
		for i := 0; i < cfg.K; i++ {
			sitesByShard[p][i] = core.NewSite(i, cfg, master.Split())
		}
	}
	cluster, err := NewCluster(cfg, protos, sitesByShard, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.Shards() != shards {
		t.Fatalf("Shards() = %d", cluster.Shards())
	}
	for i := 0; i < 3; i++ {
		if err := cluster.Feed(i%cfg.K, stream.Item{ID: uint64(1e6 + i), Weight: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	var batch []stream.Item
	for i := 0; i < 3000; i++ {
		batch = append(batch, stream.Item{ID: uint64(i), Weight: 1})
		if len(batch) == 200 {
			if err := cluster.FeedBatch(i%cfg.K, batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := cluster.Flush(); err != nil {
		t.Fatal(err)
	}
	q := cluster.Server().Query()
	if len(q) != cfg.S {
		t.Fatalf("merged query size %d, want %d", len(q), cfg.S)
	}
	found := map[uint64]bool{}
	for _, e := range q {
		found[e.Item.ID] = true
	}
	for i := 0; i < 3; i++ {
		if !found[uint64(1e6+i)] {
			t.Errorf("giant %d missing from merged query", i)
		}
	}
	st := cluster.Stats()
	if st.Upstream == 0 || st.Upstream > 3003/2 {
		t.Errorf("upstream %d: want nonzero and sublinear", st.Upstream)
	}
}

// TestShardedClientRejectsBadBroadcast is the site-side row set of the
// shared resolver's contract (wire.TestResolveShard), next to the
// server's TestShardedServerRejects* and the relay's
// TestProcessFramesMalformed: a sharded client refuses a broadcast it
// cannot place — an untagged frame, or a shard it does not drive — by
// ending its read loop, and never applies it to shard 0. The valid row
// is the control that the client does apply what it can place.
func TestShardedClientRejectsBadBroadcast(t *testing.T) {
	cfg := core.Config{K: 1, S: 4}
	bcast := core.Message{Kind: core.MsgEpochUpdate, Threshold: 7}
	for _, tc := range []struct {
		name    string
		payload []byte
		applied int // shard that must apply the broadcast; -1: rejected
	}{
		{"tagged for shard 1", wire.AppendMessage(wire.AppendShardHeader(nil, 1), bcast), 1},
		{"untagged", wire.AppendMessage(nil, bcast), -1},
		{"tagged beyond the client's shards", wire.AppendMessage(wire.AppendShardHeader(nil, 2), bcast), -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer srv.Close()
			master := xrand.New(61)
			sites := []*core.Site{core.NewSite(0, cfg, master.Split()), core.NewSite(0, cfg, master.Split())}
			c, err := NewShardedSiteClient(cli, []netsim.Site[core.Message]{sites[0], sites[1]}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := wire.WriteFrame(srv, tc.payload); err != nil {
				t.Fatal(err)
			}
			if tc.applied < 0 {
				select {
				case <-c.readerDone:
				case <-time.After(2 * time.Second):
					t.Fatal("read loop kept running after an unplaceable broadcast")
				}
				if c.readerErr == nil {
					t.Error("read loop ended without an error")
				}
			}
			for deadline := time.Now().Add(2 * time.Second); tc.applied >= 0 && sites[tc.applied].Threshold() == 0; {
				if time.Now().After(deadline) {
					t.Fatalf("shard %d never applied its broadcast", tc.applied)
				}
				c.drainPending()
				time.Sleep(time.Millisecond)
			}
			c.drainPending()
			for p, s := range sites {
				if got, want := s.Threshold(), 0.0; p == tc.applied {
					if got != bcast.Threshold {
						t.Errorf("shard %d threshold %g, want %g", p, got, bcast.Threshold)
					}
				} else if got != want {
					t.Errorf("shard %d applied a broadcast not meant for it: threshold %g", p, got)
				}
			}
		})
	}
}
