package relay

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"wrs/internal/core"
	"wrs/internal/netsim"
	"wrs/internal/stream"
	"wrs/internal/transport"
	"wrs/internal/wire"
	"wrs/internal/xrand"
)

// buildSampler assembles a plain-sampler tree cluster: one recorder
// shared by every key-generating party, so the brute-force top-s over
// all recorded keys is the exactness oracle.
func buildSampler(t *testing.T, cfg core.Config, shards, fanout, depth int, seed uint64) (*TreeCluster, *core.Recorder) {
	t.Helper()
	master := xrand.New(seed)
	rec := core.NewRecorder()
	protos := make([]transport.Coordinator, shards)
	machines := make([][]netsim.Site[core.Message], shards)
	for p := range protos {
		coord := core.NewCoordinator(cfg, master.Split())
		coord.SetRecorder(rec)
		protos[p] = coord
		machines[p] = make([]netsim.Site[core.Message], cfg.K)
		for i := 0; i < cfg.K; i++ {
			site := core.NewSite(i, cfg, master.Split())
			site.SetRecorder(rec)
			machines[p][i] = site
		}
	}
	cl, err := NewTreeCluster(cfg, protos, machines, "", fanout, depth, Options{Merge: true})
	if err != nil {
		t.Fatal(err)
	}
	return cl, rec
}

func feedPareto(t *testing.T, cl *TreeCluster, k, perSite int) {
	t.Helper()
	var wg sync.WaitGroup
	for site := 0; site < k; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + site))
			batch := make([]stream.Item, 0, 64)
			for j := 0; j < perSite; j++ {
				batch = append(batch, stream.Item{
					ID:     uint64(site*perSite + j),
					Weight: rng.Pareto(1.3),
				})
				if len(batch) == cap(batch) || j == perSite-1 {
					if err := cl.FeedBatch(site, batch); err != nil {
						t.Errorf("site %d: %v", site, err)
						return
					}
					batch = batch[:0]
				}
			}
		}(site)
	}
	wg.Wait()
}

// TestTreeTCPExactness is the end-to-end acceptance for the relay
// fabric: with both filters on and real connections at every hop, the
// sample the root serves is exactly the brute-force top-s of all keys,
// the root terminates fanout connections instead of k, and relay
// filtering strictly shrinks the root edge.
func TestTreeTCPExactness(t *testing.T) {
	for _, tc := range []struct {
		shards, fanout, depth int
	}{
		{1, 2, 2},
		{1, 4, 1},
		{2, 2, 2},
	} {
		cfg := core.Config{K: 8, S: 8}
		cl, rec := buildSampler(t, cfg, tc.shards, tc.fanout, tc.depth, uint64(11+tc.shards))
		const perSite = 1500
		feedPareto(t, cl, cfg.K, perSite)
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}

		if got := cl.RootConns(); got != tc.fanout {
			t.Errorf("%+v: root conns %d, want %d", tc, got, tc.fanout)
		}
		if rec.Len() != cfg.K*perSite*1 { // every update keyed exactly once
			t.Errorf("%+v: recorded %d keys, want %d", tc, rec.Len(), cfg.K*perSite)
		}
		q := cl.Server().Query()
		if len(q) != cfg.S {
			t.Fatalf("%+v: query size %d, want %d", tc, len(q), cfg.S)
		}
		want := rec.TopIDs(cfg.S)
		for _, e := range q {
			if !want[e.Item.ID] {
				t.Errorf("%+v: sample item %d is not a top-%d key", tc, e.Item.ID, cfg.S)
			}
		}

		stats := cl.Stats()
		root := cl.RootUpstream()
		if root > stats.Upstream {
			t.Errorf("%+v: root edge %d exceeds site edge %d", tc, root, stats.Upstream)
		}
		var filtered int64
		for _, ts := range cl.TierStats() {
			filtered += ts.Filtered
		}
		if filtered == 0 {
			t.Errorf("%+v: relays filtered nothing over %d updates", tc, cfg.K*perSite)
		}
		if stats.Downstream == 0 || stats.Upstream == 0 {
			t.Errorf("%+v: degenerate stats %+v", tc, stats)
		}
		t.Logf("%+v: site edge %d, root edge %d (%d filtered), downstream %d",
			tc, stats.Upstream, root, filtered, stats.Downstream)
		if err := cl.Close(); err != nil {
			t.Errorf("%+v: close: %v", tc, err)
		}
	}
}

// TestTreeTCPDepthZeroIsFlat pins the degenerate topology: depth 0
// builds no relays and behaves exactly like the flat cluster.
func TestTreeTCPDepthZeroIsFlat(t *testing.T) {
	cfg := core.Config{K: 3, S: 4}
	cl, rec := buildSampler(t, cfg, 1, 0, 0, 5)
	defer cl.Close()
	feedPareto(t, cl, cfg.K, 400)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := cl.RootConns(); got != cfg.K {
		t.Errorf("root conns %d, want k=%d", got, cfg.K)
	}
	if got := len(cl.TierStats()); got != 0 {
		t.Errorf("flat topology reports %d tiers", got)
	}
	if cl.RootUpstream() != cl.Stats().Upstream {
		t.Errorf("flat root edge %d != site edge %d", cl.RootUpstream(), cl.Stats().Upstream)
	}
	want := rec.TopIDs(cfg.S)
	for _, e := range cl.Server().Query() {
		if !want[e.Item.ID] {
			t.Errorf("sample item %d is not a top key", e.Item.ID)
		}
	}
}

// startRelayedServer builds server <- relay and returns both plus the
// relay's child-facing address.
func startRelayedServer(t *testing.T, cfg core.Config, master *xrand.RNG) (*transport.CoordinatorServer, *Relay) {
	t.Helper()
	srv, err := transport.NewCoordinatorServer(cfg, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	r, err := New(cfg, 1, ln.Addr().String(), "", Options{Merge: true})
	if err != nil {
		t.Fatal(err)
	}
	return srv, r
}

// TestLateJoinerThroughRelay pins the control-plane snapshot one hop
// down: a site that dials a RELAY mid-stream must still learn the
// threshold and saturations broadcast before it joined — now served
// from the relay's own monotone view, since the coordinator never sees
// the new connection.
func TestLateJoinerThroughRelay(t *testing.T) {
	cfg := core.Config{K: 2, S: 4}
	master := xrand.New(17)
	srv, r := startRelayedServer(t, cfg, master)
	defer srv.Close()
	defer r.Close()

	first, err := transport.DialSite(r.Addr(), 0, cfg, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	rng := xrand.New(3)
	for i := 0; i < 2000; i++ {
		if err := first.Observe(stream.Item{ID: uint64(i), Weight: rng.Pareto(1.3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}
	var th float64
	var sat int
	srv.DoShard(0, func() {
		th = srv.Coord(0).CurrentThreshold()
		sat = len(srv.Coord(0).SaturatedLevels())
	})
	if th == 0 || sat == 0 {
		t.Fatalf("warmup did not advance the control plane: threshold=%g, %d saturated levels", th, sat)
	}
	// The relay's view must match: Flush guarantees every broadcast the
	// warmup triggered was fanned down before the pong came back.
	if got := r.Threshold(0); got != th {
		t.Fatalf("relay threshold %g, coordinator %g", got, th)
	}

	late, err := transport.DialSite(r.Addr(), 1, cfg, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if err := late.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := late.Site().Threshold(); got != th {
		t.Errorf("late joiner threshold %g, want snapshot %g", got, th)
	}
	if got := late.Site().Applied; got < int64(sat)+1 {
		t.Errorf("late joiner applied %d broadcasts, want at least %d", got, sat+1)
	}
}

// TestRelayMalformedFrameDropsChildOnly is the robustness acceptance: a
// child speaking garbage loses its connection — no panic — while the
// relay keeps serving its healthy children.
func TestRelayMalformedFrameDropsChildOnly(t *testing.T) {
	cfg := core.Config{K: 2, S: 4}
	master := xrand.New(23)
	srv, r := startRelayedServer(t, cfg, master)
	defer srv.Close()
	defer r.Close()

	healthy, err := transport.DialSite(r.Addr(), 0, cfg, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	bad, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bw := bufio.NewWriter(bad)
	if err := wire.WriteFrame(bw, []byte{1, 2, 3}); err != nil { // misaligned message section
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := bad.Read(buf); err != nil {
			break // dropped: EOF or reset, never a hang past the deadline
		}
	}

	// The healthy child still works end to end.
	for i := 0; i < 100; i++ {
		if err := healthy.Observe(stream.Item{ID: uint64(i), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := healthy.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Processed(); got == 0 {
		t.Error("healthy child's messages never reached the coordinator")
	}
}

// TestRelayParentLossCascades pins the failure semantics: when a
// relay's upstream link dies, the relay tears itself down and its
// children observe connection errors — the subtree fails fast instead
// of buffering into the void.
func TestRelayParentLossCascades(t *testing.T) {
	cfg := core.Config{K: 1, S: 4}
	master := xrand.New(29)
	srv, r := startRelayedServer(t, cfg, master)
	defer r.Close()

	site, err := transport.DialSite(r.Addr(), 0, cfg, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	if err := site.Observe(stream.Item{ID: 1, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := site.Flush(); err != nil {
		t.Fatal(err)
	}

	srv.Close() // kill the parent

	deadline := time.Now().Add(5 * time.Second)
	for {
		err := site.Observe(stream.Item{ID: 2, Weight: 1})
		if err == nil {
			err = site.Flush()
		}
		if err != nil {
			return // cascade reached the site
		}
		if time.Now().After(deadline) {
			t.Fatal("site never observed the relay teardown after parent loss")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRelayParentLossPartialTree pins the partial-failure semantics the
// cascade test leaves open: when ONE of two sibling relays loses its
// upstream link (SeverParent), only that relay's subtree dies. The
// sibling keeps streaming through the same coordinator, and traffic it
// sends after the sever still lands in the final sample — the fabric
// degrades to the surviving subtree instead of failing whole.
func TestRelayParentLossPartialTree(t *testing.T) {
	cfg := core.Config{K: 2, S: 4}
	master := xrand.New(31)
	srv, err := transport.NewCoordinatorServer(cfg, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	relayA, err := New(cfg, 1, ln.Addr().String(), "", Options{Merge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer relayA.Close()
	relayB, err := New(cfg, 1, ln.Addr().String(), "", Options{Merge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer relayB.Close()

	siteA, err := transport.DialSite(relayA.Addr(), 0, cfg, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	defer siteA.Close()
	siteB, err := transport.DialSite(relayB.Addr(), 1, cfg, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	defer siteB.Close()

	rng := xrand.New(7)
	for i := 0; i < 1000; i++ {
		if err := siteA.Observe(stream.Item{ID: uint64(i), Weight: rng.Pareto(1.3)}); err != nil {
			t.Fatal(err)
		}
		if err := siteB.Observe(stream.Item{ID: uint64(10000 + i), Weight: rng.Pareto(1.3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := siteA.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := siteB.Flush(); err != nil {
		t.Fatal(err)
	}
	procBefore := srv.Processed()

	if err := relayA.SeverParent(); err != nil {
		t.Fatal(err)
	}
	// The severed relay's subtree must fail fast...
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := siteA.Observe(stream.Item{ID: 5000, Weight: 1})
		if err == nil {
			err = siteA.Flush()
		}
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("severed subtree's site never observed the teardown")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// ...while the sibling subtree keeps working end to end: giants
	// planted after the sever must own the final sample.
	for i := 0; i < cfg.S; i++ {
		if err := siteB.Observe(stream.Item{ID: 1<<40 + uint64(i), Weight: 1e15}); err != nil {
			t.Fatalf("surviving subtree broken after sibling sever: %v", err)
		}
	}
	if err := siteB.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Processed(); got <= procBefore {
		t.Errorf("coordinator processed nothing after the sever (%d -> %d)", procBefore, got)
	}
	if got := relayB.Children(); got != 1 {
		t.Errorf("surviving relay has %d children, want 1", got)
	}
	q := srv.Query()
	if len(q) != cfg.S {
		t.Fatalf("query size %d, want %d", len(q), cfg.S)
	}
	for i, e := range q {
		if i > 0 && q[i].Key > q[i-1].Key {
			t.Fatal("sample order corrupted after partial-tree loss")
		}
		if e.Item.ID < 1<<40 {
			t.Errorf("sample item %d is not a survivor giant", e.Item.ID)
		}
	}
}

// TestRelayPipelinedPings drives sites with a staleness window of 8
// through relay tiers, so hundreds of pipelined pings — a child's
// window ping and its Flush ping in flight at once — share each relay's
// pong FIFO, and each forwarded ping flushes the relay's parent link.
// After Flush every edge is drained: each tier handled exactly what the
// tier below it (the sites, at the leaves) sent, the root processed
// exactly what the top tier forwarded, no relay still owes a pong, and
// the sample is the recorder's top-s.
func TestRelayPipelinedPings(t *testing.T) {
	for _, tc := range []struct {
		shards, fanout, depth int
	}{
		{1, 4, 1},
		{2, 2, 2},
	} {
		cfg := core.Config{K: 8, S: 8}
		cl, rec := buildSampler(t, cfg, tc.shards, tc.fanout, tc.depth, uint64(23+tc.depth))
		for i := 0; i < cfg.K; i++ {
			cl.Client(i).SetStalenessWindow(8)
		}
		const perSite = 3000
		feedPareto(t, cl, cfg.K, perSite)
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}

		var sent, pings int64
		for i := 0; i < cfg.K; i++ {
			sent += cl.Client(i).Sent()
			pings += cl.Client(i).FlowPings()
		}
		if pings < 100 {
			t.Fatalf("%+v: only %d window pings crossed the relays", tc, pings)
		}
		below := sent // what the tier under the current one sent up
		for tier := tc.depth - 1; tier >= 0; tier-- {
			var handled, forwarded int64
			for _, r := range cl.tiers.nodes[tier] {
				handled += r.Forwarded() + r.Filtered()
				forwarded += r.Forwarded()
				r.upMu.Lock()
				owed := len(r.pingQ)
				r.upMu.Unlock()
				if owed != 0 {
					t.Errorf("%+v: %v still owes %d pongs after Flush", tc, r, owed)
				}
			}
			if handled != below {
				t.Errorf("%+v: tier %d handled %d of the %d messages sent to it", tc, tier, handled, below)
			}
			below = forwarded
		}
		if got := cl.Server().Processed(); got != below {
			t.Errorf("%+v: root processed %d of the %d messages the top tier forwarded", tc, got, below)
		}
		want := rec.TopIDs(cfg.S)
		q := cl.Server().Query()
		if len(q) != cfg.S {
			t.Fatalf("%+v: query size %d, want %d", tc, len(q), cfg.S)
		}
		for _, e := range q {
			if !want[e.Item.ID] {
				t.Errorf("%+v: sample item %d is not a top-%d key", tc, e.Item.ID, cfg.S)
			}
		}
		t.Logf("%+v: %d site messages, %d window pings, root edge %d", tc, sent, pings, below)
		if err := cl.Close(); err != nil {
			t.Errorf("%+v: close: %v", tc, err)
		}
	}
}
