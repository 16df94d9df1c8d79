package transport

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"wrs/internal/core"
	"wrs/internal/stream"
	"wrs/internal/wire"
	"wrs/internal/xrand"
)

// fakeCoordinator reads every frame off its side of a pipe into a
// channel so a test can assert exactly what a SiteClient put on the
// wire, and replies (pong, broadcasts) only when told to. net.Pipe is
// synchronous, which makes the observed frame order deterministic.
type fakeCoordinator struct {
	conn   net.Conn
	frames chan []byte
}

func newFakeCoordinator(conn net.Conn) *fakeCoordinator {
	f := &fakeCoordinator{conn: conn, frames: make(chan []byte, 1024)}
	go func() {
		defer close(f.frames)
		br := bufio.NewReader(conn)
		var buf []byte
		for {
			payload, err := wire.ReadFrame(br, buf)
			if err != nil {
				return
			}
			buf = payload
			f.frames <- append([]byte(nil), payload...)
		}
	}()
	return f
}

// nextFrames reads frames until it has seen n protocol messages or a
// ping, returning (messagesSeen, sawPing).
func (f *fakeCoordinator) nextFrames(t *testing.T, n int) (int, bool) {
	t.Helper()
	msgs := 0
	for msgs < n {
		select {
		case p, ok := <-f.frames:
			if !ok {
				t.Fatal("fake coordinator connection closed early")
			}
			if wire.IsPing(p) {
				return msgs, true
			}
			if len(p)%wire.MessageSize != 0 {
				t.Fatalf("unexpected frame payload length %d", len(p))
			}
			msgs += len(p) / wire.MessageSize
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out after %d messages waiting for %d", msgs, n)
		}
	}
	return msgs, false
}

func (f *fakeCoordinator) pong(t *testing.T) {
	t.Helper()
	if err := wire.WriteFrame(f.conn, wire.PongPayload); err != nil {
		t.Fatal(err)
	}
}

func (f *fakeCoordinator) broadcast(t *testing.T, m core.Message) {
	t.Helper()
	if err := wire.WriteMessage(f.conn, m); err != nil {
		t.Fatal(err)
	}
}

// TestStalenessWindowForcesSync proves the bounded-staleness invariant
// directly: with window W and a coordinator that never responds, the
// client sends exactly W messages, then a ping, then nothing until the
// pong arrives — it can never run more than W messages ahead of the
// control plane.
func TestStalenessWindowForcesSync(t *testing.T) {
	const W = 8
	cfg := core.Config{K: 1, S: 1}
	cli, srv := net.Pipe()
	fake := newFakeCoordinator(srv)
	c, err := NewSiteClient(cli, 0, cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetStalenessWindow(W)

	// Weight-1 items always send: level 0 never saturates because the
	// fake coordinator never broadcasts.
	const total = 2*W + 5
	feedErr := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := c.Observe(stream.Item{ID: uint64(i), Weight: 1}); err != nil {
				feedErr <- err
				return
			}
		}
		feedErr <- nil
	}()

	msgs, ping := fake.nextFrames(t, W+1)
	if !ping || msgs != W {
		t.Fatalf("first sync: saw %d messages before ping=%v, want exactly %d then ping", msgs, ping, W)
	}
	// While the pong is withheld the client must stay silent.
	select {
	case p := <-fake.frames:
		t.Fatalf("client sent a %d-byte frame past the staleness window", len(p))
	case <-time.After(100 * time.Millisecond):
	}
	fake.pong(t)

	msgs, ping = fake.nextFrames(t, W+1)
	if !ping || msgs != W {
		t.Fatalf("second sync: saw %d messages before ping=%v, want exactly %d then ping", msgs, ping, W)
	}
	fake.pong(t)

	// The tail (5 < W messages) flows without another round-trip.
	msgs, ping = fake.nextFrames(t, total-2*W)
	if ping || msgs != total-2*W {
		t.Fatalf("tail: got %d messages, ping=%v", msgs, ping)
	}
	if err := <-feedErr; err != nil {
		t.Fatal(err)
	}
	if got := c.FlowPings(); got != 2 {
		t.Errorf("flow pings = %d, want 2", got)
	}
	if got := c.Sent(); got != total {
		t.Errorf("Sent() = %d, want %d", got, total)
	}
}

// TestBroadcastDripDoesNotExtendWindow proves the hard half of the
// invariant: a steady drip of (possibly arbitrarily old) broadcasts
// must not postpone the forced round-trip. Socket buffering lets a
// site pipeline thousands of messages ahead of the coordinator while
// still receiving stale broadcasts — if applying one reset the window,
// flow control would never engage and the O(n) regression would
// reappear at full throughput (observed at GOMAXPROCS=2 before this
// was pinned).
func TestBroadcastDripDoesNotExtendWindow(t *testing.T) {
	const W = 8
	cfg := core.Config{K: 1, S: 1}
	cli, srv := net.Pipe()
	fake := newFakeCoordinator(srv)
	c, err := NewSiteClient(cli, 0, cfg, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetStalenessWindow(W)

	applied := func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.site.Applied
	}

	feedErr := make(chan error, 1)
	go func() {
		for i := 0; i < 2*W+1; i++ {
			if err := c.Observe(stream.Item{ID: uint64(i), Weight: 1}); err != nil {
				feedErr <- err
				return
			}
		}
		feedErr <- nil
	}()

	// Drip a broadcast after every message (a saturated level the
	// weight-1 items don't occupy, so the site keeps sending) and
	// confirm the client still pings after exactly W messages.
	for round := 0; round < 2; round++ {
		got := 0
		for {
			msgs, ping := fake.nextFrames(t, 1)
			if ping {
				break
			}
			got += msgs
			fake.broadcast(t, core.Message{Kind: core.MsgLevelSaturated, Level: 7})
		}
		if got != W {
			t.Fatalf("round %d: %d messages before forced sync, want exactly %d", round, got, W)
		}
		fake.pong(t)
	}
	if msgs, ping := fake.nextFrames(t, 1); ping || msgs != 1 {
		t.Fatalf("tail: got %d messages, ping=%v", msgs, ping)
	}
	if err := <-feedErr; err != nil {
		t.Fatal(err)
	}
	if got := c.FlowPings(); got != 2 {
		t.Errorf("flow pings = %d, want 2", got)
	}
	// The dripped broadcasts were in fact applied along the way — they
	// just must not masquerade as control-plane freshness.
	if applied() == 0 {
		t.Error("no broadcast was applied during the feed")
	}
}

// TestStalePongDrainedBeforeSync pins the stale-pong hazard: if a sync
// errors after writing its ping but before consuming the pong, the pong
// can arrive later and sit in the buffer. A subsequent sync must not
// return on that stale pong — it would report an earlier processing
// horizon than its own ping proves, silently voiding the staleness
// bound. syncCoordinator therefore drains buffered pongs before writing
// a new ping.
func TestStalePongDrainedBeforeSync(t *testing.T) {
	cfg := core.Config{K: 1, S: 1}
	cli, srv := net.Pipe()
	fake := newFakeCoordinator(srv)
	c, err := NewSiteClient(cli, 0, cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Simulate the aftermath of an errored sync: a pong arrives with no
	// one waiting and is buffered by the read loop.
	fake.pong(t)
	for start := time.Now(); len(c.pong) == 0; {
		if time.Since(start) > 2*time.Second {
			t.Fatal("stale pong never reached the client buffer")
		}
		time.Sleep(time.Millisecond)
	}

	flushDone := make(chan error, 1)
	go func() { flushDone <- c.Flush() }()

	// The coordinator sees the new ping and — like a real server whose
	// FIFO outbox already held a broadcast — answers with the broadcast
	// first, then the pong. A sync that returned on the stale pong would
	// miss the broadcast.
	if msgs, ping := fake.nextFrames(t, 1); !ping || msgs != 0 {
		t.Fatalf("expected a ping, saw %d messages (ping=%v)", msgs, ping)
	}
	fake.broadcast(t, core.Message{Kind: core.MsgEpochUpdate, Threshold: 5})
	fake.pong(t)
	if err := <-flushDone; err != nil {
		t.Fatal(err)
	}
	if got := c.Site().Threshold(); got != 5 {
		t.Errorf("sync returned at a stale horizon: threshold %g, want 5", got)
	}
}

// TestTCPSublinearUnderSingleCPU pins the regression this package
// existed to fix: under GOMAXPROCS=1 the hot Observe loops starve the
// reader/writer goroutines, so without flow control no broadcast is
// applied before the feed ends and every update costs a message
// (O(n), vs the paper's O(k log W / log k + s log sW)). The staleness
// window forces periodic round-trips whose blocking hands the CPU to
// the control plane, keeping the message count sublinear on any
// scheduler.
func TestTCPSublinearUnderSingleCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	cfg := core.Config{K: 4, S: 8}
	master := xrand.New(42)
	srv, addr := startServer(t, cfg, master.Split())
	defer srv.Close()

	clients := make([]*SiteClient, cfg.K)
	for i := range clients {
		c, err := DialSite(addr, i, cfg, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}

	const perSite = 2500
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(site int, c *SiteClient) {
			defer wg.Done()
			rng := xrand.New(uint64(500 + site))
			for j := 0; j < perSite; j++ {
				it := stream.Item{ID: uint64(site*perSite + j), Weight: rng.Pareto(1.3)}
				if err := c.Observe(it); err != nil {
					t.Errorf("site %d: %v", site, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, c := range clients {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	n := int64(cfg.K * perSite)
	var sent, pings int64
	for _, c := range clients {
		sent += c.Sent()
		pings += c.FlowPings()
	}
	if got := srv.Processed(); got != sent {
		t.Fatalf("processed %d of %d sent messages", got, sent)
	}
	if sent > n/2 {
		t.Errorf("upstream messages %d not sublinear in %d updates under GOMAXPROCS=1", sent, n)
	}
	// The round-trip overhead is provably bounded: each flow ping needs
	// a full window W of sends since the last reset.
	w := int64(cfg.StalenessWindow())
	if pings > sent/w+int64(cfg.K) {
		t.Errorf("%d flow pings for %d sends exceeds the sent/W=%d bound", pings, sent, sent/w)
	}
	t.Logf("GOMAXPROCS=1: %d messages for %d updates, %d flow pings (W=%d)", sent, n, pings, w)
	for _, c := range clients {
		c.Close()
	}
}

// TestLateJoinerReceivesSnapshot pins the registration race: DialSite
// returns at TCP-handshake time, which can be long before the server's
// accept loop registers the connection — every broadcast issued in
// between used to be lost to that site forever (observed in the wild
// as one site sending all n of its updates with threshold 0). The
// coordinator must replay its control-plane state to a newly
// registered connection.
func TestLateJoinerReceivesSnapshot(t *testing.T) {
	cfg := core.Config{K: 2, S: 4}
	master := xrand.New(17)
	srv, addr := startServer(t, cfg, master.Split())
	defer srv.Close()

	// Drive the coordinator well past epoch 0 with the first site.
	first, err := DialSite(addr, 0, cfg, master.Split())
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

	// A second site joins now. Its very first sync must deliver the
	// snapshot: threshold and saturations it never saw broadcast.
	late, err := DialSite(addr, 1, cfg, master.Split())
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

// TestTCPObserveBatchExactness runs the end-to-end exactness check
// through the batched hot path: multi-message frames, one flush per
// batch, identical sample and accounting semantics.
func TestTCPObserveBatchExactness(t *testing.T) {
	cfg := core.Config{K: 4, S: 8}
	rec := core.NewRecorder()
	master := xrand.New(7)
	srv, addr := startServer(t, cfg, master.Split())
	defer srv.Close()
	srv.DoShard(0, func() { srv.Coord(0).SetRecorder(rec) })

	clients := make([]*SiteClient, cfg.K)
	for i := range clients {
		c, err := DialSite(addr, i, cfg, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		c.Site().SetRecorder(rec)
		clients[i] = c
	}

	const perSite = 2500
	const chunk = 97 // deliberately not a divisor of perSite
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(site int, c *SiteClient) {
			defer wg.Done()
			rng := xrand.New(uint64(900 + site))
			items := make([]stream.Item, 0, chunk)
			for j := 0; j < perSite; j++ {
				items = append(items, stream.Item{
					ID:     uint64(site*perSite + j),
					Weight: rng.Pareto(1.3),
				})
				if len(items) == chunk || j == perSite-1 {
					if err := c.ObserveBatch(items); err != nil {
						t.Errorf("site %d: %v", site, err)
						return
					}
					items = items[:0]
				}
			}
		}(i, c)
	}
	wg.Wait()

	var total int64
	for _, c := range clients {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		total += c.Sent()
	}
	if got := srv.Processed(); got != total {
		t.Fatalf("server processed %d of %d sent messages", got, total)
	}
	if rec.Len() != cfg.K*perSite {
		t.Fatalf("recorded %d keys, want %d", rec.Len(), cfg.K*perSite)
	}
	q := srv.Query()
	if len(q) != cfg.S {
		t.Fatalf("query size %d, want %d", len(q), cfg.S)
	}
	want := rec.TopIDs(cfg.S)
	for _, e := range q {
		if !want[e.Item.ID] {
			t.Fatalf("sample item %d is not a top-%d key", e.Item.ID, cfg.S)
		}
	}
	if total > int64(cfg.K*perSite/2) {
		t.Errorf("upstream messages %d not sublinear in %d updates", total, cfg.K*perSite)
	}
	for _, c := range clients {
		c.Close()
	}
}
