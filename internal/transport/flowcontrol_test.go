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

// quiet asserts that the client puts nothing on the wire for d.
func (f *fakeCoordinator) quiet(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case p := <-f.frames:
		t.Fatalf("client sent a %d-byte frame past the staleness window", len(p))
	case <-time.After(d):
	}
}

// windowSchedule reads the frames of a client that observes total
// weight-1 items (one message each) under window W, against a
// coordinator that withholds every pong until the client has stopped.
// It asserts the pipelined schedule: every window ping goes out when
// exactly ⌈W/2⌉ messages are unacknowledged, and the client stops with
// exactly W unacknowledged, stays silent for 100 ms, and counts one
// wait before the pong that releases it. afterMessage runs after each
// message (the drip test's broadcast). It returns the pings and stops.
func (f *fakeCoordinator) windowSchedule(t *testing.T, c *SiteClient, W, total int, afterMessage func()) (pings, stops int) {
	t.Helper()
	half := (W + 1) / 2
	sent, acked := 0, 0
	var horizons []int // outstanding pings, oldest first
	for sent < total {
		if sent-acked == W {
			f.quiet(t, 100*time.Millisecond)
			for start := time.Now(); c.FlowWaits() != int64(stops+1); {
				if time.Since(start) > 2*time.Second {
					t.Fatalf("stop %d: the client never counted its wait (FlowWaits %d)", stops+1, c.FlowWaits())
				}
				time.Sleep(time.Millisecond)
			}
			if len(horizons) == 0 {
				t.Fatalf("client stopped at %d messages with no ping outstanding", sent)
			}
			f.pong(t)
			acked, horizons = horizons[0], horizons[1:]
			stops++
			continue
		}
		msgs, ping := f.nextFrames(t, 1)
		if ping {
			if sent-acked != half {
				t.Fatalf("window ping at %d unacknowledged messages, want exactly ⌈W/2⌉ = %d", sent-acked, half)
			}
			horizons = append(horizons, sent)
			pings++
			continue
		}
		sent += msgs
		if afterMessage != nil {
			afterMessage()
		}
	}
	return pings, stops
}

// TestStalenessWindowForcesSync proves the bounded-staleness invariant
// directly: with window W and a coordinator that withholds pongs, the
// client sends exactly ⌈W/2⌉ messages, a ping, exactly W − ⌈W/2⌉ more,
// and then nothing until a pong arrives — it can never run more than W
// messages ahead of the control plane. Every later stretch behaves
// alike: a pong acknowledges the oldest ping's horizon, the client
// pings again at ⌈W/2⌉ unacknowledged and stops again at W.
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

	// 21 items at W = 8: ping at 4, stop at 8; then after each pong a
	// ping at once (W − ⌈W/2⌉ = ⌈W/2⌉ for even W) and a stop 4 later, at
	// 12, 16 and 20; the last pong leaves a ping and a 1-message tail.
	pings, stops := fake.windowSchedule(t, c, W, total, nil)
	if err := <-feedErr; err != nil {
		t.Fatal(err)
	}
	if pings != 5 || stops != 4 {
		t.Errorf("schedule: %d pings and %d stops, want 5 and 4", pings, stops)
	}
	if got := c.FlowPings(); got != int64(pings) {
		t.Errorf("flow pings = %d, want %d", got, pings)
	}
	if got := c.FlowWaits(); got != int64(stops) {
		t.Errorf("flow waits = %d, want %d", got, stops)
	}
	if got := c.Sent(); got != total {
		t.Errorf("Sent() = %d, want %d", got, total)
	}
}

// TestBroadcastDripDoesNotExtendWindow proves the hard half of the
// invariant: a steady drip of (possibly arbitrarily old) broadcasts
// must not postpone the stop at W unacknowledged messages. Socket
// buffering lets a site pipeline thousands of messages ahead of the
// coordinator while still receiving stale broadcasts — if applying one
// reset the window, flow control would never engage and the O(n)
// regression would reappear at full throughput (observed at
// GOMAXPROCS=2 before this was pinned).
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

	// The feeder observes each item only once the broadcast answering
	// the previous message is queued at the client, so the client
	// applies every broadcast between two of its own messages, never
	// just before a pong that would mask a window reset.
	const total = 2*W + 1
	gate := make(chan struct{}, total+1)
	gate <- struct{}{}
	feedErr := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			<-gate
			if err := c.Observe(stream.Item{ID: uint64(i), Weight: 1}); err != nil {
				feedErr <- err
				return
			}
		}
		feedErr <- nil
	}()

	// Drip a broadcast after every message (a saturated level the
	// weight-1 items don't occupy, so the site keeps sending) and
	// confirm the client still stops after exactly W unacknowledged
	// messages: pings at 4, 8, 12 and 16, stops at 8, 12 and 16.
	pings, stops := fake.windowSchedule(t, c, W, total, func() {
		fake.broadcast(t, core.Message{Kind: core.MsgLevelSaturated, Level: 7})
		for start := time.Now(); !c.hasPending.Load(); {
			if time.Since(start) > 2*time.Second {
				t.Fatal("broadcast never reached the client's queue")
			}
			time.Sleep(100 * time.Microsecond)
		}
		gate <- struct{}{}
	})
	if err := <-feedErr; err != nil {
		t.Fatal(err)
	}
	if pings != 4 || stops != 3 {
		t.Errorf("schedule: %d pings and %d stops, want 4 and 3", pings, stops)
	}
	if got := c.FlowPings(); got != int64(pings) {
		t.Errorf("flow pings = %d, want %d", got, pings)
	}
	// The dripped broadcasts were in fact applied along the way — they
	// just must not masquerade as control-plane freshness.
	if applied() == 0 {
		t.Error("no broadcast was applied during the feed")
	}
}

// TestStalePongDrainedBeforeSync pins the stale-pong hazard: a pong
// that arrives with no ping outstanding (its wait failed after the ping
// went out) is counted by the read loop. A later Flush must not return
// on that stale pong — it would report an earlier processing horizon
// than its own ping proves, silently voiding the staleness bound. The
// client therefore absorbs, and discards, every counted pong before it
// queues a new ping.
func TestStalePongDrainedBeforeSync(t *testing.T) {
	cfg := core.Config{K: 1, S: 1}
	cli, srv := net.Pipe()
	fake := newFakeCoordinator(srv)
	c, err := NewSiteClient(cli, 0, cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Simulate the aftermath of an errored wait: a pong arrives with no
	// ping outstanding and is counted by the read loop.
	fake.pong(t)
	for start := time.Now(); c.pongs.Load() == 0; {
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
	select {
	case err := <-flushDone:
		t.Fatalf("Flush returned on the stale pong (err %v)", err)
	case <-time.After(50 * time.Millisecond):
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

// TestEarlyPongCostsNoWait pins what pipelining buys: a coordinator
// that answers each window ping before the client has framed another
// ⌈W/2⌉ messages never blocks it. The client pings every ⌈W/2⌉ messages
// and the waits counter stays at 0.
func TestEarlyPongCostsNoWait(t *testing.T) {
	const W = 8
	cfg := core.Config{K: 1, S: 1}
	cli, srv := net.Pipe()
	fake := newFakeCoordinator(srv)
	c, err := NewSiteClient(cli, 0, cfg, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetStalenessWindow(W)

	// The feeder observes one item per gate token, so each pong is
	// counted before the next item; a client that blocked anyway leaves
	// nextFrames waiting for a message and fails the test.
	const total = 5 * W
	gate := make(chan struct{}, 1)
	feedErr := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			<-gate
			if err := c.Observe(stream.Item{ID: uint64(i), Weight: 1}); err != nil {
				feedErr <- err
				return
			}
		}
		feedErr <- nil
	}()
	var answered int64
	for i := 0; i < total; i++ {
		gate <- struct{}{}
		// A window ping, if one went out, precedes this item's message.
		msgs, ping := fake.nextFrames(t, 1)
		if ping {
			fake.pong(t)
			answered++
			for start := time.Now(); c.pongs.Load() != answered; {
				if time.Since(start) > 2*time.Second {
					t.Fatal("pong never reached the client")
				}
				time.Sleep(time.Millisecond)
			}
			msgs, ping = fake.nextFrames(t, 1)
		}
		if ping || msgs != 1 {
			t.Fatalf("item %d: got %d messages, ping=%v; want one message", i, msgs, ping)
		}
	}
	if err := <-feedErr; err != nil {
		t.Fatal(err)
	}
	if got := c.FlowWaits(); got != 0 {
		t.Errorf("flow waits = %d, want 0: every pong landed within half a window", got)
	}
	// Pings at 4, 8, ..., 36 unacknowledged-from-zero messages: the one
	// due at 40 waits for a 41st item.
	if got, want := c.FlowPings(), int64(total/(W/2)-1); got != want || answered != want {
		t.Errorf("flow pings = %d (answered %d), want %d", got, answered, want)
	}
	if got := c.Sent(); got != total {
		t.Errorf("Sent() = %d, want %d", got, total)
	}
}

// TestFlushWaitsForEveryOutstandingPong pins the ping FIFO: with a
// window ping still unanswered, Flush queues its own ping behind it and
// returns only after both pongs. A pong answers the oldest ping, so the
// first pong must not end the Flush, and the broadcast the coordinator
// queued ahead of the second must be applied when it does end.
func TestFlushWaitsForEveryOutstandingPong(t *testing.T) {
	const W = 8
	cfg := core.Config{K: 1, S: 1}
	cli, srv := net.Pipe()
	fake := newFakeCoordinator(srv)
	c, err := NewSiteClient(cli, 0, cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetStalenessWindow(W)

	for i := 0; i < W/2+1; i++ {
		if err := c.Observe(stream.Item{ID: uint64(i), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if msgs, ping := fake.nextFrames(t, W); !ping || msgs != W/2 {
		t.Fatalf("saw %d messages before ping=%v, want %d then the window ping", msgs, ping, W/2)
	}
	if msgs, ping := fake.nextFrames(t, 1); ping || msgs != 1 {
		t.Fatalf("got %d messages, ping=%v after the window ping; want one message", msgs, ping)
	}

	flushDone := make(chan error, 1)
	go func() { flushDone <- c.Flush() }()
	if msgs, ping := fake.nextFrames(t, 1); !ping || msgs != 0 {
		t.Fatalf("expected Flush's ping, saw %d messages (ping=%v)", msgs, ping)
	}
	fake.pong(t) // answers the window ping
	select {
	case err := <-flushDone:
		t.Fatalf("Flush returned on the window ping's pong (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	fake.broadcast(t, core.Message{Kind: core.MsgEpochUpdate, Threshold: 5})
	fake.pong(t) // answers Flush's ping
	if err := <-flushDone; err != nil {
		t.Fatal(err)
	}
	if got := c.Site().Threshold(); got != 5 {
		t.Errorf("Flush returned before applying the broadcast ahead of its pong: threshold %g, want 5", got)
	}
	c.mu.Lock()
	acked, sent, queued := c.acked, c.up.msgs, c.inflight.n
	c.mu.Unlock()
	if acked != sent || queued != 0 {
		t.Errorf("after Flush: acked %d of %d messages, %d pings still queued", acked, sent, queued)
	}
	if got := c.FlowWaits(); got != 0 {
		t.Errorf("flow waits = %d, want 0 (Flush's waits are not window waits)", got)
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
	// The ping overhead is provably bounded: consecutive window pings
	// are at least ⌈W/2⌉ sends apart.
	w := int64(cfg.StalenessWindow())
	if pings > 2*sent/w+int64(cfg.K) {
		t.Errorf("%d flow pings for %d sends exceeds the 2·sent/W=%d bound", pings, sent, 2*sent/w)
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
