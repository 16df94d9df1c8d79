package relay

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"wrs/internal/core"
	"wrs/internal/stream"
	"wrs/internal/transport"
	"wrs/internal/wire"
	"wrs/internal/xrand"
)

// The link-ordering tests run against both downlink roles of the
// transport link layer — a CoordinatorServer, and a Relay in front of
// one — with a raw connection as the child, so what they pin is the
// shared plumbing's ordering, not a SiteClient's reaction to it.

// downRole starts one downlink role over a fresh single-shard sampler
// coordinator. It returns the address children dial, the coordinator
// server (the ground truth), and a teardown of everything it started.
type downRole struct {
	name  string
	start func(t *testing.T, cfg core.Config, seed uint64) (addr string, srv *transport.CoordinatorServer, stop func())
}

func startServerRole(t *testing.T, cfg core.Config, seed uint64) (string, *transport.CoordinatorServer, func()) {
	t.Helper()
	srv, err := transport.NewCoordinatorServer(cfg, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv, func() { srv.Close() }
}

var downRoles = []downRole{
	{"server", startServerRole},
	{"relay", func(t *testing.T, cfg core.Config, seed uint64) (string, *transport.CoordinatorServer, func()) {
		t.Helper()
		srvAddr, srv, stopSrv := startServerRole(t, cfg, seed)
		r, err := New(cfg, 1, srvAddr, "", Options{Merge: true})
		if err != nil {
			stopSrv()
			t.Fatal(err)
		}
		return r.Addr(), srv, func() { r.Close(); stopSrv() }
	}},
}

// rawChild is a child speaking the wire protocol by hand.
type rawChild struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
}

func dialRawChild(t *testing.T, addr string) *rawChild {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawChild{conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}
}

// ping writes payloads (if any) and then a ping, in one flush.
func (c *rawChild) ping(t *testing.T, payloads ...[]byte) {
	t.Helper()
	for _, p := range append(payloads, wire.PingPayload) {
		if err := wire.WriteFrame(c.bw, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// untilPong returns every broadcast message received before the next
// pong, in arrival order, and how many frames carried them.
func (c *rawChild) untilPong(t *testing.T) (msgs []core.Message, frames int) {
	t.Helper()
	for {
		payload, err := wire.ReadFrame(c.br, nil)
		if err != nil {
			t.Fatalf("reading until pong: %v", err)
		}
		if wire.IsPong(payload) {
			return msgs, frames
		}
		frames++
		if err := wire.ForEachMessage(payload, func(m core.Message) { msgs = append(msgs, m) }); err != nil {
			t.Fatalf("undecodable broadcast frame: %v", err)
		}
	}
}

// controlPlane folds broadcasts into the view a site would hold.
func controlPlane(msgs []core.Message) (th float64, sat map[int]bool) {
	sat = map[int]bool{}
	for _, m := range msgs {
		switch m.Kind {
		case core.MsgEpochUpdate:
			th = max(th, m.Threshold)
		case core.MsgLevelSaturated:
			sat[m.Level] = true
		}
	}
	return th, sat
}

// coordView reads the coordinator's control plane under its shard lock.
func coordView(srv *transport.CoordinatorServer) (th float64, sat []int) {
	srv.DoShard(0, func() {
		th = srv.Coord(0).CurrentThreshold()
		sat = srv.Coord(0).SaturatedLevels()
	})
	return th, sat
}

// earlyFrame is a batch of MsgEarly messages on one weight level: enough
// of them saturate the level, which releases it into the sample and
// advances the epoch — a burst of broadcasts triggered by one frame.
func earlyFrame(firstID uint64, n int, weight float64) []byte {
	var p []byte
	for i := 0; i < n; i++ {
		p = wire.AppendMessage(p, core.Message{
			Kind: core.MsgEarly,
			Item: stream.Item{ID: firstID + uint64(i), Weight: weight},
		})
	}
	return p
}

// TestLinkJoinSnapshotPrecedesLiveTraffic pins the late-joiner half of
// the link contract: a child that attaches after the control plane has
// moved receives the join snapshot before anything else — before the
// pong answering its first ping, and before any live broadcast.
func TestLinkJoinSnapshotPrecedesLiveTraffic(t *testing.T) {
	cfg := core.Config{K: 2, S: 4}
	for _, role := range downRoles {
		t.Run(role.name, func(t *testing.T) {
			addr, srv, stop := role.start(t, cfg, 71)
			defer stop()

			warm := dialRawChild(t, addr)
			defer warm.conn.Close()
			warm.ping(t, earlyFrame(0, 2*cfg.LevelCap(), 1))
			warm.untilPong(t)
			th, sat := coordView(srv)
			if th == 0 || len(sat) == 0 {
				t.Fatalf("warmup did not move the control plane: threshold %g, saturated %v", th, sat)
			}

			late := dialRawChild(t, addr)
			defer late.conn.Close()
			late.ping(t)
			snap, frames := late.untilPong(t)
			gotTh, gotSat := controlPlane(snap)
			if frames == 0 || gotTh != th || len(gotSat) != len(sat) {
				t.Fatalf("before its first pong the late child saw %d frames (threshold %g, saturated %v), want the snapshot (threshold %g, saturated %v)",
					frames, gotTh, gotSat, th, sat)
			}
			if last := snap[len(snap)-1]; last.Kind != core.MsgEpochUpdate {
				t.Errorf("snapshot ends with %v, want the epoch threshold after the saturated levels", last.Kind)
			}

			// Live traffic from another child now reaches the late one
			// strictly after its snapshot.
			warm.ping(t, earlyFrame(1<<20, 2*cfg.LevelCap(), 1<<20))
			warm.untilPong(t)
			late.ping(t)
			live, _ := late.untilPong(t)
			liveTh, _ := controlPlane(live)
			if newTh, _ := coordView(srv); liveTh != newTh || newTh <= th {
				t.Errorf("live broadcasts after the snapshot carried threshold %g, coordinator at %g (snapshot %g)", liveTh, newTh, th)
			}
		})
	}
}

// TestLinkPongFollowsTriggeredBroadcasts pins the flow-control half: a
// pong reaches the child only after every broadcast that the child's
// frames before the ping triggered — so after each round the child's
// view equals the coordinator's exactly.
func TestLinkPongFollowsTriggeredBroadcasts(t *testing.T) {
	cfg := core.Config{K: 1, S: 4}
	for _, role := range downRoles {
		t.Run(role.name, func(t *testing.T) {
			addr, srv, stop := role.start(t, cfg, 73)
			defer stop()
			child := dialRawChild(t, addr)
			defer child.conn.Close()

			var seen []core.Message
			for round := 0; round < 4; round++ {
				weight := float64(uint64(1) << (8 * round))
				child.ping(t, earlyFrame(uint64(round)<<20, cfg.LevelCap()+8, weight))
				msgs, _ := child.untilPong(t)
				if len(msgs) == 0 {
					t.Fatalf("round %d: the pong overtook every broadcast", round)
				}
				seen = append(seen, msgs...)
				th, sat := coordView(srv)
				gotTh, gotSat := controlPlane(seen)
				if gotTh != th {
					t.Errorf("round %d: child's threshold %g at the pong, coordinator %g", round, gotTh, th)
				}
				for _, j := range sat {
					if !gotSat[j] {
						t.Errorf("round %d: level %d saturated before the pong but not delivered ahead of it", round, j)
					}
				}
			}
		})
	}
}

// TestLinkCloseDuringRegistration closes a role while children are
// still connecting: Close must return, and once every child is gone no
// goroutine of the role may be left behind.
func TestLinkCloseDuringRegistration(t *testing.T) {
	cfg := core.Config{K: 2, S: 4}
	for _, role := range downRoles {
		t.Run(role.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			addr, _, stop := role.start(t, cfg, 79)

			var mu sync.Mutex
			var conns []net.Conn
			done := make(chan struct{})
			var dialers sync.WaitGroup
			for d := 0; d < 4; d++ {
				dialers.Add(1)
				go func() {
					defer dialers.Done()
					for i := 0; i < 64; i++ {
						select {
						case <-done:
							return
						default:
						}
						conn, err := net.Dial("tcp", addr)
						if err != nil {
							return // the listener is gone
						}
						wire.WriteFrame(conn, wire.PingPayload)
						mu.Lock()
						conns = append(conns, conn)
						mu.Unlock()
					}
				}()
			}
			time.Sleep(20 * time.Millisecond)

			closed := make(chan struct{})
			go func() {
				stop()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not return while children were registering")
			}
			close(done)
			dialers.Wait()
			mu.Lock()
			for _, c := range conns {
				c.Close()
			}
			n := len(conns)
			mu.Unlock()
			if n == 0 {
				t.Fatal("no child connected before Close; the race was not exercised")
			}

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
