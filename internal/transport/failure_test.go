package transport

import (
	"net"
	"testing"
	"time"

	"wrs/internal/core"
	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// TestSiteCrashDoesNotCorruptOthers kills one site's connection mid-run
// and verifies the coordinator keeps serving the surviving sites
// correctly: the final sample is the exact top-s of every key that
// *reached* the coordinator (a crashed site's unsent items are simply
// absent, as in any real deployment).
func TestSiteCrashDoesNotCorruptOthers(t *testing.T) {
	cfg := core.Config{K: 3, S: 6}
	master := xrand.New(99)
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

	rng := xrand.New(100)
	feed := func(c *SiteClient, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := c.Observe(stream.Item{ID: uint64(i), Weight: 1 + rng.Float64()}); err != nil {
				return // expected after crash
			}
		}
	}
	feed(clients[0], 0, 500)
	feed(clients[1], 500, 1000)
	feed(clients[2], 1000, 1500)

	// Crash site 2 abruptly.
	clients[2].conn.Close()
	// Give the server a moment to reap the connection.
	deadlineAt := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadlineAt) {
		if srv.down.Peers() == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Writes after the crash must error out and never inflate Sent():
	// the counter reflects only messages whose bytes reached the
	// connection, so the Processed/Sent books below can balance.
	sentAtCrash := clients[2].Sent()
	crashErrored := false
	for i := 5000; i < 15000; i++ {
		if err := clients[2].Observe(stream.Item{ID: uint64(i), Weight: 1 + rng.Float64()}); err != nil {
			crashErrored = true
			break
		}
	}
	if !crashErrored {
		t.Error("observe kept succeeding on a closed connection")
	}
	if got := clients[2].Sent(); got != sentAtCrash {
		t.Errorf("failed writes counted: Sent() went %d -> %d after crash", sentAtCrash, got)
	}

	// Survivors keep streaming and stay consistent.
	feed(clients[0], 2000, 3000)
	feed(clients[1], 3000, 4000)
	for _, c := range clients[:2] {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Exact accounting under mid-run connection failure: everything any
	// client successfully wrote — including the crashed site's pre-crash
	// traffic, delivered before its FIN — was processed, and nothing
	// else was counted.
	var sentTotal int64
	for _, c := range clients {
		sentTotal += c.Sent()
	}
	if got := srv.Processed(); got != sentTotal {
		t.Errorf("processed %d != %d total successful sends", got, sentTotal)
	}
	q := srv.Query()
	if len(q) != cfg.S {
		t.Fatalf("query size %d after crash, want %d", len(q), cfg.S)
	}
	for i := 1; i < len(q); i++ {
		if q[i].Key > q[i-1].Key {
			t.Fatal("sample order corrupted after site crash")
		}
	}
	// Survivors' later messages were processed.
	if srv.Processed() < clients[0].Sent()+clients[1].Sent() {
		t.Fatalf("processed %d < survivors sent %d",
			srv.Processed(), clients[0].Sent()+clients[1].Sent())
	}
	clients[0].Close()
	clients[1].Close()
}

// TestClientObserveAfterServerGone verifies Observe fails cleanly (no
// hang, no panic) when the coordinator is unreachable.
func TestClientObserveAfterServerGone(t *testing.T) {
	cfg := core.Config{K: 1, S: 1}
	master := xrand.New(123)
	srv, addr := startServer(t, cfg, master.Split())
	c, err := DialSite(addr, 0, cfg, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	// TCP gives no synchronous delivery guarantee; keep writing until the
	// broken pipe surfaces (bounded).
	var lastErr error
	for i := 0; i < 100000 && lastErr == nil; i++ {
		lastErr = c.Observe(stream.Item{ID: uint64(i), Weight: 1e9})
	}
	if lastErr == nil {
		t.Error("writes kept succeeding long after server shutdown")
	}
}

// TestServerRejectsOversizedFrame covers the DoS guard.
func TestServerRejectsOversizedFrame(t *testing.T) {
	cfg := core.Config{K: 1, S: 1}
	master := xrand.New(321)
	srv, addr := startServer(t, cfg, master.Split())
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Header announcing a 1 GiB frame.
	if _, err := conn.Write([]byte{0, 0, 0, 0x40}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(deadline())
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("server kept the connection after an oversized frame header")
	}
}
