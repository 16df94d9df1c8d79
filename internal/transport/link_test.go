package transport

import (
	"net"
	"testing"
	"time"

	"wrs/internal/core"
	"wrs/internal/xrand"
)

// TestServeAfterCloseReleasesListener pins the accept loop's closed
// handshake at listener installation: a Serve that starts after Close
// must close its listener and return instead of blocking in Accept on
// a listener nobody will ever close (leaking the goroutine and the
// port).
func TestServeAfterCloseReleasesListener(t *testing.T) {
	srv, err := NewCoordinatorServer(core.Config{K: 1, S: 1}, xrand.New(83))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve after Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		ln.Close()
		t.Fatal("Serve after Close is still blocked in Accept")
	}
	if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		conn.Close()
		t.Error("listener still accepting after Serve returned")
	}
}

// TestServeRacingCloseReturns runs Serve and Close concurrently: every
// interleaving must end with Serve returned and the listener closed.
func TestServeRacingCloseReturns(t *testing.T) {
	for i := 0; i < 50; i++ {
		srv, err := NewCoordinatorServer(core.Config{K: 1, S: 1}, xrand.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		srv.Close()
		select {
		case <-served:
		case <-time.After(2 * time.Second):
			ln.Close()
			t.Fatalf("iteration %d: Serve racing Close never returned", i)
		}
	}
}
