package transport

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"

	"wrs/internal/core"
	"wrs/internal/netsim"
	"wrs/internal/wire"
)

// The link layer: the two halves of a protocol edge over one FIFO
// connection, written once for every role (DESIGN.md §5).
//
//   - A Downlink is the parent end. It accepts child connections (sites,
//     or relays one tier down), registers each, queues its join
//     snapshot, and owns its writer goroutine and outbox; broadcasts fan
//     out through it with per-delivery accounting.
//   - An Uplink is the child end's outgoing half: per-shard batch frames
//     under construction, shipped through one buffered writer.
//
// CoordinatorServer is a Downlink role, SiteClient an Uplink role, and
// relay.Relay is both. Everything the Theorem 3 message bound needs
// from the network lives here: each connection is FIFO end to end, a
// child's join snapshot is queued before any of its frames is handled,
// and a pong is queued behind every broadcast that the frames before
// its ping triggered.

// Peer is one accepted connection of a Downlink and the outbox its
// writer goroutine drains.
type Peer struct {
	conn   net.Conn
	outbox *netsim.Mailbox[[]byte]
}

// Send queues a frame payload behind everything already queued to the
// peer, and reports false once the peer has been torn down. Queued
// payloads are shared, never copied: the caller must not modify one
// afterwards.
func (p *Peer) Send(payload []byte) bool { return p.outbox.TryPut(payload) }

// Downlink is the parent end of a set of links: one accept loop, one
// writer goroutine per connection, broadcast fan-out, and teardown. A
// role supplies two callbacks (NewDownlink) and nothing else.
type Downlink struct {
	shards  int
	plane   func(shard int) core.ControlPlane
	handler func(*Peer) func(payload []byte) error

	// peersMu guards peers, ln and the closed handshake. No role
	// callback runs under it, so it is never held while taking a shard
	// ingest mutex or a relay's uplink (DESIGN.md §9.3).
	peersMu sync.Mutex
	peers   map[net.Conn]*Peer
	ln      net.Listener
	closed  atomic.Bool
	wg      sync.WaitGroup

	msgs  atomic.Int64 // broadcast messages delivered, per peer, join snapshots included
	words atomic.Int64
}

// NewDownlink builds the parent end of links carrying `shards` protocol
// shards (frames are shard-tagged when shards > 1).
//
// plane returns shard p's monotone control plane for a newly
// registered peer; it takes whatever lock guards that state. handler is
// called once per accepted peer and returns the peer's per-frame
// handler, which runs on the peer's reader goroutine in arrival order;
// an error drops the peer.
func NewDownlink(shards int, plane func(shard int) core.ControlPlane, handler func(*Peer) func(payload []byte) error) *Downlink {
	return &Downlink{
		shards:  shards,
		plane:   plane,
		handler: handler,
		peers:   make(map[net.Conn]*Peer),
	}
}

// Serve accepts peers on ln until Close; it blocks. A Serve that starts
// after (or races) Close closes ln and returns nil instead of blocking
// in Accept on a listener nobody will close.
func (d *Downlink) Serve(ln net.Listener) error {
	d.peersMu.Lock()
	if d.closed.Load() {
		d.peersMu.Unlock()
		ln.Close()
		return nil
	}
	d.ln = ln
	d.peersMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if d.closed.Load() {
				return nil
			}
			return err
		}
		// The Add and the closed check happen under the same mutex
		// section Close uses, so either Close sees this peer's
		// registration or this loop sees the closed flag — and wg.Add is
		// always ordered before wg.Wait.
		d.peersMu.Lock()
		if d.closed.Load() {
			d.peersMu.Unlock()
			conn.Close()
			continue
		}
		d.wg.Add(1)
		d.peersMu.Unlock()
		go d.run(conn)
	}
}

// run is one peer's lifetime: register, join snapshot, writer, reader,
// teardown.
func (d *Downlink) run(conn net.Conn) {
	defer d.wg.Done()
	pr := &Peer{conn: conn, outbox: netsim.NewMailbox[[]byte]()}
	d.peersMu.Lock()
	d.peers[conn] = pr
	d.peersMu.Unlock()
	d.join(pr)
	// Close may have snapshotted the registry before this registration;
	// re-checking after registering guarantees that every interleaving
	// either lets Close see the peer or lets this goroutine see the
	// closed flag — otherwise Close's wg.Wait could hang on a connection
	// nobody tears down.
	if d.closed.Load() {
		d.drop(pr, nil)
		return
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		writeLoop(conn, pr.outbox)
	}()
	wire.ReadFrames(bufio.NewReaderSize(conn, 64*1024), d.handler(pr))
	d.drop(pr, writerDone)
}

// join queues the peer's join snapshot: per shard with any state, one
// frame replaying its control plane (core.ControlPlane.Snapshot). A
// child starts sending as soon as its TCP handshake completes, which
// can be long before this registration; every broadcast issued in
// between would otherwise be lost to it forever (broadcasts are not
// replayed), leaving it filtering with threshold 0 and unsaturated
// levels for the whole run: the O(n) regression. The snapshot is taken
// *after* registration, so a broadcast racing it is delivered through
// the outbox too, possibly ahead of a snapshot that already reflects it
// — harmless, because broadcasts are monotone (saturation flags only
// set, thresholds only rise): replay and reordering never move a
// child's view backwards.
func (d *Downlink) join(pr *Peer) {
	for p := 0; p < d.shards; p++ {
		var snap []byte
		var msgs, words int64
		plane := d.plane(p)
		plane.Snapshot(func(m core.Message) {
			snap = appendFramed(snap, d.shards, p, m)
			msgs++
			words += int64(m.Words())
		})
		if msgs > 0 {
			pr.outbox.Put(snap)
			// The snapshot replays several broadcasts; count each so the
			// message and word totals stay consistent.
			d.msgs.Add(msgs)
			d.words.Add(words)
		}
	}
}

// appendFramed appends m to a batch frame for shard p of a link that
// carries `shards` shards — the one place frames are built, upstream
// and down. A frame on a sharded link starts with the shard tag; with
// one shard frames stay untagged, byte-identical to the unsharded wire
// format.
func appendFramed(frame []byte, shards, p int, m core.Message) []byte {
	if len(frame) == 0 && shards > 1 {
		frame = wire.AppendShardHeader(frame, p)
	}
	return wire.AppendMessage(frame, m)
}

// writeLoop drains an outbox onto its connection so broadcasts and
// pongs never block a reader. Flush policy: coalesce every queued frame
// into one buffered write and flush before blocking on an empty outbox
// — no frame is ever held back, and a burst of broadcasts costs one
// syscall, not one each.
func writeLoop(conn net.Conn, outbox *netsim.Mailbox[[]byte]) {
	bw := bufio.NewWriter(conn)
	for {
		payload, ok := outbox.Get()
		if !ok {
			return
		}
		for ok {
			if err := wire.WriteFrame(bw, payload); err != nil {
				return
			}
			payload, ok = outbox.TryGet()
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// drop unregisters a peer and tears its connection down. The registry
// delete comes first, so Broadcast never queues into the closed outbox;
// Peer.Send after the close is refused.
func (d *Downlink) drop(pr *Peer, writerDone <-chan struct{}) {
	d.peersMu.Lock()
	delete(d.peers, pr.conn)
	d.peersMu.Unlock()
	pr.outbox.Close()
	if writerDone != nil {
		<-writerDone
	}
	pr.conn.Close()
}

// Broadcast queues one frame payload, which carries msgs messages of
// words machine words, to every registered peer, counting each delivery
// separately (the paper's accounting). The payload is shared read-only
// across the outboxes.
func (d *Downlink) Broadcast(payload []byte, msgs, words int64) {
	d.peersMu.Lock()
	n := int64(len(d.peers))
	for _, pr := range d.peers {
		pr.outbox.Put(payload)
	}
	d.peersMu.Unlock()
	if n > 0 {
		d.msgs.Add(msgs * n)
		d.words.Add(words * n)
	}
}

// Peers returns the number of registered peers.
func (d *Downlink) Peers() int {
	d.peersMu.Lock()
	defer d.peersMu.Unlock()
	return len(d.peers)
}

// Messages returns the broadcast messages delivered to peers, counted
// per peer, join snapshots included.
func (d *Downlink) Messages() int64 { return d.msgs.Load() }

// Words returns the machine words of that broadcast traffic.
func (d *Downlink) Words() int64 { return d.words.Load() }

// Close stops accepting, tears down every peer, and waits for their
// goroutines. Later calls wait for the same teardown and return nil.
func (d *Downlink) Close() error {
	d.peersMu.Lock()
	first := !d.closed.Swap(true)
	ln := d.ln
	conns := make([]net.Conn, 0, len(d.peers))
	for c := range d.peers {
		conns = append(conns, c)
	}
	d.peersMu.Unlock()
	var err error
	if first && ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	d.wg.Wait()
	return err
}

// Uplink is the outgoing half of a child's connection: per-shard batch
// frames under construction (shard-tagged when the link carries more
// than one shard) and the buffered writer they ship through.
//
// An Uplink is not safe for concurrent use. Its role serializes it
// under the mutex that also guards the state its frames derive from —
// SiteClient.mu (the site state machines) or Relay.upMu (the filter
// machines and the pong route) — so framing a message and shipping it
// are one atomic step. That mutex is the link's dedicated writer mutex,
// the sanctioned exception to "no I/O under a mutex" (docs/LINTS.md):
// it serializes the writes themselves, and it is never held while
// taking a Downlink's peersMu.
type Uplink struct {
	bw     *bufio.Writer
	frames [][]byte // per-shard frames under construction
	fwords []int64  // machine words framed per shard
	framed int      // messages across all frames under construction
	msgs   int64    // messages the buffered writer accepted, flushed or not
	words  int64
}

// NewUplink builds the outgoing half of a link carrying `shards`
// protocol shards over conn.
func NewUplink(conn net.Conn, shards int) *Uplink {
	return &Uplink{
		bw:     bufio.NewWriterSize(conn, 32*1024),
		frames: make([][]byte, shards),
		fwords: make([]int64, shards),
	}
}

// full reports whether shard p's frame cannot take another message.
func (u *Uplink) full(p int) bool {
	return len(u.frames[p])+wire.MessageSize > wire.MaxFrameSize
}

// Add appends m to shard p's frame, first shipping the frame when m
// would overflow it. m is framed even when that ship fails; the write
// error is returned.
func (u *Uplink) Add(p int, m core.Message) error {
	var err error
	if u.full(p) {
		err = u.ship(p)
	}
	u.frames[p] = appendFramed(u.frames[p], len(u.frames), p, m)
	u.fwords[p] += int64(m.Words())
	u.framed++
	return err
}

// ship writes shard p's frame under construction to the buffered
// writer. A write error drops the frame uncounted, so msgs and words
// only ever cover bytes the writer accepted.
func (u *Uplink) ship(p int) error {
	f := u.frames[p]
	if len(f) == 0 {
		return nil
	}
	n := len(f) / wire.MessageSize // a shard header is shorter than a message
	err := wire.WriteFrame(u.bw, f)
	if err == nil {
		u.msgs += int64(n)
		u.words += u.fwords[p]
	}
	u.frames[p] = f[:0]
	u.fwords[p] = 0
	u.framed -= n
	return err
}

// shipAll ships every shard's frame under construction.
func (u *Uplink) shipAll() error {
	for p := range u.frames {
		if err := u.ship(p); err != nil {
			return err
		}
	}
	return nil
}

// flush pushes everything shipped onto the connection.
func (u *Uplink) flush() error { return u.bw.Flush() }

// Ping ships every frame under construction, then the ping, then
// flushes. By FIFO on the connection, the pong answering it proves the
// far end has handled everything this link wrote before it.
func (u *Uplink) Ping() error {
	if err := u.shipAll(); err != nil {
		return err
	}
	if err := wire.WriteFrame(u.bw, wire.PingPayload); err != nil {
		return err
	}
	return u.flush()
}
