package relay

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"wrs/internal/core"
	"wrs/internal/fabric"
	"wrs/internal/transport"
	"wrs/internal/wire"
)

// Options configures a relay node.
type Options struct {
	// Merge enables the top-s union merge on MsgRegular traffic. Sound
	// only when every protocol shard hosted above this relay is
	// union-top-s mergeable (UnionMergeable); the tree builders gate it
	// automatically.
	Merge bool
}

// Relay is one node of the aggregation tree over real connections. It
// dials ONE upstream connection (to the coordinator server or a higher
// relay), listens for downstream connections, and moves traffic both
// ways. It is both roles of the transport link layer: a
// transport.Uplink toward its parent and a transport.Downlink toward
// its children, so the accept loop, join snapshot, per-child writers,
// fan-out accounting and frame building are the server's and the site
// client's own.
//
// Up: each child's frames are decoded and run through the per-shard
// filter machines; survivors are coalesced into per-shard batch frames
// on the uplink. A child's flow-control ping ships every buffered
// frame, forwards the ping, and remembers the child in a FIFO so the
// matching pong can be routed back — per-connection FIFO on the parent
// link plus in-order processing here means the pong reaches the child
// only after every broadcast its data triggered has been queued to it,
// which is exactly the invariant SiteClient's bounded-staleness window
// needs, so the Theorem 3 message bound survives any tree depth by
// induction over tiers.
//
// Down: parent broadcast frames update the filter machines' monotone
// control-plane view and are fanned verbatim to every child. A child
// that attaches mid-stream first receives a join snapshot of that view
// — broadcast monotonicity makes the replay harmless, the same argument
// as the coordinator server's snapshot, one hop down.
//
// Lock order: upMu and the downlink's registry mutex are never held
// together; the fan-down path takes them strictly in sequence.
type Relay struct {
	shards int
	parent net.Conn
	ln     net.Listener
	down   *transport.Downlink

	// upMu is the dedicated parent-writer mutex: it guards up, the
	// filter machines, the pong route, and the sticky upstream-write
	// error.
	upMu     sync.Mutex
	up       *transport.Uplink
	machines []*Machine
	pingQ    []*transport.Peer // children awaiting a pong, in ping order
	upErr    error

	parentDone chan struct{}
}

// New starts a relay for cfg hosting `shards` protocol shards: it dials
// parentAddr, listens on listenAddr ("127.0.0.1:0" when empty), and
// serves until Close — or until the parent connection dies, which
// cascades the teardown to every child so the subtree errors instead of
// hanging.
func New(cfg core.Config, shards int, parentAddr, listenAddr string, opts Options) (*Relay, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fabric.Validate(shards); err != nil {
		return nil, err
	}
	parent, err := net.Dial("tcp", parentAddr)
	if err != nil {
		return nil, err
	}
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		parent.Close()
		return nil, err
	}
	r := &Relay{
		shards:     shards,
		parent:     parent,
		ln:         ln,
		up:         transport.NewUplink(parent, shards),
		machines:   make([]*Machine, shards),
		parentDone: make(chan struct{}),
	}
	for p := range r.machines {
		r.machines[p] = NewMachine(cfg.S, opts.Merge)
	}
	r.down = transport.NewDownlink(shards, r.controlPlane, r.child)
	go r.down.Serve(ln)
	go r.parentLoop()
	return r, nil
}

// Addr returns the relay's downstream listen address.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// controlPlane returns shard p's monotone control-plane view for a
// child that attaches mid-stream, so it does not filter at threshold 0
// forever (the O(n) regression the server's snapshot exists to prevent
// — re-proven one hop down, because a relay's view is a prefix of the
// coordinator's broadcast sequence and replay/reorder/duplication of
// monotone state is harmless).
func (r *Relay) controlPlane(p int) core.ControlPlane {
	r.upMu.Lock()
	defer r.upMu.Unlock()
	return r.machines[p].ControlPlane()
}

// child returns the per-frame handler for one downstream connection:
// pings are forwarded up, everything else is filtered and buffered up.
// Malformed child input drops this child's connection, never the relay;
// a dead parent link (sticky upErr) also drops it, so children error
// out instead of buffering forever.
func (r *Relay) child(pr *transport.Peer) func([]byte) error {
	return func(payload []byte) error {
		if wire.IsPing(payload) {
			return r.forwardPing(pr)
		}
		return r.relayUp(payload)
	}
}

// relayUp runs one child data frame through the shard filters,
// buffering survivors into the per-shard upstream frames. Frames ship
// to the buffered parent writer when full; the OS-bound flush happens
// on the next flow-control ping, which every site issues once per half
// staleness window (⌈W/2⌉ messages) and on every Flush.
func (r *Relay) relayUp(payload []byte) error {
	r.upMu.Lock()
	defer r.upMu.Unlock()
	if r.upErr != nil {
		return r.upErr
	}
	if err := ProcessUpFrame(r.machines, payload, r.bufferUpLocked); err != nil {
		return err
	}
	return r.upErr // surfaces a parent write error from a mid-frame ship
}

// bufferUpLocked frames one surviving message for the parent. A write
// error goes sticky in upErr: the parent link is unusable, and the
// parent loop's teardown will cascade. Caller holds upMu.
func (r *Relay) bufferUpLocked(p int, m core.Message) {
	if err := r.up.Add(p, m); err != nil && r.upErr == nil {
		r.upErr = err
	}
}

// forwardPing handles a child's flow-control ping: atomically ship
// every buffered upstream frame, forward the ping, flush, and enqueue
// the child in the pong-routing FIFO. Atomicity under upMu plus FIFO on
// the parent connection gives the transitive staleness guarantee: when
// the matching pong comes back, everything this relay had accepted
// before the ping — this child's data included — has been processed
// upstream, and every broadcast that processing triggered has already
// been fanned to the child's outbox ahead of the pong.
func (r *Relay) forwardPing(pr *transport.Peer) error {
	r.upMu.Lock()
	defer r.upMu.Unlock()
	if r.upErr != nil {
		return r.upErr
	}
	if err := r.up.Ping(); err != nil {
		r.upErr = err
		return err
	}
	r.pingQ = append(r.pingQ, pr)
	return nil
}

// SeverParent cuts only the upstream link, mid-write, as if the parent
// process vanished: the parent loop errors out and cascades the
// teardown to this relay's own subtree, while sibling subtrees attached
// to other relays are untouched. It is the fault-injection hook for
// partial-tree loss tests and the chaos harness.
func (r *Relay) SeverParent() error { return r.parent.Close() }

// parentLoop reads the upstream connection: pongs are routed to the
// child whose ping they answer (FIFO), broadcast frames update the
// filter machines and fan down to every child. Both run on this one
// goroutine, so a pong is queued to its child behind every broadcast
// that arrived before it. A child may have several pings in the FIFO
// at once (SiteClient pipelines them); FIFO order on the parent link
// matches each pong to its ping all the same. When the parent link dies the relay tears
// itself down, cascading to all children.
func (r *Relay) parentLoop() {
	defer close(r.parentDone)
	wire.ReadFrames(bufio.NewReaderSize(r.parent, 64*1024), func(payload []byte) error {
		if wire.IsPong(payload) {
			r.routePong()
			return nil
		}
		return r.relayDown(payload)
	})
	r.teardown()
}

// routePong answers the oldest outstanding forwarded ping. A child torn
// down in the meantime refuses the pong (Peer.Send).
func (r *Relay) routePong() {
	r.upMu.Lock()
	var pr *transport.Peer
	if len(r.pingQ) > 0 {
		pr = r.pingQ[0]
		r.pingQ = r.pingQ[1:]
	}
	r.upMu.Unlock()
	if pr != nil {
		pr.Send(wire.PongPayload)
	}
}

// relayDown applies one parent broadcast frame to the filter machines
// and fans it verbatim to every child. The machine update (upMu) and
// the fan-out (the downlink's registry) take their locks strictly in
// sequence, never nested.
func (r *Relay) relayDown(payload []byte) error {
	r.upMu.Lock()
	msgs, words, err := ProcessDownFrame(r.machines, payload)
	r.upMu.Unlock()
	if err != nil {
		return err
	}
	// The read buffer is reused; children share one copy.
	r.down.Broadcast(append([]byte(nil), payload...), msgs, words)
	return nil
}

// Forwarded returns how many upstream messages passed this relay's
// filters, summed over shards.
func (r *Relay) Forwarded() int64 {
	r.upMu.Lock()
	defer r.upMu.Unlock()
	var n int64
	for _, m := range r.machines {
		n += m.Forwarded()
	}
	return n
}

// Filtered returns how many upstream messages this relay swallowed,
// summed over shards.
func (r *Relay) Filtered() int64 {
	r.upMu.Lock()
	defer r.upMu.Unlock()
	var n int64
	for _, m := range r.machines {
		n += m.Filtered()
	}
	return n
}

// Threshold returns shard p's last-seen broadcast threshold
// (diagnostics and tests).
func (r *Relay) Threshold(p int) float64 {
	r.upMu.Lock()
	defer r.upMu.Unlock()
	return r.machines[p].Threshold()
}

// DownMessages returns broadcast messages delivered to children
// (per-child, join snapshots included) — the paper's downstream
// accounting for the edge this relay owns.
func (r *Relay) DownMessages() int64 { return r.down.Messages() }

// DownWords returns the machine words of that broadcast traffic.
func (r *Relay) DownWords() int64 { return r.down.Words() }

// Children returns the number of connected children (diagnostics).
func (r *Relay) Children() int { return r.down.Peers() }

// teardown closes the parent link first — unblocking any child handler
// stuck writing upstream — then the listener and every child.
func (r *Relay) teardown() error {
	r.parent.Close()
	return r.down.Close()
}

// Close tears the relay down: the parent connection, the listener, and
// every child connection. It is idempotent; the parent loop also tears
// down when the upstream link dies, so a broken parent cascades to the
// children instead of leaving them hanging. Close returns once every
// goroutine of the relay has exited.
func (r *Relay) Close() error {
	err := r.teardown()
	<-r.parentDone
	return err
}

// String identifies the relay in logs and errors.
func (r *Relay) String() string {
	return fmt.Sprintf("relay(%s, shards=%d)", r.Addr(), r.shards)
}
