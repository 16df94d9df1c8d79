// Package transport runs the weighted-SWOR protocol over real network
// connections (TCP or anything net.Listener/net.Conn shaped), using the
// binary framing of package wire. It is the deployment-shaped runtime:
// one CoordinatorServer, k SiteClients, FIFO per connection, broadcasts
// fanned out through per-connection writer queues so a slow site never
// blocks the coordinator. Both ends of every connection are the link
// layer (Downlink, Uplink), which package relay shares.
//
// Asynchrony has the same consequences as in the goroutine runtime (see
// DESIGN.md): stale thresholds and late early-messages cost extra
// messages, never correctness. What asynchrony must NOT be allowed to do
// is starve the control plane indefinitely — a site that keeps sending
// while broadcasts lag the whole feed degenerates to the naive O(n)
// protocol. SiteClient therefore enforces a bounded-staleness window W
// (core.Config.StalenessWindow, max(64, 4·⌈s/k⌉)): it never has more
// than W upstream messages unacknowledged, and a pong acknowledges a
// ping only after every broadcast queued before it has been applied.
// Pings are pipelined: one goes out, without waiting, once ⌈W/2⌉
// messages are unacknowledged, so a site blocks only when the
// coordinator falls a whole window behind. They cost 2 messages per
// ⌈W/2⌉ sent, and a broadcast that all k sites see late costs at most
// k·W extra messages, a constant times Theorem 3's per-epoch budget,
// so the message bound survives any scheduler or network timing.
//
// Sharding: a server can host P independent protocol shards (see
// package fabric and DESIGN.md §9), each with its own coordinator state
// machine and its own ingest mutex. One connection per site carries all
// shards — upstream and downstream frames are shard-tagged (package
// wire) — so the connection count stays k, not P×k, while coordinator
// ingest parallelizes across P locks. With P = 1 the wire traffic is
// byte-identical to the pre-sharding transport (no tags).
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"wrs/internal/core"
	"wrs/internal/fabric"
	"wrs/internal/netsim"
	"wrs/internal/stream"
	"wrs/internal/wire"
	"wrs/internal/xrand"
)

// Coordinator is the coordinator-side protocol a server can host: the
// plain sampler coordinator, or an application wrapper around it (the
// L1 tracker's DupCoordinator). Core exposes the inner sampler state
// machine for queries and the control-plane join snapshot.
type Coordinator interface {
	HandleMessage(m core.Message, bcast func(core.Message))
	Core() *core.Coordinator
}

// prefilterable is implemented by coordinators that publish a key bound
// below which MsgRegular messages may be discarded before reaching
// HandleMessage (see core.Coordinator.DropBelow). Coordinators that do
// not implement it are never pre-filtered.
type prefilterable interface {
	DropBelow() float64
}

// shardState is one hosted protocol shard: its state machine, the
// mutex serializing its ingest, the atomically-published drop bound its
// pre-filtering runs against, and its broadcast callback.
type shardState struct {
	mu       sync.Mutex
	proto    Coordinator
	coord    *core.Coordinator
	dropper  prefilterable // nil: never pre-filter
	dropBits atomic.Uint64 // Float64bits of the published drop bound
	bcast    func(core.Message)
}

// CoordinatorServer hosts the coordinator side of one or more protocol
// shards. It is the downlink role of the link layer (Downlink): the
// connection plumbing is shared with relay.Relay, and the server adds
// only its per-frame handler (pre-filter, then the shard mutex) and its
// per-shard control plane for join snapshots (saturated levels and
// epoch threshold).
//
// Ingest path: connection handlers decode incoming frames and
// pre-filter below-threshold MsgRegular messages *outside* the shard
// mutex, against the drop bound the shard's coordinator last published
// through an atomic. The bound is monotone nondecreasing, so a stale
// read only filters less, never wrongly: any key at or below a
// published bound has s released dominators and would be dropped by
// HandleMessage on arrival anyway. Only the surviving messages take the
// shard's mutex, so ingest of high-rate traffic scales with cores
// instead of serializing on one lock — across connections via the
// pre-filter, and across shards via the per-shard mutexes
// (BenchmarkTCPParallelIngest).
//
// Lock order: a shard mutex may be held while taking the downlink's
// peersMu (the broadcast fan-out path); peersMu is never held while
// taking a shard mutex.
type CoordinatorServer struct {
	cfg    core.Config
	shards []*shardState
	down   *Downlink

	processed atomic.Int64
	prefilter atomic.Int64 // messages dropped before a shard mutex
	serial    atomic.Bool  // pre-refactor decode-under-lock path (benchmarks)
}

// NewCoordinatorServer builds a server hosting a fresh single-shard
// sampler coordinator for the given configuration.
func NewCoordinatorServer(cfg core.Config, rng *xrand.RNG) (*CoordinatorServer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewShardedCoordinatorServer(cfg, []Coordinator{core.NewCoordinator(cfg, rng)})
}

// NewShardedCoordinatorServer builds a server hosting one protocol
// shard per element of protos, each with its own ingest mutex. Every
// shard must share cfg (the shards are instances of the same protocol
// over a partition of the stream).
func NewShardedCoordinatorServer(cfg core.Config, protos []Coordinator) (*CoordinatorServer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fabric.Validate(len(protos)); err != nil {
		return nil, err
	}
	s := &CoordinatorServer{cfg: cfg, shards: make([]*shardState, len(protos))}
	s.down = NewDownlink(len(protos), s.controlPlane, s.handler)
	for p, proto := range protos {
		sh := &shardState{proto: proto, coord: proto.Core(), bcast: s.broadcaster(p)}
		sh.dropper, _ = proto.(prefilterable)
		s.shards[p] = sh
	}
	return s, nil
}

// Shards returns the number of hosted protocol shards.
func (s *CoordinatorServer) Shards() int { return len(s.shards) }

// Serve accepts site connections on ln until Close is called. It blocks;
// run it in a goroutine. Serve after Close closes ln and returns nil.
func (s *CoordinatorServer) Serve(ln net.Listener) error { return s.down.Serve(ln) }

// handler returns the per-frame handler for one site connection. A ping
// is answered at once: the connection's earlier frames were handled in
// order on this goroutine, so every broadcast they triggered is already
// queued ahead of the pong. A batch frame goes to the shard
// wire.ResolveShard names; any violation drops the connection.
func (s *CoordinatorServer) handler(pr *Peer) func([]byte) error {
	var kept []core.Message // surviving messages of the current frame
	return func(payload []byte) error {
		if wire.IsPing(payload) {
			pr.Send(wire.PongPayload)
			return nil
		}
		shard, msgs, err := wire.ResolveShard(payload, len(s.shards))
		if err != nil {
			return err
		}
		sh := s.shards[shard]
		var n, dropped int64
		if s.serial.Load() {
			// Pre-refactor ingest: decode and handle everything under
			// the shard mutex. Kept for ablation and as the benchmark
			// baseline (BenchmarkTCPParallelIngest).
			sh.mu.Lock()
			err = wire.ForEachMessage(msgs, func(m core.Message) {
				sh.proto.HandleMessage(m, sh.bcast)
				n++
			})
			s.publishDropBound(sh)
			sh.mu.Unlock()
		} else {
			// Decode and pre-filter outside the lock; only survivors
			// take it. A dropped message counts as processed — the
			// coordinator would have dropped it on arrival too — so the
			// Processed() == Σ Sent() flush invariant is unchanged.
			drop := math.Float64frombits(sh.dropBits.Load())
			kept = kept[:0]
			err = wire.ForEachMessage(msgs, func(m core.Message) {
				n++
				if m.Kind == core.MsgRegular && drop > 0 && m.Key <= drop {
					dropped++
					return
				}
				kept = append(kept, m)
			})
			if len(kept) > 0 {
				sh.mu.Lock()
				for _, m := range kept {
					sh.proto.HandleMessage(m, sh.bcast)
				}
				s.publishDropBound(sh)
				sh.mu.Unlock()
			}
		}
		s.processed.Add(n)
		if dropped > 0 {
			s.prefilter.Add(dropped)
		}
		return err
	}
}

// publishDropBound stores the shard coordinator's current safe-to-drop
// key bound in the atomic the connection handlers pre-filter against.
// Caller holds the shard mutex. The bound is monotone nondecreasing, so
// handlers reading a stale value only filter less.
func (s *CoordinatorServer) publishDropBound(sh *shardState) {
	if sh.dropper == nil {
		return
	}
	sh.dropBits.Store(math.Float64bits(sh.dropper.DropBelow()))
}

// controlPlane returns shard p's current control plane — saturated
// levels and the epoch threshold — read under that shard's ingest
// mutex, for a newly registered connection (Downlink.join).
func (s *CoordinatorServer) controlPlane(p int) core.ControlPlane {
	sh := s.shards[p]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.coord.ControlPlane()
}

// broadcaster returns the bcast callback for shard p: it fans a
// coordinator announcement to every connected site, shard-tagged on a
// sharded server. Called while holding the shard mutex; the fan-out
// takes the downlink's peersMu (the one sanctioned shard-mutex →
// peersMu edge).
func (s *CoordinatorServer) broadcaster(p int) func(core.Message) {
	return func(m core.Message) {
		s.down.Broadcast(appendFramed(nil, len(s.shards), p, m), 1, int64(m.Words()))
	}
}

// Query returns the current weighted sample merged across all shards
// (safe for concurrent use). Each shard is snapshotted under its own
// ingest mutex — an O(s) copy — and the top-s selection and sort run
// outside every lock, so a query never stalls ingest for them
// (DESIGN.md §9).
func (s *CoordinatorServer) Query() []core.SampleEntry {
	entries := make([]core.SampleEntry, 0, 2*s.cfg.S*len(s.shards))
	for _, sh := range s.shards {
		sh.mu.Lock()
		entries = sh.coord.Snapshot(entries)
		sh.mu.Unlock()
	}
	return core.TopSample(entries, s.cfg.S)
}

// Coord returns shard p's inner sampler coordinator. Synchronize reads
// with DoShard.
func (s *CoordinatorServer) Coord(p int) *core.Coordinator { return s.shards[p].coord }

// DoShard runs fn while holding shard p's ingest mutex, so fn can read
// that shard's coordinator (or wrapper) state without racing message
// processing.
func (s *CoordinatorServer) DoShard(p int, fn func()) {
	sh := s.shards[p]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn()
	s.publishDropBound(sh)
}

// Do runs fn while holding every shard's ingest mutex (ascending, so
// concurrent Do calls cannot deadlock), giving fn a simultaneous view
// of all shards. Prefer DoShard for per-shard reads — Do stalls ingest
// on every shard for the duration of fn.
func (s *CoordinatorServer) Do(fn func()) {
	for _, sh := range s.shards {
		sh.mu.Lock() //wrslint:allow lockorder multi-shard acquisition in ascending index order; concurrent Do calls cannot deadlock
	}
	fn()
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.publishDropBound(s.shards[i])
		s.shards[i].mu.Unlock()
	}
}

// Processed returns the number of protocol messages handled so far,
// including messages dropped by the pre-filter.
func (s *CoordinatorServer) Processed() int64 { return s.processed.Load() }

// PreFiltered returns how many MsgRegular messages the connection
// handlers dropped before taking a shard mutex.
func (s *CoordinatorServer) PreFiltered() int64 { return s.prefilter.Load() }

// SetSerialIngest switches to the pre-refactor ingest path that decodes
// and handles every message under the target shard's mutex (no
// pre-filter). For ablation and benchmarks only.
func (s *CoordinatorServer) SetSerialIngest(on bool) { s.serial.Store(on) }

// BroadcastsSent returns the number of per-site broadcast messages
// sent (join-snapshot replays included, counted per message).
func (s *CoordinatorServer) BroadcastsSent() int64 { return s.down.Messages() }

// BroadcastWords returns the machine words of broadcast traffic sent,
// counting each per-site delivery separately (paper accounting).
func (s *CoordinatorServer) BroadcastWords() int64 { return s.down.Words() }

// Stats returns the coordinator's protocol statistics, merged across
// shards (counts are additive over independent instances).
func (s *CoordinatorServer) Stats() core.CoordStats {
	sts := make([]core.CoordStats, len(s.shards))
	for p, sh := range s.shards {
		sh.mu.Lock()
		sts[p] = sh.coord.Stats
		sh.mu.Unlock()
	}
	return fabric.MergeCoordStats(sts)
}

// Close stops accepting and tears down all connections. It is
// idempotent.
func (s *CoordinatorServer) Close() error { return s.down.Close() }

// shardMsg is a decoded downstream announcement tagged with its shard.
type shardMsg struct {
	shard int
	m     core.Message
}

// SiteClient is the site side of the protocol over one connection: the
// uplink role of the link layer (Uplink), plus the reader that queues
// broadcasts and the bounded-staleness window. On a sharded deployment
// one client drives all P of its site's shard state machines, routing
// each arrival by item ID (fabric.ShardOf) and multiplexing every
// shard's traffic over the single connection with shard-tagged frames.
//
// Data plane: Observe/ObserveBatch encode messages into per-shard
// multi-message frames through the uplink's buffered writer, flushing
// once per call — the 2-syscalls-per-29-byte-message hot path becomes
// one syscall per call (per ~2000 messages in the batch path). Sent()
// counts only messages whose bytes reached the connection: a failed
// write or flush never inflates the count past what the coordinator can
// process.
//
// Control plane: the background readLoop parses incoming frames into a
// pending-broadcast queue without touching the site state machines, and
// ObserveBatch drains that queue before filtering each item — a
// broadcast is applied at the first item after it arrives, never
// blocked behind a network write or a busy data path.
//
// Flow control: per-connection FIFO guarantees that when the pong to a
// ping arrives, the coordinator has processed everything this client
// sent before the ping — on every shard; the shards share the FIFO —
// and every broadcast that processing triggered is queued ahead of the
// pong. The client keeps acked, the horizon of the last pong it
// consumed, and never frames a message while W (the staleness window)
// are unacknowledged. Pings are pipelined: a window ping goes out
// without waiting once ⌈W/2⌉ messages are unacknowledged, so the client
// blocks only when a pong is still missing half a window later. This
// caps how far a site can outrun the control plane at W messages total
// across its shards on any scheduler or network — socket buffering
// included — at a cost of at most 2 extra messages per ⌈W/2⌉ sent (see
// DESIGN.md).
//
// Observe, ObserveBatch, and Flush must be called from one goroutine;
// the broadcast reader runs in the background and synchronizes with
// them internally.
type SiteClient struct {
	// mu guards the site state machines, the uplink they frame their
	// messages into from inside their callbacks, and the flow-control
	// state; it is the connection's dedicated writer mutex (Uplink).
	// ObserveBatch holds it across a whole batch and releases it only
	// while it waits for a pong.
	mu        sync.Mutex
	machines  []netsim.Site[core.Message]
	site      *core.Site // machines[0] when it is a plain sampler site, else nil
	conn      net.Conn
	tagged    bool // len(machines) > 1: arrivals are routed by fabric.ShardOf
	up        *Uplink
	window    int64 // bounded-staleness window W
	half      int64 // ⌈W/2⌉: the unacknowledged count that sends a window ping
	acked     int64 // up.msgs horizon of the last pong consumed
	inflight  pingQueue
	pongsSeen int64 // pongs consumed or discarded, up to pongs

	sent      atomic.Int64
	sentWords atomic.Int64
	flowPings atomic.Int64
	flowWaits atomic.Int64

	curShard int   // shard the in-flight Observe emits into
	emitErr  error // first write error surfaced by a mid-observe frame split
	emit     func(m core.Message)
	one      [1]stream.Item // scratch so Observe can reuse the batch path

	pendMu     sync.Mutex
	pending    []shardMsg
	hasPending atomic.Bool

	pongs      atomic.Int64  // pongs the read loop has received
	pongWake   chan struct{} // 1-slot: a token after each pong
	readerDone chan struct{}
	readerErr  error
}

// outstandingPing is a ping awaiting its pong.
type outstandingPing struct {
	horizon int64 // up.msgs when the ping was written
	window  bool  // sent by the staleness window, not by Flush
}

// pingQueue is the FIFO of pings awaiting their pongs, oldest first. It
// holds at most one window ping (the client sends none while one is
// outstanding) and one Flush ping (Flush waits for the queue to empty,
// and a failed wait means the read loop has ended, after which no ping
// is queued), so two fixed slots suffice.
type pingQueue struct {
	slot [2]outstandingPing
	n    int
}

// push queues a ping written at the given horizon.
func (q *pingQueue) push(horizon int64, window bool) {
	q.slot[q.n] = outstandingPing{horizon, window}
	q.n++
}

// pop dequeues the oldest ping and returns its horizon.
func (q *pingQueue) pop() int64 {
	h := q.slot[0].horizon
	q.slot[0] = q.slot[1]
	q.n--
	return h
}

// windowPing reports whether a window ping is outstanding.
func (q *pingQueue) windowPing() bool {
	return (q.n > 0 && q.slot[0].window) || (q.n > 1 && q.slot[1].window)
}

// DialSite connects a plain sampler site to the coordinator at addr.
func DialSite(addr string, id int, cfg core.Config, rng *xrand.RNG) (*SiteClient, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewSiteClient(conn, id, cfg, rng)
}

// NewSiteClient runs a plain sampler site over an established
// connection (DialSite with the dialing factored out — tests and custom
// transports hand in pipes or pre-configured conns).
func NewSiteClient(conn net.Conn, id int, cfg core.Config, rng *xrand.RNG) (*SiteClient, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewShardedSiteClient(conn, []netsim.Site[core.Message]{core.NewSite(id, cfg, rng)}, cfg)
}

// NewShardedSiteClient runs one site's P shard state machines over a
// single established connection, one machine per protocol shard hosted
// by the server. Arrivals are routed across machines by item ID
// (fabric.ShardOf) and all traffic is multiplexed over the connection
// with shard-tagged frames; with one machine the frames are untagged
// and the client behaves exactly like the unsharded transport.
//
// A machine may be any site state machine — the plain sampler site or
// an application's, such as the L1 tracker's duplicating site; its
// messages are framed and batched like a plain sampler site's, and cfg
// supplies the staleness window. The window is enforced between updates
// (a sync cannot be interleaved into a running state-machine callback),
// so for a machine that emits m messages per update the staleness bound
// is W + m - 1 rather than W — still a constant for any fixed
// configuration (the L1 duplicating site has m <= l).
func NewShardedSiteClient(conn net.Conn, machines []netsim.Site[core.Message], cfg core.Config) (*SiteClient, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fabric.Validate(len(machines)); err != nil {
		return nil, err
	}
	c := &SiteClient{
		machines:   machines,
		conn:       conn,
		tagged:     len(machines) > 1,
		up:         NewUplink(conn, len(machines)),
		pongWake:   make(chan struct{}, 1),
		readerDone: make(chan struct{}),
	}
	c.setWindow(cfg.StalenessWindow())
	if len(machines) == 1 {
		c.site, _ = machines[0].(*core.Site)
	}
	// One state-machine callback can emit arbitrarily many messages (the
	// L1 duplicating site sends up to l copies per update), so the uplink
	// ships the frame under construction whenever the next message would
	// overflow it; the write error, if any, surfaces after the callback.
	c.emit = func(m core.Message) {
		if err := c.up.Add(c.curShard, m); err != nil && c.emitErr == nil {
			c.emitErr = err
		}
	}
	go c.readLoop()
	return c, nil
}

// SetStalenessWindow overrides the flow-control window W (default
// cfg.StalenessWindow()). Must be called before the first Observe.
func (c *SiteClient) SetStalenessWindow(w int) {
	c.mu.Lock()
	c.setWindow(w)
	c.mu.Unlock()
}

// setWindow sets W (at least 1) and the window-ping mark ⌈W/2⌉.
func (c *SiteClient) setWindow(w int) {
	c.window = int64(max(w, 1))
	c.half = (c.window + 1) / 2
}

// readLoop parses incoming frames. Broadcasts go into the pending queue
// for Observe to drain; it never takes the site mutex or blocks on the data
// path, so a delivered broadcast is always one Observe away from being
// applied. A frame wire.ResolveShard rejects — an untagged broadcast on
// a sharded client, or a shard this client does not drive — ends the
// loop: the server has a different shard layout, and applying its
// broadcasts to shard 0 would leave the other machines filtering at
// threshold 0 forever (the per-shard O(n) regression).
func (c *SiteClient) readLoop() {
	defer close(c.readerDone)
	c.readerErr = wire.ReadFrames(bufio.NewReader(c.conn), c.readFrame)
}

// readFrame handles one incoming frame on the read loop. A pong only
// bumps the pong counter and leaves a wake token: the client matches it
// to its ping under mu (absorbPongs). Every broadcast read before the
// pong is in the pending queue by the time the count moves.
func (c *SiteClient) readFrame(payload []byte) error {
	if wire.IsPong(payload) {
		c.pongs.Add(1)
		select {
		case c.pongWake <- struct{}{}:
		default:
		}
		return nil
	}
	shard, msgs, err := wire.ResolveShard(payload, len(c.machines))
	if err != nil {
		return err
	}
	var batch []shardMsg
	if err := wire.ForEachMessage(msgs, func(m core.Message) {
		batch = append(batch, shardMsg{shard: shard, m: m})
	}); err != nil {
		return err
	}
	c.pendMu.Lock()
	c.pending = append(c.pending, batch...)
	c.hasPending.Store(true)
	c.pendMu.Unlock()
	return nil
}

// drainPending applies every queued broadcast to its shard's site state
// machine. The fast path is one inlined atomic load. Caller holds mu.
//
// Deliberately NOT a staleness reset: a just-applied broadcast can be
// arbitrarily old — under full pipelining the kernel socket buffers
// let a site run thousands of messages ahead of the coordinator while
// a steady drip of stale broadcasts keeps arriving, which would starve
// the window forever if applying one reset the clock. Only a pong
// (absorbPongs) proves how far the coordinator has come.
func (c *SiteClient) drainPending() {
	if c.hasPending.Load() {
		c.applyPending()
	}
}

// applyPending is drainPending's slow path. Caller holds mu.
func (c *SiteClient) applyPending() {
	c.pendMu.Lock()
	batch := c.pending
	c.pending = nil
	c.hasPending.Store(false)
	c.pendMu.Unlock()
	for _, sm := range batch {
		c.machines[sm.shard].HandleBroadcast(sm.m)
	}
}

// unacked is the staleness counter: messages framed or written since
// the horizon of the last pong consumed. Messages count from the moment
// they are framed, not when they are flushed. Caller holds mu.
func (c *SiteClient) unacked() int64 {
	return c.up.msgs + int64(c.up.framed) - c.acked
}

// commit publishes everything the uplink has written to Sent(). Caller
// holds mu and has just flushed the uplink successfully.
func (c *SiteClient) commit() {
	c.sent.Store(c.up.msgs)
	c.sentWords.Store(c.up.words)
}

// absorbPongs consumes every pong the read loop has counted. Each one
// answers the oldest outstanding ping (per-connection FIFO), so it
// first applies the broadcasts queued before it and then moves acked to
// that ping's horizon. A pong with no ping outstanding — unsolicited, or
// answering a ping whose write reported an error — is discarded:
// matched to a later ping, it would report an earlier horizon than that
// ping proves and silently void the staleness bound. Caller holds mu.
func (c *SiteClient) absorbPongs() {
	n := c.pongs.Load()
	if n == c.pongsSeen {
		return
	}
	c.drainPending()
	for ; c.pongsSeen < n; c.pongsSeen++ {
		if c.inflight.n > 0 {
			c.acked = c.inflight.pop()
		}
	}
}

// ping ships and flushes everything framed and writes a ping behind it,
// queued at the new horizon. Pongs already counted are absorbed first,
// so none of them can be matched to this ping. Caller holds mu.
func (c *SiteClient) ping(window bool) error {
	select {
	case <-c.readerDone:
		// No pong can come back; keep the queue within its two slots.
		return c.closedErr()
	default:
	}
	c.absorbPongs()
	if err := c.up.Ping(); err != nil {
		return err
	}
	c.commit()
	c.inflight.push(c.up.msgs, window)
	return nil
}

// waitPong blocks until the read loop counts another pong or ends,
// with mu released for the wait: no channel operation runs under it.
// It returns an error only when the connection has ended with no pong
// left to absorb. Caller holds mu; it is held again on return.
func (c *SiteClient) waitPong() error {
	c.mu.Unlock()
	closed := false
	select {
	case <-c.pongWake:
	case <-c.readerDone:
		closed = true
	}
	c.mu.Lock()
	if closed && c.pongs.Load() == c.pongsSeen {
		return c.closedErr()
	}
	return nil
}

// closedErr reports a read loop that ended while a pong was awaited.
func (c *SiteClient) closedErr() error {
	return fmt.Errorf("transport: connection closed awaiting a pong: %w", errOr(c.readerErr))
}

// enforceWindow runs before an item once ⌈W/2⌉ messages are
// unacknowledged: it sends a window ping unless one is outstanding, and
// blocks while W messages are unacknowledged. Caller holds mu.
func (c *SiteClient) enforceWindow() error {
	waited := false
	for {
		c.absorbPongs()
		if c.unacked() >= c.half && !c.inflight.windowPing() {
			if err := c.ping(true); err != nil {
				return err
			}
			c.flowPings.Add(1)
		}
		if c.unacked() < c.window {
			return nil
		}
		if !waited {
			waited = true
			c.flowWaits.Add(1)
		}
		if err := c.waitPong(); err != nil {
			return err
		}
	}
}

// Observe processes one local arrival, sending any resulting protocol
// message over the connection (one flush per call).
func (c *SiteClient) Observe(it stream.Item) error {
	c.one[0] = it
	return c.ObserveBatch(c.one[:])
}

// ObserveBatch processes a slice of local arrivals, coalescing the
// resulting messages into per-shard multi-message frames with a single
// flush at the end — the hot path for high-throughput feeds. It takes
// mu once for the whole batch. Pending broadcasts are still drained
// before each item and the staleness window is still enforced, so
// batching trades no control-plane freshness.
func (c *SiteClient) ObserveBatch(items []stream.Item) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range items {
		c.drainPending()
		if c.unacked() >= c.half {
			if err := c.enforceWindow(); err != nil {
				return err
			}
		}
		p := 0
		if c.tagged {
			p = fabric.ShardOf(items[i].ID, len(c.machines))
		}
		c.curShard = p
		err := c.machines[p].Observe(items[i], c.emit)
		if err == nil {
			err = c.emitErr
		}
		c.emitErr = nil
		if err != nil {
			if werr := c.finishWrites(); werr != nil {
				return errors.Join(err, werr)
			}
			return err
		}
		if c.up.full(p) {
			if err := c.up.ship(p); err != nil {
				return err
			}
		}
	}
	return c.finishWrites()
}

// finishWrites ships every frame under construction, flushes, and
// commits the flushed messages to Sent(). Caller holds mu.
func (c *SiteClient) finishWrites() error {
	if err := c.up.shipAll(); err != nil {
		return err
	}
	if err := c.up.flush(); err != nil {
		return err
	}
	c.commit()
	return nil
}

// Flush pings and waits for every outstanding pong, so that every
// message this client sent has been processed by the coordinator — and
// every broadcast the coordinator issued up to that point has been
// applied locally — when it returns.
func (c *SiteClient) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ping(false); err != nil {
		return err
	}
	for c.inflight.n > 0 {
		if err := c.waitPong(); err != nil {
			return err
		}
		c.absorbPongs()
	}
	return nil
}

// Sent returns the number of protocol messages this client has
// successfully written to the connection.
func (c *SiteClient) Sent() int64 { return c.sent.Load() }

// SentWords returns the machine words of protocol traffic this client
// has successfully written (paper accounting; control frames and shard
// tags excluded).
func (c *SiteClient) SentWords() int64 { return c.sentWords.Load() }

// FlowPings returns how many window pings the bounded-staleness window
// sent (excluding explicit Flush calls). Consecutive window pings are
// at least ⌈W/2⌉ messages apart, so it is bounded by Sent()/⌈W/2⌉ ≤
// 2·Sent()/W, the overhead that keeps the message bound
// scheduler-proof.
func (c *SiteClient) FlowPings() int64 { return c.flowPings.Load() }

// FlowWaits returns how many times the window blocked the client: W
// messages were unacknowledged and it waited for a pong before framing
// more (Flush's own waits excluded). A pong that lands within half a
// window of its ping costs no wait.
func (c *SiteClient) FlowWaits() int64 { return c.flowWaits.Load() }

// Site returns the underlying plain sampler site, or nil when the
// client drives a custom machine or multiple shard machines
// (diagnostics; synchronize externally if the client is still live).
func (c *SiteClient) Site() *core.Site { return c.site }

// Machine returns the first (shard 0) site state machine the client
// drives (diagnostics; synchronize externally if the client is still
// live).
func (c *SiteClient) Machine() netsim.Site[core.Message] { return c.machines[0] }

// Machines returns every shard state machine the client drives
// (diagnostics; synchronize externally if the client is still live).
func (c *SiteClient) Machines() []netsim.Site[core.Message] { return c.machines }

// Close tears down the connection. Call Flush first for a graceful
// shutdown that guarantees delivery.
func (c *SiteClient) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// Abort severs the connection immediately — no flush, no waiting for
// the read loop — so buffered frames are lost mid-write exactly as in a
// process crash. It is the fault-injection hook for churn tests and the
// chaos harness; everything after Abort behaves as after a peer crash:
// Observe errors out, and Sent never counts the lost frames.
func (c *SiteClient) Abort() error { return c.conn.Close() }

func errOr(err error) error {
	if err == nil {
		return errors.New("EOF")
	}
	return err
}
