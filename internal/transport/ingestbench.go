package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"wrs/internal/core"
	"wrs/internal/stream"
	"wrs/internal/wire"
	"wrs/internal/xrand"
)

// IngestBenchOpts configures one coordinator-ingest measurement: a
// sharded server blasted by raw wire-level connections, the workload
// the per-shard locks and the atomic pre-filter exist for. It is
// exported (not test-only) so cmd/wrs-bench can run the same
// measurement and record it in BENCH_ingest.json — the perf trajectory
// of the ingest path across PRs.
type IngestBenchOpts struct {
	Shards     int   // protocol shards hosted by the one server (default 1)
	Conns      int   // concurrent raw site connections (default 8)
	Msgs       int64 // total messages to ingest, split across conns (default 1e6)
	FrameMsgs  int   // messages per frame (default 2048)
	SampleSize int   // per-shard sample size s (default 8)
	Serial     bool  // decode-under-lock baseline (no pre-filter)

	// Live selects the workload. False: every message is a MsgRegular
	// below the warmed drop bound — the pre-filter regime, ~100%
	// dropped outside the locks (the PR 2 benchmark). True: every
	// message is a MsgEarly, which can never be pre-filtered — each one
	// generates a key and updates the shard's sample under that shard's
	// lock, so throughput is bounded by lock-serialized handling and
	// scales with the number of shard locks.
	Live bool

	// QuerierHz > 0 runs a concurrent querier at that rate for the
	// duration of the ingest. LockedSort selects the pre-satellite read
	// path (sort the full sample inside the ingest locks via Do);
	// otherwise the snapshot path (O(s) copy per shard lock, sort
	// outside) is used. Measures how much a query stalls ingest.
	QuerierHz  int
	LockedSort bool

	// TreeDial, when non-nil, routes every bench connection through an
	// aggregation tier (package relay) instead of straight at the
	// server: it receives the server address, builds the tier, and
	// returns a per-connection dial address plus a teardown. Only the
	// Live and Window workloads compose with it — their messages are
	// never relay-filtered, so the full-ingest barrier still holds at
	// the server; the pre-filter (drop) workload would be swallowed at
	// the first relay and is rejected. The transport package cannot
	// import relay (relay builds on transport), hence the hook.
	TreeDial func(serverAddr string) (dialAddr func(conn int) string, teardown func() error, err error)

	// RateHz > 0 paces the offered load: each connection spaces its
	// frame writes (with a per-frame flush, so pacing reaches the wire
	// rather than a bufio buffer) to an aggregate offered rate of
	// RateHz messages per second. While the server keeps up, achieved
	// throughput tracks offered; past saturation the writers fall
	// behind their schedule and achieved flattens at the service rate —
	// the knee the saturation sweep (workload/saturate) looks for.
	// Zero means unpaced: blast as fast as the writers can.
	RateHz float64

	// Window > 0 selects the windowed workload: the server hosts
	// WindowCoordinators of that width and every message is a
	// sequence-stamped MsgWindow candidate (each connection is one
	// site; per-connection stamps advance monotonically, so the
	// coordinator's per-site retention slides a real window). Window
	// messages can never be pre-filtered — like Live, ingest is
	// bounded by lock-serialized handling, but the handler now pays
	// the non-monotone retention update (ordered insert, dominance,
	// expiry) instead of a heap offer.
	Window int
}

func (o *IngestBenchOpts) fill() {
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Conns == 0 {
		o.Conns = 8
	}
	if o.Msgs == 0 {
		o.Msgs = 1 << 20
	}
	if o.FrameMsgs == 0 {
		o.FrameMsgs = 2048
	}
	if o.SampleSize == 0 {
		o.SampleSize = 8
	}
}

// IngestBenchResult is one measurement.
type IngestBenchResult struct {
	Opts       IngestBenchOpts
	Msgs       int64         // messages actually ingested
	Elapsed    time.Duration // wall time, feed start to full-ingest barrier
	Dropped    int64         // pre-filter + coordinator drops
	Queries    int64         // concurrent queries completed
	GOMAXPROCS int
}

// NsPerMsg returns the headline metric.
func (r IngestBenchResult) NsPerMsg() float64 {
	return float64(r.Elapsed.Nanoseconds()) / float64(r.Msgs)
}

// MmsgPerSec returns throughput in millions of messages per second.
func (r IngestBenchResult) MmsgPerSec() float64 {
	return float64(r.Msgs) / r.Elapsed.Seconds() / 1e6
}

// benchConn is a raw wire-level connection used by the harness: it
// bypasses SiteClient so the measurement isolates server-side ingest.
type benchConn struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
}

func dialBench(addr string) (*benchConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &benchConn{conn: conn, bw: bufio.NewWriterSize(conn, 64*1024), br: bufio.NewReaderSize(conn, 64*1024)}, nil
}

// send writes one frame into the buffered writer (flushed by sync, or
// explicitly via bw.Flush).
func (b *benchConn) send(payload []byte) error {
	return wire.WriteFrame(b.bw, payload)
}

// sync round-trips a ping, skipping broadcast frames queued ahead of
// the pong; when it returns the server has processed everything this
// connection sent.
func (b *benchConn) sync() error {
	if err := wire.WriteFrame(b.bw, wire.PingPayload); err != nil {
		return err
	}
	if err := b.bw.Flush(); err != nil {
		return err
	}
	var buf []byte
	for {
		payload, err := wire.ReadFrame(b.br, buf)
		if err != nil {
			return err
		}
		buf = payload
		if wire.IsPong(payload) {
			return nil
		}
	}
}

func (b *benchConn) close() { b.conn.Close() }

// stampFrame rewrites every window message of a frame buffer in place:
// sequence stamps advance from pos for site `site` of k (one per
// message; the next position is returned), and each key is replaced by
// a stamp-derived pseudo-random draw so the coordinator's retention
// stays at its realistic O(s·log(width/s)) size — repeating a fixed key
// cycle would pile up never-dominated maximal keys and benchmark an
// adversarial retention instead. The field offsets are the wire
// package's own layout constants, so the patch cannot drift from the
// codec.
func stampFrame(buf []byte, tagged bool, pos, site, k int) int {
	off := 0
	if tagged {
		off = wire.ShardHeaderSize
	}
	for ; off+wire.MessageSize <= len(buf); off += wire.MessageSize {
		stamp := uint64(core.WindowStamp(pos, site, k))
		key := 1 + float64(xrand.SplitMix64(&stamp)>>11)*0x1p-53*1e6
		binary.LittleEndian.PutUint64(buf[off+wire.AuxOffset:], math.Float64bits(key))
		binary.LittleEndian.PutUint32(buf[off+wire.LevelOffset:], uint32(int32(core.WindowStamp(pos, site, k))))
		pos++
	}
	return pos
}

// RunIngestBench measures coordinator ingest throughput for one
// configuration. GOMAXPROCS is whatever the caller set.
func RunIngestBench(o IngestBenchOpts) (IngestBenchResult, error) {
	o.fill()
	cfg := core.Config{K: o.Conns, S: o.SampleSize}
	if o.Live {
		// Isolate lock-serialized handling: no epoch broadcasts (the
		// writer queues would otherwise fill with downstream traffic the
		// raw connections never read mid-run).
		cfg.DisableEpochs = true
	}
	master := xrand.New(1)
	protos := make([]Coordinator, o.Shards)
	for p := range protos {
		if o.Window > 0 {
			protos[p] = core.NewWindowCoordinator(cfg, o.Window, master.Split())
		} else {
			protos[p] = core.NewCoordinator(cfg, master.Split())
		}
	}
	srv, err := NewShardedCoordinatorServer(cfg, protos)
	if err != nil {
		return IngestBenchResult{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return IngestBenchResult{}, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()
	srv.SetSerialIngest(o.Serial)

	dialAddr := func(int) string { return addr }
	if o.TreeDial != nil {
		if !o.Live && o.Window == 0 {
			return IngestBenchResult{}, fmt.Errorf("transport: TreeDial requires the Live or Window workload (the drop workload is swallowed at the first relay)")
		}
		da, teardown, err := o.TreeDial(addr)
		if err != nil {
			return IngestBenchResult{}, err
		}
		defer teardown()
		dialAddr = da
	}

	tagged := o.Shards > 1
	if !o.Live && o.Window == 0 {
		// Warm every shard's drop bound to ~1e12 so the regular-message
		// workload below is entirely pre-filterable.
		warm, err := dialBench(addr)
		if err != nil {
			return IngestBenchResult{}, err
		}
		for p := 0; p < o.Shards; p++ {
			var payload []byte
			if tagged {
				payload = wire.AppendShardHeader(payload, p)
			}
			for i := 0; i < o.SampleSize; i++ {
				payload = wire.AppendMessage(payload, core.Message{
					Kind: core.MsgRegular,
					Item: stream.Item{ID: uint64(i), Weight: 1},
					Key:  1e12 + float64(i),
				})
			}
			if err := wire.WriteFrame(warm.bw, payload); err != nil {
				warm.close()
				return IngestBenchResult{}, err
			}
		}
		if err := warm.sync(); err != nil {
			warm.close()
			return IngestBenchResult{}, err
		}
		warm.close()
	}
	warmed := srv.Processed()

	// Pre-encode one frame per shard; connections cycle through the
	// shards frame by frame, so every shard sees Msgs/Shards messages.
	// The windowed workload re-stamps each frame's sequence numbers per
	// connection before sending (stampFrame), so per-site positions
	// advance monotonically and the coordinator slides a real window.
	frames := make([][]byte, o.Shards)
	for p := range frames {
		var payload []byte
		if tagged {
			payload = wire.AppendShardHeader(payload, p)
		}
		for i := 0; i < o.FrameMsgs; i++ {
			m := core.Message{Item: stream.Item{ID: uint64(i), Weight: 1}}
			switch {
			case o.Window > 0:
				m.Kind = core.MsgWindow
				m.Key = 1 + float64(i%97)
			case o.Live:
				m.Kind = core.MsgEarly
			default:
				m.Kind = core.MsgRegular
				m.Key = 1 + float64(i%97)
			}
			payload = wire.AppendMessage(payload, m)
		}
		frames[p] = payload
	}

	conns := make([]*benchConn, o.Conns)
	for i := range conns {
		if conns[i], err = dialBench(dialAddr(i)); err != nil {
			for _, c := range conns[:i] {
				c.close()
			}
			return IngestBenchResult{}, err
		}
	}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()

	framesPerConn := int(o.Msgs/int64(o.Conns)) / o.FrameMsgs
	if framesPerConn < 1 {
		framesPerConn = 1
	}
	total := int64(framesPerConn) * int64(o.FrameMsgs) * int64(o.Conns)

	var queries int64
	querierDone := make(chan struct{})
	var querierStopped sync.WaitGroup
	if o.QuerierHz > 0 {
		querierStopped.Add(1)
		go func() {
			defer querierStopped.Done()
			tick := time.NewTicker(time.Second / time.Duration(o.QuerierHz))
			defer tick.Stop()
			for {
				select {
				case <-querierDone:
					return
				case <-tick.C:
					if o.LockedSort {
						// Pre-satellite read path: the full sort+copy runs
						// inside the ingest locks.
						srv.Do(func() {
							for p := 0; p < o.Shards; p++ {
								srv.Coord(p).Query()
							}
						})
					} else {
						srv.Query()
					}
					queries++
				}
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, o.Conns)
	for ci, bc := range conns {
		wg.Add(1)
		go func(ci int, bc *benchConn) {
			defer wg.Done()
			var buf []byte
			pos := make([]int, o.Shards) // per-shard sub-stream clock (window workload)
			var interval time.Duration
			if o.RateHz > 0 {
				perConnHz := o.RateHz / float64(o.Conns)
				interval = time.Duration(float64(o.FrameMsgs) / perConnHz * float64(time.Second))
			}
			for f := 0; f < framesPerConn; f++ {
				if interval > 0 {
					// Absolute schedule, not sleep-per-frame: a connection
					// that falls behind does not stretch the offered rate,
					// it just stops sleeping — achieved then measures the
					// service rate.
					if d := time.Until(start.Add(time.Duration(f) * interval)); d > 0 {
						time.Sleep(d)
					}
				}
				p := (ci + f) % o.Shards
				payload := frames[p]
				if o.Window > 0 {
					buf = append(buf[:0], payload...)
					pos[p] = stampFrame(buf, tagged, pos[p], ci, o.Conns)
					payload = buf
				}
				if err := wire.WriteFrame(bc.bw, payload); err != nil {
					errs <- err
					return
				}
				if interval > 0 {
					if err := bc.bw.Flush(); err != nil {
						errs <- err
						return
					}
				}
			}
			// Barrier: the server has consumed everything this connection
			// sent when the pong returns, so the measurement covers full
			// ingest, not just socket writes.
			errs <- bc.sync()
		}(ci, bc)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if o.QuerierHz > 0 {
		close(querierDone)
		querierStopped.Wait()
	}
	for i := 0; i < o.Conns; i++ {
		if err := <-errs; err != nil {
			return IngestBenchResult{}, err
		}
	}
	if got := srv.Processed() - warmed; got != total {
		return IngestBenchResult{}, fmt.Errorf("transport: ingest bench processed %d of %d messages", got, total)
	}
	return IngestBenchResult{
		Opts:       o,
		Msgs:       total,
		Elapsed:    elapsed,
		Dropped:    srv.PreFiltered() + srv.Stats().DroppedRegular,
		Queries:    queries,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}, nil
}
