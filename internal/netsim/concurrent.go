package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wrs/internal/stream"
)

// ConcurrentCluster runs one goroutine per site plus one for the
// coordinator, wired by batched FIFO input queues (feeder -> site),
// a FIFO channel (site -> coordinator) and unbounded FIFO mailboxes
// (coordinator -> site). It models the paper's communication
// assumptions — FIFO links, no loss — without the synchrony: sites may
// act on stale thresholds, which is safe by design (see DESIGN.md).
//
// Feed and FeedBatch may be called from any goroutine until Drain;
// afterwards they return an error. Flush is a non-terminal barrier:
// it blocks until everything fed before the call has been observed by
// the sites and every resulting message handled by the coordinator.
// It waits on events, not on a clock: while a flusher is blocked, each
// site goroutine wakes it once per dequeued batch and the coordinator
// goroutine once per handled message. Do runs a function serialized
// with coordinator message processing, so mid-run queries see a
// consistent coordinator state.
type ConcurrentCluster[M Msg] struct {
	coord Coordinator[M]
	sites []Site[M]

	in    []*BatchQueue[stream.Item]
	boxes []*Mailbox[M]
	upCh  chan M

	up, down, upWords, downWords atomic.Int64

	fed       []atomic.Int64 // items accepted by Feed/FeedBatch, per site
	processed []atomic.Int64 // items fully observed, per site; one add per dequeued batch
	handled   atomic.Int64   // messages processed by the coordinator

	// Flush barrier: flushers block on flushCond (under flushMu); while
	// waiters > 0, site and coordinator goroutines broadcast it after
	// advancing processed or handled.
	flushMu   sync.Mutex
	flushCond *sync.Cond
	waiters   atomic.Int32

	coordMu sync.Mutex // serializes HandleMessage with Do

	feedMu sync.RWMutex // guards closed against concurrent feeds
	closed bool

	errMu sync.Mutex
	err   error

	siteWG  sync.WaitGroup
	coordWG sync.WaitGroup
	started bool

	drainMu sync.Mutex
	drained bool
}

// NewConcurrentCluster assembles the runtime; call Start before feeding.
func NewConcurrentCluster[M Msg](coord Coordinator[M], sites []Site[M]) *ConcurrentCluster[M] {
	cc := &ConcurrentCluster[M]{
		coord:     coord,
		sites:     sites,
		in:        make([]*BatchQueue[stream.Item], len(sites)),
		boxes:     make([]*Mailbox[M], len(sites)),
		upCh:      make(chan M, 1024),
		fed:       make([]atomic.Int64, len(sites)),
		processed: make([]atomic.Int64, len(sites)),
	}
	for i := range sites {
		cc.in[i] = NewBatchQueue[stream.Item](256)
		cc.boxes[i] = NewMailbox[M]()
	}
	cc.flushCond = sync.NewCond(&cc.flushMu)
	return cc
}

// Start launches the site and coordinator goroutines.
func (cc *ConcurrentCluster[M]) Start() {
	if cc.started {
		panic("netsim: ConcurrentCluster started twice")
	}
	cc.started = true

	cc.coordWG.Add(1)
	go func() {
		defer cc.coordWG.Done()
		bcast := func(m M) {
			k := int64(len(cc.sites))
			cc.down.Add(k)
			cc.downWords.Add(int64(m.Words()) * k)
			for _, b := range cc.boxes {
				b.Put(m)
			}
		}
		for m := range cc.upCh {
			cc.coordMu.Lock()
			cc.coord.HandleMessage(m, bcast)
			cc.coordMu.Unlock()
			cc.handled.Add(1)
			cc.wakeFlushers()
		}
	}()

	for i := range cc.sites {
		cc.siteWG.Add(1)
		go func(id int) {
			defer cc.siteWG.Done()
			site := cc.sites[id]
			box := cc.boxes[id]
			send := func(m M) {
				cc.up.Add(1)
				cc.upWords.Add(int64(m.Words()))
				cc.upCh <- m
			}
			var batch []stream.Item
			for {
				var ok bool
				batch, ok = cc.in[id].GetAll(batch[:0])
				if !ok {
					return
				}
				for _, it := range batch {
					// Apply pending announcements first so thresholds are
					// as fresh as the asynchrony allows.
					for {
						m, ok := box.TryGet()
						if !ok {
							break
						}
						site.HandleBroadcast(m)
					}
					if err := site.Observe(it, send); err != nil {
						cc.setErr(err)
					}
				}
				cc.processed[id].Add(int64(len(batch)))
				cc.wakeFlushers()
			}
		}(i)
	}
}

// wakeFlushers wakes every blocked Flush to re-check its barrier. The
// caller has already advanced the counter the flushers wait on; since
// a flusher registers in waiters before it checks the counters, either
// it sees the new count or this load sees it waiting.
func (cc *ConcurrentCluster[M]) wakeFlushers() {
	if cc.waiters.Load() == 0 {
		return
	}
	cc.flushMu.Lock()
	cc.flushCond.Broadcast()
	cc.flushMu.Unlock()
}

func (cc *ConcurrentCluster[M]) setErr(err error) {
	cc.errMu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	cc.errMu.Unlock()
}

// Err returns the first site error observed so far.
func (cc *ConcurrentCluster[M]) Err() error {
	cc.errMu.Lock()
	defer cc.errMu.Unlock()
	return cc.err
}

func (cc *ConcurrentCluster[M]) checkSite(siteID int) error {
	if siteID < 0 || siteID >= len(cc.sites) {
		return fmt.Errorf("netsim: site %d out of range [0,%d)", siteID, len(cc.sites))
	}
	return nil
}

// Feed enqueues one arrival for a site. It may block if the site's
// input buffer is full (backpressure), never deadlocks. After Drain it
// returns an error instead of panicking on the closed queue.
func (cc *ConcurrentCluster[M]) Feed(siteID int, it stream.Item) error {
	if err := cc.checkSite(siteID); err != nil {
		return err
	}
	cc.feedMu.RLock()
	defer cc.feedMu.RUnlock()
	if cc.closed {
		return fmt.Errorf("netsim: Feed on drained ConcurrentCluster")
	}
	cc.fed[siteID].Add(1)
	cc.in[siteID].Put(it)
	return nil
}

// FeedBatch enqueues a slice of arrivals for a site in order, as one
// queue operation — the concurrent-runtime counterpart of
// transport.SiteClient.ObserveBatch. Like Feed it may block on the
// site's input buffer (backpressure). The items are copied; the caller
// may reuse the slice immediately.
func (cc *ConcurrentCluster[M]) FeedBatch(siteID int, items []stream.Item) error {
	if err := cc.checkSite(siteID); err != nil {
		return err
	}
	if len(items) == 0 {
		return nil
	}
	cc.feedMu.RLock()
	defer cc.feedMu.RUnlock()
	if cc.closed {
		return fmt.Errorf("netsim: FeedBatch on drained ConcurrentCluster")
	}
	cc.fed[siteID].Add(int64(len(items)))
	cc.in[siteID].PutBatch(items)
	return nil
}

// Do runs fn serialized with coordinator message processing, so fn can
// read (or mutate) the coordinator state without racing HandleMessage.
// It works both mid-run and after Drain.
func (cc *ConcurrentCluster[M]) Do(fn func()) {
	cc.coordMu.Lock()
	defer cc.coordMu.Unlock()
	fn()
}

// Flush is a non-terminal barrier: it returns once every item fed
// before the call has been observed by its site and every message
// those observations sent has been handled by the coordinator. The
// cluster remains usable. Concurrent feeds during a Flush are allowed;
// they may or may not be covered by the barrier. Flush blocks without
// a timer or a spin: the site and coordinator goroutines wake it as
// their counters advance. After Drain it returns at once.
func (cc *ConcurrentCluster[M]) Flush() error {
	cc.waiters.Add(1)
	cc.flushMu.Lock()
	for i := range cc.fed {
		for target := cc.fed[i].Load(); cc.processed[i].Load() < target; {
			cc.flushCond.Wait()
		}
	}
	// Every send from the flushed items is already in upCh (sends happen
	// inside Observe, before the processed counter advances).
	for sent := cc.up.Load(); cc.handled.Load() < sent; {
		cc.flushCond.Wait()
	}
	cc.flushMu.Unlock()
	cc.waiters.Add(-1)
	return cc.Err()
}

// Stats returns a snapshot of the traffic statistics. Safe to call at
// any time; counts may be mid-flight unless a Flush or Drain happened.
func (cc *ConcurrentCluster[M]) Stats() Stats {
	return Stats{
		Upstream:   cc.up.Load(),
		Downstream: cc.down.Load(),
		UpWords:    cc.upWords.Load(),
		DownWords:  cc.downWords.Load(),
	}
}

// Drain closes the inputs, waits for all in-flight messages to be
// processed by the coordinator, and returns the traffic statistics and
// the first site error, if any. Feeding is rejected afterwards; Drain
// is idempotent.
func (cc *ConcurrentCluster[M]) Drain() (Stats, error) {
	cc.drainMu.Lock()
	defer cc.drainMu.Unlock()
	if cc.drained {
		return cc.Stats(), cc.Err()
	}
	cc.feedMu.Lock()
	cc.closed = true
	cc.feedMu.Unlock()
	for _, q := range cc.in {
		q.Close()
	}
	cc.siteWG.Wait()
	close(cc.upCh)
	cc.coordWG.Wait()
	for _, b := range cc.boxes {
		b.Close()
	}
	cc.drained = true
	return cc.Stats(), cc.Err()
}
