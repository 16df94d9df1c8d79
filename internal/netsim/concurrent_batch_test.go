package netsim

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wrs/internal/stream"
)

func TestBatchQueueFIFOAndBatching(t *testing.T) {
	q := NewBatchQueue[int](4)
	q.Put(1)
	q.PutBatch([]int{2, 3, 4, 5, 6}) // one operation, admitted whole
	got, ok := q.GetAll(nil)
	if !ok {
		t.Fatal("GetAll on non-empty queue reported closed")
	}
	want := []int{1, 2, 3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("GetAll returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GetAll returned %v, want %v", got, want)
		}
	}
	q.Close()
	if _, ok := q.GetAll(nil); ok {
		t.Error("GetAll on closed empty queue reported a value")
	}
}

func TestBatchQueueBlocksWhenFull(t *testing.T) {
	q := NewBatchQueue[int](2)
	q.PutBatch([]int{1, 2})
	done := make(chan struct{})
	go func() {
		q.Put(3) // must block until a GetAll makes room
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Put on a full queue did not block")
	default:
	}
	if got, _ := q.GetAll(nil); len(got) != 2 {
		t.Fatalf("GetAll returned %d items, want 2", len(got))
	}
	<-done
	if got, _ := q.GetAll(nil); len(got) != 1 || got[0] != 3 {
		t.Fatalf("GetAll returned %v, want [3]", got)
	}
}

func TestBatchQueueCloseDrains(t *testing.T) {
	q := NewBatchQueue[int](8)
	q.PutBatch([]int{7, 8})
	q.Close()
	got, ok := q.GetAll(nil)
	if !ok || len(got) != 2 {
		t.Fatalf("queued values lost on close: %v, ok=%v", got, ok)
	}
}

func TestConcurrentFeedBatchDeliversInOrder(t *testing.T) {
	coord := &countCoord{n: 25}
	sites := make([]Site[testMsg], 4)
	for i := range sites {
		sites[i] = &echoSite{id: i}
	}
	cc := NewConcurrentCluster[testMsg](coord, sites)
	cc.Start()
	const n, chunk = 4000, 97
	batch := make([]stream.Item, 0, chunk)
	fed := 0
	for fed < n {
		site := (fed / chunk) % 4
		batch = batch[:0]
		for j := 0; j < chunk && fed < n; j++ {
			batch = append(batch, stream.Item{ID: uint64(fed), Weight: 1})
			fed++
		}
		if err := cc.FeedBatch(site, batch); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if coord.received != n {
		t.Errorf("coordinator received %d, want %d", coord.received, n)
	}
	if coord.fifoErr {
		t.Error("per-site FIFO violated by batched enqueue")
	}
	if stats.Upstream != n {
		t.Errorf("upstream = %d, want %d", stats.Upstream, n)
	}
}

func TestConcurrentFeedAfterDrainErrors(t *testing.T) {
	coord := &countCoord{n: 100}
	cc := NewConcurrentCluster[testMsg](coord, []Site[testMsg]{&echoSite{id: 0}})
	cc.Start()
	if err := cc.Feed(0, stream.Item{ID: 1, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Drain(); err != nil {
		t.Fatal(err)
	}
	// Used to panic on the closed input channel.
	if err := cc.Feed(0, stream.Item{ID: 2, Weight: 1}); err == nil {
		t.Error("Feed after Drain succeeded")
	}
	if err := cc.FeedBatch(0, []stream.Item{{ID: 3, Weight: 1}}); err == nil {
		t.Error("FeedBatch after Drain succeeded")
	}
	// Drain stays idempotent.
	if _, err := cc.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentFeedSiteRange(t *testing.T) {
	coord := &countCoord{n: 100}
	cc := NewConcurrentCluster[testMsg](coord, []Site[testMsg]{&echoSite{id: 0}})
	cc.Start()
	defer cc.Drain()
	if err := cc.Feed(1, stream.Item{ID: 1, Weight: 1}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if err := cc.FeedBatch(-1, []stream.Item{{ID: 1, Weight: 1}}); err == nil {
		t.Error("negative site accepted")
	}
}

func TestConcurrentFlushBarrier(t *testing.T) {
	coord := &countCoord{n: 1 << 30} // never broadcasts
	sites := make([]Site[testMsg], 3)
	for i := range sites {
		sites[i] = &echoSite{id: i}
	}
	cc := NewConcurrentCluster[testMsg](coord, sites)
	cc.Start()
	const rounds, perRound = 5, 700
	total := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			if err := cc.Feed(i%3, stream.Item{ID: uint64(total + i), Weight: 1}); err != nil {
				t.Fatal(err)
			}
		}
		total += perRound
		if err := cc.Flush(); err != nil {
			t.Fatal(err)
		}
		got := 0
		cc.Do(func() { got = coord.received })
		if got != total {
			t.Fatalf("after flush %d: coordinator received %d, want %d", r, got, total)
		}
	}
	if _, err := cc.Drain(); err != nil {
		t.Fatal(err)
	}
}

// within runs fn on its own goroutine and fails the test if fn has not
// returned after a generous bound: a barrier that misses a wake-up
// would otherwise hang the suite instead of failing it.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// siteCountCoord counts the messages it handles per sending site and
// broadcasts every 50th, so site mailboxes carry traffic too. Read got
// under Do.
type siteCountCoord struct{ got []int }

func (c *siteCountCoord) HandleMessage(m testMsg, bcast func(testMsg)) {
	c.got[m.From]++
	if c.got[m.From]%50 == 0 {
		bcast(testMsg{Down: true})
	}
}

// Several feeders each own one site and alternate FeedBatch and Flush.
// Every Flush must cover everything its own goroutine fed, whatever
// the other feeders and flushers are doing at the same time.
func TestConcurrentFlushConcurrentFeeders(t *testing.T) {
	const k, rounds, chunk = 4, 60, 37
	coord := &siteCountCoord{got: make([]int, k)}
	sites := make([]Site[testMsg], k)
	for i := range sites {
		sites[i] = &echoSite{id: i}
	}
	cc := NewConcurrentCluster[testMsg](coord, sites)
	cc.Start()
	errs := make(chan error, k)
	var wg sync.WaitGroup
	for id := 0; id < k; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			batch := make([]stream.Item, chunk)
			for i := range batch {
				batch[i] = stream.Item{ID: uint64(id*chunk + i), Weight: 1}
			}
			fed := 0
			for r := 0; r < rounds; r++ {
				if err := cc.FeedBatch(id, batch[:1+r%chunk]); err != nil {
					errs <- err
					return
				}
				fed += 1 + r%chunk
				if err := cc.Flush(); err != nil {
					errs <- err
					return
				}
				got := 0
				cc.Do(func() { got = coord.got[id] })
				if got != fed {
					errs <- fmt.Errorf("site %d, round %d: coordinator handled %d of its messages after Flush, want %d", id, r, got, fed)
					return
				}
			}
		}(id)
	}
	if err := within(t, "concurrent feeders", func() error { wg.Wait(); return nil }); err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := cc.Drain(); err != nil {
		t.Fatal(err)
	}
}

// A Flush racing Drain returns once the drain has consumed everything,
// and a Flush after Drain returns at once: every counter is final.
func TestConcurrentFlushAndDrain(t *testing.T) {
	coord := &countCoord{n: 1 << 30}
	sites := make([]Site[testMsg], 3)
	for i := range sites {
		sites[i] = &echoSite{id: i}
	}
	cc := NewConcurrentCluster[testMsg](coord, sites)
	cc.Start()
	batch := make([]stream.Item, 500)
	for i := range batch {
		batch[i] = stream.Item{ID: uint64(i), Weight: 1}
	}
	for i := range sites {
		if err := cc.FeedBatch(i, batch); err != nil {
			t.Fatal(err)
		}
	}
	err := within(t, "Flush racing Drain", func() error {
		flushed := make(chan error, 1)
		go func() { flushed <- cc.Flush() }()
		if _, err := cc.Drain(); err != nil {
			return err
		}
		return <-flushed
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := within(t, "Flush after Drain", cc.Flush); err != nil {
		t.Fatal(err)
	}
	if coord.received != 3*len(batch) {
		t.Errorf("coordinator received %d, want %d", coord.received, 3*len(batch))
	}
}

// A site whose Observe fails still consumes its input, so Flush returns
// the error instead of waiting forever for the failed item, and keeps
// returning it on later barriers.
func TestConcurrentFlushReturnsSiteError(t *testing.T) {
	coord := &countCoord{n: 1 << 30}
	cc := NewConcurrentCluster[testMsg](coord, []Site[testMsg]{&echoSite{id: 0}, &echoSite{id: 1}})
	cc.Start()
	defer cc.Drain()
	if err := cc.FeedBatch(0, []stream.Item{{ID: 1, Weight: 1}, {ID: 2, Weight: -1}, {ID: 3, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := cc.Feed(1, stream.Item{ID: 4, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := within(t, "Flush after a site error", cc.Flush); !errors.Is(err, errBadWeight) {
		t.Fatalf("Flush returned %v, want %v", err, errBadWeight)
	}
	if err := cc.Feed(0, stream.Item{ID: 5, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := within(t, "second Flush", cc.Flush); !errors.Is(err, errBadWeight) {
		t.Fatalf("second Flush returned %v, want %v", err, errBadWeight)
	}
	got := 0
	cc.Do(func() { got = coord.received })
	if got != 4 {
		t.Errorf("coordinator received %d, want the 4 valid items", got)
	}
}

// nullSite never sends, isolating queue overhead for the benchmarks.
type nullSite struct{ seen int64 }

func (s *nullSite) Observe(it stream.Item, send func(testMsg)) error {
	s.seen++
	return nil
}
func (s *nullSite) HandleBroadcast(testMsg) {}

func benchCluster(k int) (*ConcurrentCluster[testMsg], []*nullSite) {
	coord := &countCoord{n: 1 << 30}
	raw := make([]*nullSite, k)
	sites := make([]Site[testMsg], k)
	for i := range sites {
		raw[i] = &nullSite{}
		sites[i] = raw[i]
	}
	cc := NewConcurrentCluster[testMsg](coord, sites)
	cc.Start()
	return cc, raw
}

// BenchmarkConcurrentFeed is the per-item enqueue path — the "before"
// of the batched-FeedBatch change (FeedBatch used to be this loop).
func BenchmarkConcurrentFeed(b *testing.B) {
	cc, _ := benchCluster(4)
	it := stream.Item{ID: 1, Weight: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cc.Feed(i%4, it); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cc.Drain()
}

// BenchmarkConcurrentFeedBatch is the batched enqueue: one queue
// operation per 256-item batch.
func BenchmarkConcurrentFeedBatch(b *testing.B) {
	cc, _ := benchCluster(4)
	const chunk = 256
	batch := make([]stream.Item, chunk)
	for i := range batch {
		batch[i] = stream.Item{ID: uint64(i), Weight: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	fed := 0
	for i := 0; fed < b.N; i++ {
		n := chunk
		if b.N-fed < n {
			n = b.N - fed
		}
		if err := cc.FeedBatch(i%4, batch[:n]); err != nil {
			b.Fatal(err)
		}
		fed += n
	}
	b.StopTimer()
	cc.Drain()
}

// BenchmarkConcurrentFlush times the barrier: one 256-item batch per
// site, then Flush, so each op waits for four sites to drain a fresh
// backlog.
func BenchmarkConcurrentFlush(b *testing.B) {
	const k = 4
	cc, _ := benchCluster(k)
	batch := make([]stream.Item, 256)
	for i := range batch {
		batch[i] = stream.Item{ID: uint64(i), Weight: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for site := 0; site < k; site++ {
			if err := cc.FeedBatch(site, batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := cc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cc.Drain()
}
