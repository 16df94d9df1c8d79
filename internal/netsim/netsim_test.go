package netsim

import (
	"errors"
	"sync"
	"testing"

	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// testMsg is a minimal message for runtime tests.
type testMsg struct {
	From int
	Seq  int
	Down bool
}

func (testMsg) Words() int { return 2 }

// errBadWeight is what echoSite returns for a negative weight.
var errBadWeight = errors.New("bad weight")

// echoSite sends one message per observed item and records broadcasts.
type echoSite struct {
	id         int
	seq        int
	broadcasts []testMsg
	mu         sync.Mutex
}

func (s *echoSite) Observe(it stream.Item, send func(testMsg)) error {
	if it.Weight < 0 {
		return errBadWeight
	}
	s.seq++
	send(testMsg{From: s.id, Seq: s.seq})
	return nil
}

func (s *echoSite) HandleBroadcast(m testMsg) {
	s.mu.Lock()
	s.broadcasts = append(s.broadcasts, m)
	s.mu.Unlock()
}

// countCoord broadcasts every nth message and checks FIFO per site.
type countCoord struct {
	n        int
	received int
	lastSeq  map[int]int
	fifoErr  bool
	mu       sync.Mutex
}

func (c *countCoord) HandleMessage(m testMsg, bcast func(testMsg)) {
	c.mu.Lock()
	c.received++
	if c.lastSeq == nil {
		c.lastSeq = map[int]int{}
	}
	if m.Seq <= c.lastSeq[m.From] {
		c.fifoErr = true
	}
	c.lastSeq[m.From] = m.Seq
	doBcast := c.received%c.n == 0
	c.mu.Unlock()
	if doBcast {
		bcast(testMsg{Down: true, Seq: c.received})
	}
}

func TestClusterAccounting(t *testing.T) {
	coord := &countCoord{n: 10}
	sites := make([]Site[testMsg], 4)
	rawSites := make([]*echoSite, 4)
	for i := range sites {
		rawSites[i] = &echoSite{id: i}
		sites[i] = rawSites[i]
	}
	cl := NewCluster[testMsg](coord, sites)
	const n = 100
	for i := 0; i < n; i++ {
		if err := cl.Feed(i%4, stream.Item{ID: uint64(i), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if cl.Stats.Upstream != n {
		t.Errorf("upstream = %d, want %d", cl.Stats.Upstream, n)
	}
	wantDown := int64(n / 10 * 4) // 10 broadcasts x 4 sites
	if cl.Stats.Downstream != wantDown {
		t.Errorf("downstream = %d, want %d", cl.Stats.Downstream, wantDown)
	}
	if cl.Stats.UpWords != 2*n {
		t.Errorf("upwords = %d, want %d", cl.Stats.UpWords, 2*n)
	}
	if cl.Stats.Total() != cl.Stats.Upstream+cl.Stats.Downstream {
		t.Error("Total mismatch")
	}
	if coord.fifoErr {
		t.Error("FIFO violated in sequential cluster")
	}
	// Every site saw every broadcast.
	for i, s := range rawSites {
		if len(s.broadcasts) != n/10 {
			t.Errorf("site %d saw %d broadcasts, want %d", i, len(s.broadcasts), n/10)
		}
	}
}

func TestClusterFeedErrors(t *testing.T) {
	coord := &countCoord{n: 1000}
	sites := []Site[testMsg]{&echoSite{id: 0}}
	cl := NewCluster[testMsg](coord, sites)
	if err := cl.Feed(2, stream.Item{}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if err := cl.Feed(0, stream.Item{Weight: -1}); err == nil {
		t.Error("site error not propagated")
	}
	if err := cl.FeedRepeated(9, stream.Item{Weight: 1}, 2); err == nil {
		t.Error("FeedRepeated out-of-range site accepted")
	}
}

func TestClusterFeedRepeatedFallback(t *testing.T) {
	// echoSite does not implement RepeatSite: FeedRepeated must loop.
	coord := &countCoord{n: 1000}
	sites := []Site[testMsg]{&echoSite{id: 0}}
	cl := NewCluster[testMsg](coord, sites)
	if err := cl.FeedRepeated(0, stream.Item{Weight: 1}, 7); err != nil {
		t.Fatal(err)
	}
	if cl.Stats.Upstream != 7 {
		t.Errorf("upstream = %d, want 7", cl.Stats.Upstream)
	}
}

func TestClusterRunGenerator(t *testing.T) {
	coord := &countCoord{n: 50}
	sites := make([]Site[testMsg], 3)
	for i := range sites {
		sites[i] = &echoSite{id: i}
	}
	cl := NewCluster[testMsg](coord, sites)
	g := stream.NewGenerator(500, 3, stream.UnitWeights(), stream.RoundRobin(3))
	if err := cl.Run(g, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	if coord.received != 500 {
		t.Errorf("coordinator received %d, want 500", coord.received)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Upstream: 1, Downstream: 2, UpWords: 3, DownWords: 4}
	b := Stats{Upstream: 10, Downstream: 20, UpWords: 30, DownWords: 40}
	a.Add(b)
	if a.Upstream != 11 || a.Downstream != 22 || a.UpWords != 33 || a.DownWords != 44 {
		t.Errorf("Add broken: %+v", a)
	}
	if a.TotalWords() != 77 {
		t.Errorf("TotalWords = %d", a.TotalWords())
	}
}

func TestMailboxFIFO(t *testing.T) {
	m := NewMailbox[int]()
	for i := 0; i < 100; i++ {
		m.Put(i)
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := m.TryGet()
		if !ok || v != i {
			t.Fatalf("TryGet = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := m.TryGet(); ok {
		t.Fatal("TryGet on empty returned ok")
	}
}

func TestMailboxBlockingGet(t *testing.T) {
	m := NewMailbox[int]()
	done := make(chan int)
	go func() {
		v, _ := m.Get()
		done <- v
	}()
	m.Put(42)
	if v := <-done; v != 42 {
		t.Fatalf("Get = %d", v)
	}
}

func TestMailboxCloseDrains(t *testing.T) {
	m := NewMailbox[int]()
	m.Put(1)
	m.Close()
	if v, ok := m.Get(); !ok || v != 1 {
		t.Fatalf("Get after close = (%d, %v)", v, ok)
	}
	if _, ok := m.Get(); ok {
		t.Fatal("Get on closed empty mailbox returned ok")
	}
}

func TestMailboxPutAfterClosePanics(t *testing.T) {
	m := NewMailbox[int]()
	m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Put after Close did not panic")
		}
	}()
	m.Put(1)
}

func TestMailboxTryPut(t *testing.T) {
	m := NewMailbox[int]()
	if !m.TryPut(1) {
		t.Fatal("TryPut on open mailbox refused")
	}
	m.Close()
	if m.TryPut(2) {
		t.Fatal("TryPut on closed mailbox accepted")
	}
	if v, ok := m.Get(); !ok || v != 1 {
		t.Fatalf("Get after close = (%d, %v), want the pre-close value", v, ok)
	}
}

func TestMailboxConcurrent(t *testing.T) {
	m := NewMailbox[int]()
	const producers, perProducer = 8, 1000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				m.Put(i)
			}
		}()
	}
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			_, ok := m.Get()
			if !ok {
				return
			}
			got++
		}
	}()
	wg.Wait()
	m.Close()
	<-done
	if got != producers*perProducer {
		t.Fatalf("consumed %d, want %d", got, producers*perProducer)
	}
}

func TestConcurrentClusterDeliversEverything(t *testing.T) {
	coord := &countCoord{n: 25}
	sites := make([]Site[testMsg], 6)
	rawSites := make([]*echoSite, 6)
	for i := range sites {
		rawSites[i] = &echoSite{id: i}
		sites[i] = rawSites[i]
	}
	cc := NewConcurrentCluster[testMsg](coord, sites)
	cc.Start()
	const n = 3000
	for i := 0; i < n; i++ {
		cc.Feed(i%6, stream.Item{ID: uint64(i), Weight: 1})
	}
	stats, err := cc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if coord.received != n {
		t.Errorf("coordinator received %d, want %d", coord.received, n)
	}
	if stats.Upstream != n {
		t.Errorf("upstream = %d, want %d", stats.Upstream, n)
	}
	if coord.fifoErr {
		t.Error("per-site FIFO violated in concurrent cluster")
	}
	wantDown := int64(n / 25 * 6)
	if stats.Downstream != wantDown {
		t.Errorf("downstream = %d, want %d", stats.Downstream, wantDown)
	}
}

func TestConcurrentClusterPropagatesError(t *testing.T) {
	coord := &countCoord{n: 1000}
	sites := []Site[testMsg]{&echoSite{id: 0}}
	cc := NewConcurrentCluster[testMsg](coord, sites)
	cc.Start()
	cc.Feed(0, stream.Item{Weight: -1})
	_, err := cc.Drain()
	if err == nil {
		t.Fatal("site error not propagated")
	}
}

func TestClusterAccessors(t *testing.T) {
	coord := &countCoord{n: 10}
	sites := []Site[testMsg]{&echoSite{id: 0}, &echoSite{id: 1}}
	cl := NewCluster[testMsg](coord, sites)
	if cl.K() != 2 {
		t.Errorf("K = %d", cl.K())
	}
}

func TestClusterRunStream(t *testing.T) {
	coord := &countCoord{n: 100}
	sites := []Site[testMsg]{&echoSite{id: 0}, &echoSite{id: 1}}
	cl := NewCluster[testMsg](coord, sites)
	s := &stream.Stream{K: 2}
	for i := 0; i < 20; i++ {
		s.Updates = append(s.Updates, stream.Update{Pos: i, Site: i % 2,
			Item: stream.Item{ID: uint64(i), Weight: 1}})
	}
	if err := cl.RunStream(s); err != nil {
		t.Fatal(err)
	}
	if coord.received != 20 {
		t.Errorf("received %d", coord.received)
	}
	// Error propagation.
	bad := &stream.Stream{K: 2, Updates: []stream.Update{
		{Pos: 0, Site: 0, Item: stream.Item{Weight: -1}}}}
	if err := cl.RunStream(bad); err == nil {
		t.Error("RunStream swallowed site error")
	}
}

// repeatSite implements RepeatSite for FeedRepeated coverage.
type repeatSite struct {
	echoSite
	batched int
}

func (s *repeatSite) ObserveRepeated(it stream.Item, count int, send func(testMsg)) error {
	s.batched += count
	for i := 0; i < count; i++ {
		send(testMsg{From: s.id, Seq: s.seq + i + 1})
	}
	s.seq += count
	return nil
}

func TestClusterFeedRepeatedUsesBatchedPath(t *testing.T) {
	coord := &countCoord{n: 1000}
	rs := &repeatSite{}
	cl := NewCluster[testMsg](coord, []Site[testMsg]{rs})
	if err := cl.FeedRepeated(0, stream.Item{Weight: 1}, 9); err != nil {
		t.Fatal(err)
	}
	if rs.batched != 9 {
		t.Errorf("batched path not used: %d", rs.batched)
	}
	if cl.Stats.Upstream != 9 {
		t.Errorf("upstream = %d", cl.Stats.Upstream)
	}
}
