package netsim

import (
	"reflect"
	"testing"

	"wrs/internal/stream"
)

// recRelay forwards everything except messages drop returns true for,
// and records the broadcasts it saw on the way down.
type recRelay struct {
	drop func(testMsg) bool
	down []testMsg
}

func (r *recRelay) Up(m testMsg, forward func(testMsg)) {
	if r.drop != nil && r.drop(m) {
		return
	}
	forward(m)
}

func (r *recRelay) Down(m testMsg) { r.down = append(r.down, m) }

func passRelays(drop func(testMsg) bool) func(tier, node int) TreeRelay[testMsg] {
	return func(tier, node int) TreeRelay[testMsg] { return &recRelay{drop: drop} }
}

func TestValidateTree(t *testing.T) {
	for _, tc := range []struct {
		fanout, depth int
		ok            bool
	}{
		{0, 0, true}, {2, 0, true}, {2, 1, true}, {4, 3, true},
		{2, -1, false}, {1, 1, false}, {0, 2, false},
	} {
		err := ValidateTree(tc.fanout, tc.depth)
		if (err == nil) != tc.ok {
			t.Errorf("ValidateTree(%d, %d) = %v, want ok=%v", tc.fanout, tc.depth, err, tc.ok)
		}
	}
}

func TestTreeTierSizes(t *testing.T) {
	for _, tc := range []struct {
		k, fanout, depth int
		want             []int
	}{
		{8, 2, 2, []int{2, 4}},
		{1000, 4, 2, []int{4, 16}},
		{3, 2, 3, []int{2, 3, 3}},
		{10, 2, 0, []int{}},
		{1, 2, 2, []int{1, 1}},
		{3, 1 << 62, 2, []int{3, 3}}, // fanout^2 would overflow
	} {
		got := TreeTierSizes(tc.k, tc.fanout, tc.depth)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("TreeTierSizes(%d, %d, %d) = %v, want %v", tc.k, tc.fanout, tc.depth, got, tc.want)
		}
	}
}

// A pass-through tree must be indistinguishable from the flat cluster:
// same coordinator deliveries in the same order, same stats at the site
// edge, every site seeing every broadcast.
func TestTreeClusterPassthroughMatchesFlat(t *testing.T) {
	const k, n = 6, 240
	feed := func(c *Cluster[testMsg]) {
		for i := 0; i < n; i++ {
			if err := c.Feed(i%k, stream.Item{ID: uint64(i), Weight: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mkSites := func() ([]Site[testMsg], []*echoSite) {
		sites := make([]Site[testMsg], k)
		raw := make([]*echoSite, k)
		for i := range sites {
			raw[i] = &echoSite{id: i}
			sites[i] = raw[i]
		}
		return sites, raw
	}

	flatCoord := &countCoord{n: 10}
	flatSites, _ := mkSites()
	flat := NewCluster[testMsg](flatCoord, flatSites)
	feed(flat)

	for _, shape := range []struct{ fanout, depth int }{{2, 0}, {2, 2}, {3, 1}, {4, 2}} {
		treeCoord := &countCoord{n: 10}
		treeSites, rawSites := mkSites()
		tree, err := NewTreeCluster[testMsg](treeCoord, treeSites, shape.fanout, shape.depth, passRelays(nil))
		if err != nil {
			t.Fatal(err)
		}
		feed(tree)
		if treeCoord.received != flatCoord.received {
			t.Errorf("shape %+v: coordinator received %d, flat %d", shape, treeCoord.received, flatCoord.received)
		}
		if treeCoord.fifoErr {
			t.Errorf("shape %+v: per-site FIFO violated through the tree", shape)
		}
		if tree.Stats != flat.Stats {
			t.Errorf("shape %+v: stats %+v, flat %+v", shape, tree.Stats, flat.Stats)
		}
		if got := tree.RootUpstream(); got != flat.Stats.Upstream {
			t.Errorf("shape %+v: root upstream %d, want %d (nothing filtered)", shape, got, flat.Stats.Upstream)
		}
		wantFan := shape.fanout
		if shape.depth == 0 {
			wantFan = k
		} else if wantFan > k {
			wantFan = k
		}
		if got := tree.RootFanIn(); got != wantFan {
			t.Errorf("shape %+v: root fan-in %d, want %d", shape, got, wantFan)
		}
		for i, s := range rawSites {
			if len(s.broadcasts) != n/10 {
				t.Errorf("shape %+v: site %d saw %d broadcasts, want %d", shape, i, len(s.broadcasts), n/10)
			}
		}
		// Every relay saw every broadcast on the way down.
		for tier := range tree.Relays {
			for node, r := range tree.Relays[tier] {
				if got := len(r.(*recRelay).down); got != n/10 {
					t.Errorf("shape %+v: relay[%d][%d] saw %d broadcasts, want %d", shape, tier, node, got, n/10)
				}
			}
		}
		// Per-tier accounting: nothing filtered, tier in == site sends.
		for tier, st := range tree.TierStats() {
			if st.Filtered() != 0 || st.In != n || st.Forwarded != n {
				t.Errorf("shape %+v tier %d: stats %+v, want in=fwd=%d", shape, tier, st, n)
			}
		}
	}
}

// A filtering relay tier shrinks the root edge but not the site edge,
// and the accounting pins exactly what each tier swallowed.
func TestTreeClusterFilteringAccounting(t *testing.T) {
	const k, n = 4, 100
	coord := &countCoord{n: 1 << 30} // never broadcasts
	sites := make([]Site[testMsg], k)
	for i := range sites {
		sites[i] = &echoSite{id: i}
	}
	// Leaf tier drops odd sequence numbers; upper tier passes through.
	newRelay := func(tier, node int) TreeRelay[testMsg] {
		if tier == 1 {
			return &recRelay{drop: func(m testMsg) bool { return m.Seq%2 == 1 }}
		}
		return &recRelay{}
	}
	tree, err := NewTreeCluster[testMsg](coord, sites, 2, 2, newRelay)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tree.Feed(i%k, stream.Item{ID: uint64(i), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Each site emits seqs 1..25; 13 odd, 12 even per site.
	wantFwd := int64(k * 12)
	if tree.Stats.Upstream != n {
		t.Errorf("site edge %d, want %d (filtering must not touch it)", tree.Stats.Upstream, n)
	}
	if got := tree.RootUpstream(); got != wantFwd {
		t.Errorf("root edge %d, want %d", got, wantFwd)
	}
	if coord.received != int(wantFwd) {
		t.Errorf("coordinator received %d, want %d", coord.received, wantFwd)
	}
	ts := tree.TierStats()
	if ts[1].In != n || ts[1].Forwarded != wantFwd || ts[1].Filtered() != n-wantFwd {
		t.Errorf("leaf tier stats %+v, want in=%d fwd=%d", ts[1], n, wantFwd)
	}
	if ts[0].In != wantFwd || ts[0].Filtered() != 0 {
		t.Errorf("root tier stats %+v, want in=%d filtered=0", ts[0], wantFwd)
	}
}

func TestTreeClusterErrors(t *testing.T) {
	coord := &countCoord{n: 10}
	sites := []Site[testMsg]{&echoSite{id: 0}}
	if _, err := NewTreeCluster[testMsg](coord, sites, 1, 2, passRelays(nil)); err == nil {
		t.Error("fanout 1 accepted")
	}
	if _, err := NewTreeCluster[testMsg](coord, nil, 2, 1, passRelays(nil)); err == nil {
		t.Error("no sites accepted")
	}
	tree, err := NewTreeCluster[testMsg](coord, sites, 2, 1, passRelays(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Feed(1, stream.Item{ID: 1, Weight: 1}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if err := tree.FeedBatch(-1, nil); err == nil {
		t.Error("negative site accepted")
	}
}

// quietSite, quietCoord and quietRelay are non-allocating fakes for the
// allocation pins: the site sends one message per arrival, the
// coordinator broadcasts every nth message, the relay forwards all.
type quietSite struct{ id, seq, bcasts int }

func (s *quietSite) Observe(_ stream.Item, send func(testMsg)) error {
	s.seq++
	send(testMsg{From: s.id, Seq: s.seq})
	return nil
}

func (s *quietSite) HandleBroadcast(testMsg) { s.bcasts++ }

type quietCoord struct{ n, received int }

func (c *quietCoord) HandleMessage(_ testMsg, bcast func(testMsg)) {
	c.received++
	if c.received%c.n == 0 {
		bcast(testMsg{Down: true, Seq: c.received})
	}
}

type quietRelay struct{ downs int }

func (r *quietRelay) Up(m testMsg, forward func(testMsg)) { forward(m) }
func (r *quietRelay) Down(testMsg)                        { r.downs++ }

func quietSites(k int) []Site[testMsg] {
	sites := make([]Site[testMsg], k)
	for i := range sites {
		sites[i] = &quietSite{id: i}
	}
	return sites
}

var clusterSink *Cluster[testMsg]

// The sequential runtime builds a flat cluster per Open and moves every
// message through it, so both are pinned: a flat build is three
// allocations (the cluster and its two entry points, never one per
// site), and delivery — up the tree, through the coordinator, and
// broadcast back down — allocates nothing.
func TestClusterAllocations(t *testing.T) {
	const k = 64
	sites := quietSites(k)
	coord := &quietCoord{n: 3}
	if got := testing.AllocsPerRun(100, func() { clusterSink = NewCluster[testMsg](coord, sites) }); got != 3 {
		t.Errorf("flat build at k=%d: %v allocations, want 3", k, got)
	}
	tree, err := NewTreeCluster[testMsg](coord, quietSites(k), 2, 2,
		func(int, int) TreeRelay[testMsg] { return &quietRelay{} })
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cluster[testMsg]{NewCluster[testMsg](coord, sites), tree} {
		i := 0
		got := testing.AllocsPerRun(1000, func() {
			if err := c.Feed(i%k, stream.Item{ID: uint64(i), Weight: 1}); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got != 0 {
			t.Errorf("depth %d: %v allocations per message, want 0", c.Depth(), got)
		}
	}
	if coord.received == 0 || sites[0].(*quietSite).bcasts == 0 {
		t.Fatal("the fakes exchanged no traffic")
	}
}

// A link that queues every hop and delivers it later must see the hops
// in the documented order — up through the site's leaf and that leaf's
// ancestors; a broadcast to the root's children, then each arriving
// relay's children in ascending order — and, drained FIFO, must leave
// the machines exactly where inline delivery leaves them.
func TestClusterLinkSeam(t *testing.T) {
	const k = 5 // tiers of 2 and 4 relays
	build := func() (*Cluster[testMsg], *countCoord) {
		coord := &countCoord{n: 1}
		c, err := NewTreeCluster[testMsg](coord, quietSites(k), 2, 2, passRelays(nil))
		if err != nil {
			t.Fatal(err)
		}
		return c, coord
	}
	inline, inlineCoord := build()
	linked, linkedCoord := build()
	type sent struct {
		h Hop
		m testMsg
	}
	var queue []sent
	var hops []Hop
	linked.Link = func(h Hop, m testMsg) {
		hops = append(hops, h)
		queue = append(queue, sent{h, m})
	}
	for _, c := range []*Cluster[testMsg]{inline, linked} {
		if err := c.Feed(3, stream.Item{ID: 1, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for len(queue) > 0 {
		next := queue[0]
		queue = queue[1:]
		linked.Arrive(next.h, next.m)
	}
	up := func(t, n int) Hop { return Hop{Up: true, Tier: t, Node: n} }
	down := func(t, n int) Hop { return Hop{Tier: t, Node: n} }
	want := []Hop{
		up(2, 3), up(1, 3), up(0, 1), // site 3 -> leaf 3 -> relay 1 -> coordinator
		down(0, 0), down(0, 1), // the root's children
		down(1, 0), down(1, 2), // relay (0,0)'s children
		down(1, 1), down(1, 3), // relay (0,1)'s children
		down(2, 0), down(2, 4), down(2, 2), down(2, 1), down(2, 3), // each leaf's sites
	}
	if !reflect.DeepEqual(hops, want) {
		t.Errorf("hops\n%v\nwant\n%v", hops, want)
	}
	if linkedCoord.received != inlineCoord.received || linked.Stats != inline.Stats {
		t.Errorf("linked run: received %d stats %+v; inline: received %d stats %+v",
			linkedCoord.received, linked.Stats, inlineCoord.received, inline.Stats)
	}
	for i := range linked.Sites {
		if l, in := linked.Sites[i].(*quietSite).bcasts, inline.Sites[i].(*quietSite).bcasts; l != 1 || in != 1 {
			t.Errorf("site %d saw %d broadcasts linked, %d inline; want 1", i, l, in)
		}
	}
}
