package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"wrs/internal/core"
	"wrs/internal/netsim"
	"wrs/internal/stream"
)

// Cluster is the deployment-shaped runtime for one protocol instance —
// or for a fabric of P shard instances: a CoordinatorServer hosting all
// shards on a real address and one SiteClient per site, each over its
// own TCP connection carrying every shard's traffic (shard-tagged
// frames; connection count stays k, not P×k). It exposes the same
// driving surface as the netsim clusters (Feed, FeedBatch, Flush,
// Stats) plus per-shard access (Shards, DoShard), so the applications —
// plain SWOR, heavy hitters, L1 tracking — run over real connections
// unchanged, sharded or not.
//
// Feed/FeedBatch for different sites may be called from different
// goroutines (one feeder per site is the intended deployment shape);
// calls for the same site must not be concurrent, matching SiteClient.
type Cluster struct {
	cfg      core.Config
	shards   int
	srv      *CoordinatorServer
	ln       net.Listener
	clients  []*SiteClient
	teardown func() error // the aggregation tier's, or nil
}

// NewCluster starts one coordinator server on addr ("127.0.0.1:0"
// when empty) hosting len(protos) protocol shards, and connects one
// multiplexing SiteClient per site. machines is indexed [shard][site]:
// machines[p][i] is site i's state machine for shard p.
//
// tier attaches the sites through an aggregation tier (package relay)
// instead of straight to the server; nil dials the server directly.
// tier has the shape of IngestBenchOpts.TreeDial: it receives the
// server address, builds the tier, and returns site i's dial address
// plus a teardown, which Close runs after closing the sites and before
// closing the server. On error everything already started is torn
// down.
func NewCluster(cfg core.Config, protos []Coordinator, machines [][]netsim.Site[core.Message], addr string, tier func(serverAddr string) (dialAddr func(site int) string, teardown func() error, err error)) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(machines) != len(protos) {
		return nil, fmt.Errorf("transport: %d shard site slices for %d shard coordinators", len(machines), len(protos))
	}
	for p := range machines {
		if len(machines[p]) != cfg.K {
			return nil, fmt.Errorf("transport: shard %d has %d site machines for k=%d", p, len(machines[p]), cfg.K)
		}
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv, err := NewShardedCoordinatorServer(cfg, protos)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	c := &Cluster{cfg: cfg, shards: len(protos), srv: srv, ln: ln, clients: make([]*SiteClient, cfg.K)}
	dialAddr := func(int) string { return ln.Addr().String() }
	if tier != nil {
		if dialAddr, c.teardown, err = tier(ln.Addr().String()); err != nil {
			c.Close()
			return nil, err
		}
	}
	for i := 0; i < cfg.K; i++ {
		perSite := make([]netsim.Site[core.Message], len(protos))
		for p := range protos {
			perSite[p] = machines[p][i]
		}
		conn, err := net.Dial("tcp", dialAddr(i))
		if err != nil {
			c.Close()
			return nil, err
		}
		cl, err := NewShardedSiteClient(conn, perSite, cfg)
		if err != nil {
			conn.Close()
			c.Close()
			return nil, err
		}
		c.clients[i] = cl
	}
	return c, nil
}

// Addr returns the coordinator's listen address.
func (c *Cluster) Addr() string { return c.ln.Addr().String() }

// Server returns the coordinator server (diagnostics and queries).
func (c *Cluster) Server() *CoordinatorServer { return c.srv }

// Client returns the site client for siteID (diagnostics).
func (c *Cluster) Client(siteID int) *SiteClient { return c.clients[siteID] }

// Shards returns the number of protocol shards the cluster runs.
func (c *Cluster) Shards() int { return c.shards }

func (c *Cluster) checkSite(siteID int) error {
	if siteID < 0 || siteID >= len(c.clients) {
		return fmt.Errorf("transport: site %d out of range [0,%d)", siteID, len(c.clients))
	}
	return nil
}

// Feed delivers one arrival to a site over its connection; the site
// client routes it to the item's shard (fabric.ShardOf).
func (c *Cluster) Feed(siteID int, it stream.Item) error {
	if err := c.checkSite(siteID); err != nil {
		return err
	}
	return c.clients[siteID].Observe(it)
}

// FeedBatch delivers a slice of arrivals to a site, coalesced into
// per-shard multi-message frames (the high-throughput path).
func (c *Cluster) FeedBatch(siteID int, items []stream.Item) error {
	if err := c.checkSite(siteID); err != nil {
		return err
	}
	return c.clients[siteID].ObserveBatch(items)
}

// Flush round-trips every connection: when it returns, the coordinator
// has processed every message fed so far — all shards share each
// connection's FIFO — and each site has applied every broadcast that
// processing triggered. The round-trips run concurrently, so the cost
// is one RTT, not k.
func (c *Cluster) Flush() error {
	errs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	for i, cl := range c.clients {
		wg.Add(1)
		go func(i int, cl *SiteClient) {
			defer wg.Done()
			errs[i] = cl.Flush()
		}(i, cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Do runs fn while holding every shard's ingest lock.
func (c *Cluster) Do(fn func()) { c.srv.Do(fn) }

// DoShard runs fn while holding only shard p's ingest lock, leaving
// the other shards' ingest unstalled.
func (c *Cluster) DoShard(p int, fn func()) { c.srv.DoShard(p, fn) }

// Stats returns cumulative protocol traffic in the paper's accounting:
// upstream counts messages whose bytes reached a connection, downstream
// counts per-site broadcast deliveries (snapshot frames included).
// Ping/pong control frames and shard tags are excluded; see
// SiteClient.FlowPings.
func (c *Cluster) Stats() netsim.Stats {
	var s netsim.Stats
	for _, cl := range c.clients {
		if cl == nil {
			continue
		}
		s.Upstream += cl.Sent()
		s.UpWords += cl.SentWords()
	}
	s.Downstream = c.srv.BroadcastsSent()
	s.DownWords = c.srv.BroadcastWords()
	return s
}

// Close tears down every site connection, then the aggregation tier if
// there is one, then the server. It does not flush; call Flush first
// for a graceful shutdown with delivery guaranteed.
func (c *Cluster) Close() error {
	var errs []error
	for _, cl := range c.clients {
		if cl == nil {
			continue
		}
		if err := cl.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if c.teardown != nil {
		if err := c.teardown(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := c.srv.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
