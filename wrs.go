package wrs

import (
	"fmt"
	"unsafe"

	"wrs/internal/netsim"
	rt "wrs/internal/runtime"
	"wrs/internal/stream"
)

// Item is a weighted stream update: an application identifier and a
// positive, finite weight. The same ID may occur many times; each
// occurrence is sampled as a distinct element, exactly as in the paper.
type Item struct {
	ID     uint64
	Weight float64
}

func (it Item) internal() stream.Item { return stream.Item{ID: it.ID, Weight: it.Weight} }

func fromInternal(it stream.Item) Item { return Item{ID: it.ID, Weight: it.Weight} }

// Item and stream.Item must keep the same fields: this conversion
// compiles only while they do, and toInternal relies on it.
var _ = stream.Item(Item{})

// toInternal reinterprets a batch as the internal item type without
// copying it. The two structs have one layout, and no runtime keeps or
// writes a batch after its FeedBatch returns (runtime.Runtime), so the
// caller may reuse the slice as soon as the call that passed it returns.
func toInternal(items []Item) []stream.Item {
	return unsafe.Slice((*stream.Item)(unsafe.SliceData(items)), len(items))
}

// Sampled is a sampled item together with its precision-sampling key
// (v = w/t, t ~ Exp(1)); larger keys rank higher.
type Sampled struct {
	Item Item
	Key  float64
}

// Stats reports network traffic. Broadcasts count k messages, matching
// the paper's accounting.
type Stats struct {
	Upstream   int64 // site -> coordinator messages
	Downstream int64 // coordinator -> site messages
	UpWords    int64 // machine words, site -> coordinator
	DownWords  int64 // machine words, coordinator -> site
}

// Total returns the total number of messages.
func (s Stats) Total() int64 { return s.Upstream + s.Downstream }

func fromNetsim(s netsim.Stats) Stats {
	return Stats{Upstream: s.Upstream, Downstream: s.Downstream, UpWords: s.UpWords, DownWords: s.DownWords}
}

// RuntimeSpec selects the runtime that drives an application: the
// protocol state machines are transport-agnostic, so the same
// application runs on the deterministic simulator, the goroutine
// cluster, or real TCP connections. The zero value means Sequential.
type RuntimeSpec struct {
	name    string
	factory rt.Factory // nil: Sequential
}

// String returns the runtime's name ("sequential" for the zero value).
func (r RuntimeSpec) String() string {
	if r.name == "" {
		return "sequential"
	}
	return r.name
}

// Sequential is the default runtime: the deterministic synchronous
// simulator analyzed in the paper — a broadcast reaches every site
// before the next arrival, replayable under a fixed seed. Observe
// delivers messages inline; use it from one goroutine.
func Sequential() RuntimeSpec {
	return RuntimeSpec{name: "sequential", factory: rt.Sequential()}
}

// Goroutines is the in-process asynchronous runtime: one goroutine per
// site plus one for the coordinator, FIFO links both ways. Observe
// enqueues and returns; invalid weights surface at Flush or Close.
func Goroutines() RuntimeSpec {
	return RuntimeSpec{name: "goroutines", factory: rt.Goroutines()}
}

// TCP is the deployment-shaped runtime: a coordinator server listening
// on addr ("" or "127.0.0.1:0" for any free loopback port) and one
// flow-controlled site client connection per site. Call Close when
// done; call Flush before querying for a fully-delivered view.
func TCP(addr string) RuntimeSpec {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return RuntimeSpec{name: "tcp(" + addr + ")", factory: rt.TCP(addr)}
}

// SequentialTree is the deterministic synchronous runtime over a
// hierarchical relay tree: depth tiers of aggregation relays of the
// given fanout between the sites and the coordinator, each pre-filtering
// upstream candidates and fanning broadcasts down. Relays only ever drop
// messages the coordinator would drop on arrival, so results — and
// site-edge Stats — are bit-identical to Sequential under the same
// seed; depth 0 IS Sequential. Use it to pin tree semantics and message
// counts without network timing.
func SequentialTree(fanout, depth int) RuntimeSpec {
	return RuntimeSpec{
		name:    fmt.Sprintf("seqtree(fanout=%d,depth=%d)", fanout, depth),
		factory: rt.SequentialTree(fanout, depth),
	}
}

// TCPTree is the deployment-shaped runtime over a hierarchical relay
// tree: a coordinator server on addr ("" for any free loopback port),
// depth tiers of relay processes of the given fanout beneath it, and
// one site client connection per site attached to a leaf relay. The
// root terminates min(fanout, k) connections instead of k, so k scales
// to the thousands without exhausting the coordinator's accept queue or
// file descriptors; each relay locally filters its subtree's candidate
// stream, so root ingest traffic shrinks too. Depth 0 is the flat TCP
// topology. With WithShards, one relay tree carries every shard's
// traffic in shard-tagged frames.
func TCPTree(addr string, fanout, depth int) RuntimeSpec {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return RuntimeSpec{
		name:    fmt.Sprintf("tcptree(%s,fanout=%d,depth=%d)", addr, fanout, depth),
		factory: rt.TCPTree(addr, fanout, depth),
	}
}

// Option configures an application handle or a centralized sampler.
type Option func(*options)

type options struct {
	seed      uint64
	rt        RuntimeSpec
	rtSet     bool
	shards    int
	shardsSet bool
}

// WithSeed fixes the random seed, making every run replayable. Without
// it, a fixed default seed is used (the library never reads entropy from
// the environment; vary the seed for independent runs).
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithRuntime selects the runtime driving the protocol instance;
// Sequential() is the default. Every application accepts every
// runtime: a HeavyHitterTracker or L1Tracker over TCP(addr) runs the
// full protocol over real connections. The centralized samplers
// (Reservoir, WithReplacement, SlidingReservoir) have no runtime and
// reject this option.
func WithRuntime(r RuntimeSpec) Option {
	return func(o *options) { o.rt = r; o.rtSet = true }
}

// WithShards partitions the protocol across p independent shards — a
// fabric of p full (Coordinator, k Sites) instances, each item routed
// to one shard by a deterministic, seed-stable hash of its ID. Each
// shard runs its own coordinator state machine behind its own ingest
// lock, so coordinator throughput scales with cores while the query
// stays exact: precision-sampling keys make per-shard samples exactly
// mergeable (the global top-s is the top-s of the union of per-shard
// top-s sets). Over TCP the shards share one server and one connection
// per site (shard-tagged frames — no p×k connection blow-up).
//
// The default (and p = 1) is the single-instance protocol, bit-identical
// to the pre-sharding library. Sharding trades messages for
// parallelism: p shards each filter against their own top-s, so
// upstream traffic grows roughly p-fold in the log n term — see
// DESIGN.md §9 for measurements. The centralized samplers reject this
// option.
func WithShards(p int) Option {
	return func(o *options) { o.shards = p; o.shardsSet = true }
}

func buildOptions(opts []Option) options {
	o := options{seed: 0x9E3779B97F4A7C15, shards: 1}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// centralizedOnly rejects the distributed-protocol options on the
// centralized single-stream samplers, which have neither a runtime nor
// shards — silently dropping them would mask a misconfiguration.
func (o options) centralizedOnly(ctor string) error {
	if o.rtSet {
		return fmt.Errorf("wrs: %s is a centralized sampler: WithRuntime does not apply", ctor)
	}
	if o.shardsSet {
		return fmt.Errorf("wrs: %s is a centralized sampler: WithShards does not apply", ctor)
	}
	return nil
}

// DistributedSampler maintains a weighted sample without replacement of
// size s over k sites, using the paper's message-optimal protocol. It
// is a thin wrapper over Open(Sampler(k, s)): the Sampler application
// on the shared Handle plumbing. The default Sequential runtime
// delivers messages synchronously and deterministically (the model
// analyzed in the paper); WithRuntime swaps in the goroutine cluster or
// a real TCP deployment, and WithShards partitions the protocol across
// parallel coordinator shards, without changing the protocol.
// ConcurrentSampler is the Goroutines configuration under its
// historical drain-then-sample API.
type DistributedSampler struct {
	h *Handle[[]Sampled]
}

// NewDistributedSampler creates a sampler over k sites with sample size s.
func NewDistributedSampler(k, s int, opts ...Option) (*DistributedSampler, error) {
	h, err := Open(Sampler(k, s), opts...)
	if err != nil {
		return nil, err
	}
	return &DistributedSampler{h: h}, nil
}

// Observe delivers one arrival to a site (0 <= site < k). On
// asynchronous runtimes delivery may be deferred; weight validation
// errors then surface at Flush or Close instead.
func (d *DistributedSampler) Observe(site int, it Item) error { return d.h.Observe(site, it) }

// ObserveBatch delivers a slice of arrivals to a site in order through
// the runtime's batched path — one enqueue on the goroutine runtime,
// coalesced multi-message frames over TCP.
func (d *DistributedSampler) ObserveBatch(site int, items []Item) error {
	return d.h.ObserveBatch(site, items)
}

// Sample returns the current weighted sample without replacement —
// min(items observed, s) items, largest key first. It is valid at any
// instant (Definition 3: the sampler never fails to maintain the
// sample); on asynchronous runtimes call Flush first for a
// fully-delivered view. The read path never stalls ingest: see
// Handle.Query.
func (d *DistributedSampler) Sample() []Sampled { return d.h.Query() }

// Shards returns the number of protocol shards (1 unless WithShards).
func (d *DistributedSampler) Shards() int { return d.h.Shards() }

// Flush is a barrier: when it returns, everything observed before the
// call has reached the coordinator. A no-op on the sequential runtime.
func (d *DistributedSampler) Flush() error { return d.h.Flush() }

// Stats returns cumulative network traffic.
func (d *DistributedSampler) Stats() Stats { return d.h.Stats() }

// Close shuts the runtime down (goroutines joined, connections closed).
// The sample remains queryable; further Observe calls error. Close is
// idempotent and returns the first runtime error, if any.
func (d *DistributedSampler) Close() error { return d.h.Close() }

// K returns the number of sites.
func (d *DistributedSampler) K() int { return d.h.K() }

// ConcurrentSampler is the same protocol on the Goroutines runtime
// under its historical API: Feed from any goroutine, then Drain exactly
// once, after which Sample is available. New code can use
// NewDistributedSampler with WithRuntime(Goroutines()) directly — this
// type is a thin configuration of DistributedSampler, kept for the
// drain-then-sample workflow.
type ConcurrentSampler struct {
	ds      *DistributedSampler
	drained bool
	stats   Stats
	err     error
}

// NewConcurrentSampler creates and starts a concurrent sampler.
func NewConcurrentSampler(k, s int, opts ...Option) (*ConcurrentSampler, error) {
	ds, err := NewDistributedSampler(k, s, append(append([]Option(nil), opts...), WithRuntime(Goroutines()))...)
	if err != nil {
		return nil, err
	}
	return &ConcurrentSampler{ds: ds}, nil
}

// Feed enqueues one arrival for a site. Invalid weights surface as an
// error from Drain; feeding after Drain returns an error immediately
// (it used to panic).
func (c *ConcurrentSampler) Feed(site int, it Item) error {
	return c.ds.Observe(site, it)
}

// Drain waits for all in-flight work and returns traffic statistics.
// The close and the statistics read happen in one locked critical
// section, so the returned stats are exactly the post-Close finals —
// Stats() after Drain always agrees with Drain's return value.
func (c *ConcurrentSampler) Drain() (Stats, error) {
	if !c.drained {
		c.stats, c.err = c.ds.h.closeAndStats()
		c.drained = true
	}
	return c.stats, c.err
}

// Sample returns the final sample; it must be called after Drain.
func (c *ConcurrentSampler) Sample() ([]Sampled, error) {
	if !c.drained {
		return nil, fmt.Errorf("wrs: Sample before Drain on ConcurrentSampler")
	}
	return c.ds.Sample(), nil
}
