// Package lockorder is the wrs-lint fixture for the lockorder
// analyzer: the forbidden peersMu→shardMu inversion (direct and
// through a same-package call), an acquisition-order cycle, and the
// loop-repeated acquisition that needs a documented global order.
package lockorder

import "sync"

// shardState names the shard ingest mutex class the transport
// invariant protects (DESIGN.md §9).
type shardState struct {
	mu sync.Mutex
	n  int
}

type server struct {
	peersMu sync.Mutex
	shards  []*shardState
}

// badDirect inverts the sanctioned order: the link layer's registry
// mutex is held while taking a shard ingest mutex.
func (s *server) badDirect(i int) {
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	sh := s.shards[i]
	sh.mu.Lock() // want "inverts the sanctioned lock order"
	sh.n++
	sh.mu.Unlock()
}

type router struct {
	peersMu sync.Mutex
	shard   *shardState
}

// badIndirect reaches the shard mutex through a same-package call: the
// transitive closure over static calls still sees the inversion.
func (r *router) badIndirect() {
	r.peersMu.Lock()
	r.lockShard() // want "inverts the sanctioned lock order"
	r.peersMu.Unlock()
}

func (r *router) lockShard() {
	r.shard.mu.Lock()
	r.shard.n++
	r.shard.mu.Unlock()
}

// pair disagrees with itself about order: ab takes a then b, ba takes
// b then a — a deadlock waiting for load.
type pair struct {
	a, b sync.Mutex
}

func (p *pair) ab() {
	p.a.Lock()
	p.b.Lock() // want "closes a lock-order cycle"
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) ba() {
	p.b.Lock()
	p.a.Lock() // want "closes a lock-order cycle"
	p.a.Unlock()
	p.b.Unlock()
}

// badLoop re-acquires the shard class while the previous iteration's
// lock is still held — a multi-lock without a stated global order.
func (s *server) badLoop() {
	for _, sh := range s.shards {
		sh.mu.Lock() // want "acquired in a loop"
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// okLoop is the sanctioned multi-shard pattern: ascending index order
// is the documented global order, so the repeat is annotated.
func (s *server) okLoop() {
	for _, sh := range s.shards {
		sh.mu.Lock() //wrslint:allow lockorder shards are locked in ascending index order; every multi-locker uses it
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// hub and ingest exercise the sanctioned transport direction: a shard
// ingest mutex may be held while taking the registry mutex for
// broadcast fan-out.
type hub struct {
	peersMu sync.Mutex
	shard   ingest
}

type ingest struct {
	mu sync.Mutex
	n  int
}

func (h *hub) goodDirection() {
	h.shard.mu.Lock()
	h.peersMu.Lock()
	h.shard.n = 1
	h.peersMu.Unlock()
	h.shard.mu.Unlock()
}
