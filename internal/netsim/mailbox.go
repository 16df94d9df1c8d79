package netsim

import "sync"

// Mailbox is an unbounded FIFO queue safe for concurrent use. The
// concurrent runtime uses one per site for coordinator-to-site traffic so
// that the coordinator never blocks on a slow site — the property that
// makes the goroutine runtime deadlock-free by construction (the only
// blocking edges are site -> coordinator, which the coordinator always
// drains).
type Mailbox[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []T
	closed bool
}

// NewMailbox returns an empty open mailbox.
func NewMailbox[T any]() *Mailbox[T] {
	m := &Mailbox[T]{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Put appends v. Put on a closed mailbox panics (protocol bug).
func (m *Mailbox[T]) Put(v T) {
	if !m.TryPut(v) {
		panic("netsim: Put on closed Mailbox")
	}
}

// TryPut appends v unless the mailbox is closed, and reports whether it
// did — for producers that may race the consumer's teardown.
func (m *Mailbox[T]) TryPut(v T) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.q = append(m.q, v)
	m.mu.Unlock()
	m.cond.Signal()
	return true
}

// TryGet pops the head without blocking. ok is false when empty.
func (m *Mailbox[T]) TryGet() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.q) == 0 {
		return v, false
	}
	v = m.q[0]
	m.q = m.q[1:]
	return v, true
}

// Get pops the head, blocking until a value arrives or the mailbox is
// closed and drained (ok = false).
func (m *Mailbox[T]) Get() (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.q) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.q) == 0 {
		return v, false
	}
	v = m.q[0]
	m.q = m.q[1:]
	return v, true
}

// Close marks the mailbox closed; pending values remain retrievable.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Len returns the current queue length.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q)
}
