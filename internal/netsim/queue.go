package netsim

import "sync"

// BatchQueue is a bounded FIFO queue with batched enqueue and dequeue:
// PutBatch appends a whole slice under one lock acquisition and GetAll
// hands the consumer everything queued in one swap. The concurrent
// runtime uses one per site for its input lane, so FeedBatch costs one
// queue operation per batch instead of one channel send per item, and
// the site goroutine wakes once per burst instead of once per item.
// What one GetAll returns is also the site goroutine's unit of progress
// for the Flush barrier: it advances its processed count and wakes a
// waiting flusher once per dequeued batch.
//
// Capacity is a soft bound: a producer blocks while the queue holds at
// least max items, but a single PutBatch is admitted whole once there
// is any room, so the queue can momentarily exceed max by one batch.
// That keeps "one batch = one operation" without forcing callers to
// split their batches against the buffer size.
type BatchQueue[T any] struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	buf      []T
	max      int
	closed   bool
}

// NewBatchQueue returns an empty open queue with the given soft
// capacity (minimum 1).
func NewBatchQueue[T any](max int) *BatchQueue[T] {
	if max < 1 {
		max = 1
	}
	q := &BatchQueue[T]{max: max}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// Put appends one value, blocking while the queue is full. Put on a
// closed queue panics (protocol bug, mirroring Mailbox).
func (q *BatchQueue[T]) Put(v T) {
	q.mu.Lock()
	for len(q.buf) >= q.max && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		panic("netsim: Put on closed BatchQueue")
	}
	q.buf = append(q.buf, v)
	q.mu.Unlock()
	q.notEmpty.Signal()
}

// PutBatch appends every value of batch in order under one lock
// acquisition, blocking while the queue is full. The values are copied;
// the caller may reuse the slice immediately.
func (q *BatchQueue[T]) PutBatch(batch []T) {
	if len(batch) == 0 {
		return
	}
	q.mu.Lock()
	for len(q.buf) >= q.max && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		panic("netsim: PutBatch on closed BatchQueue")
	}
	q.buf = append(q.buf, batch...)
	q.mu.Unlock()
	q.notEmpty.Signal()
}

// GetAll appends everything currently queued to dst and returns it,
// blocking until at least one value is available or the queue is closed
// and drained (ok = false). Pass dst[:0] of a reused slice to avoid
// per-wakeup allocation.
func (q *BatchQueue[T]) GetAll(dst []T) (out []T, ok bool) {
	q.mu.Lock()
	for len(q.buf) == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if len(q.buf) == 0 {
		q.mu.Unlock()
		return dst, false
	}
	dst = append(dst, q.buf...)
	q.buf = q.buf[:0]
	q.mu.Unlock()
	q.notFull.Broadcast()
	return dst, true
}

// Len returns the current queue length.
func (q *BatchQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// Close marks the queue closed; queued values remain retrievable.
func (q *BatchQueue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}
