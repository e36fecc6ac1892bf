// Package queue implements the message queuing layer of QC-libtask
// (Section 6.1 of the paper) in Go: a bounded lock-free
// single-producer/single-consumer slot queue, two of which connect every
// pair of communicating nodes (one per direction).
//
// Faithful to the paper: the queue has a small fixed number of slots
// (seven by default, each sized for a 128-byte message, twice a cache
// line), the head pointer is moved only by the reader, the tail only by
// the writer, and no locks are taken on either path. Head and tail live on
// separate cache lines to avoid false sharing between producer and
// consumer cores.
package queue

import (
	"runtime"
	"sync/atomic"
)

// DefaultSlots is the paper's default queue depth (Section 6.1).
const DefaultSlots = 7

// SlotBytes is the paper's slot size: 128 bytes, twice the cache-line
// size of the evaluation machine.
const SlotBytes = 128

// FixedMsg is a fixed-size message payload matching the paper's slot
// layout, used by the wire-level microbenchmarks.
type FixedMsg [SlotBytes]byte

// SPSC is a bounded single-producer/single-consumer queue. Exactly one
// goroutine may enqueue and exactly one may dequeue; this is the invariant
// that makes the lock-free head/tail scheme of the paper correct.
//
// Head and tail are free-running counters: size = tail - head; the queue
// is full when size == capacity and empty when the counters are equal.
// The backing array is sized to the next power of two (the logical
// capacity stays exactly what the caller asked for), so slot indexing is
// a mask rather than a division and stays contiguous even when the
// counters wrap at the uint64 boundary — a non-power-of-two array would
// tear the ring the moment tail overflows, since 2^64 is not a multiple
// of its length.
type SPSC[T any] struct {
	_    [64]byte // keep head away from whatever precedes the struct
	head atomic.Uint64
	_    [56]byte // head and tail on distinct cache lines
	tail atomic.Uint64
	_    [56]byte
	buf  []T
	mask uint64 // len(buf) - 1; len(buf) is a power of two
	capa uint64 // logical capacity (<= len(buf))
}

// NewSPSC returns a queue with the given number of slots.
// It panics if capacity is not positive; the capacity is a configuration
// constant, never runtime input.
func NewSPSC[T any](capacity int) *SPSC[T] {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1), capa: uint64(capacity)}
}

// Cap reports the number of slots.
func (q *SPSC[T]) Cap() int { return int(q.capa) }

// Enqueued reports how many messages have ever entered the queue: the
// free-running tail. Any goroutine may read it.
func (q *SPSC[T]) Enqueued() uint64 { return q.tail.Load() }

// Len reports the number of queued messages. Because producer and
// consumer race with this read, the value is a point-in-time snapshot.
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// TryEnqueue appends v and reports success, or reports false when the
// queue is full. Only the producer goroutine may call it.
func (q *SPSC[T]) TryEnqueue(v T) bool {
	tail := q.tail.Load()
	if tail-q.head.Load() == q.capa {
		return false
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1)
	return true
}

// Enqueue appends v, spinning (with cooperative yields) while the queue
// is full — the paper's sender behaviour with a bounded slot queue.
func (q *SPSC[T]) Enqueue(v T) {
	for !q.TryEnqueue(v) {
		runtime.Gosched()
	}
}

// TryDequeue removes the oldest message and reports success, or reports
// false when the queue is empty. Only the consumer goroutine may call it.
func (q *SPSC[T]) TryDequeue() (T, bool) {
	var zero T
	head := q.head.Load()
	if head == q.tail.Load() {
		return zero, false
	}
	v := q.buf[head&q.mask]
	q.buf[head&q.mask] = zero // release references for GC
	q.head.Store(head + 1)
	return v, true
}

// Dequeue removes the oldest message, spinning (with cooperative yields)
// while the queue is empty.
func (q *SPSC[T]) Dequeue() T {
	for {
		if v, ok := q.TryDequeue(); ok {
			return v
		}
		runtime.Gosched()
	}
}

// TryEnqueueBatch appends as many of vs as fit and reports how many it
// took (0 when the queue is full). The slots are claimed with ONE tail
// publication, so a batch costs the same two atomic operations as a
// single TryEnqueue no matter its length. Only the producer goroutine
// may call it.
func (q *SPSC[T]) TryEnqueueBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	tail := q.tail.Load()
	free := q.capa - (tail - q.head.Load())
	n := uint64(len(vs))
	if n > free {
		n = free
	}
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		q.buf[(tail+i)&q.mask] = vs[i]
	}
	q.tail.Store(tail + n)
	return int(n)
}

// DequeueInto moves up to len(buf) of the oldest messages into buf and
// reports how many it moved (0 when the queue is empty). The drained
// slots are zeroed (releasing their references for GC) and the head is
// published ONCE for the whole batch, amortizing the atomic head/tail
// traffic that TryDequeue pays per message. Only the consumer goroutine
// may call it.
func (q *SPSC[T]) DequeueInto(buf []T) int {
	if len(buf) == 0 {
		return 0
	}
	var zero T
	head := q.head.Load()
	avail := q.tail.Load() - head
	n := uint64(len(buf))
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0
	}
	for i := uint64(0); i < n; i++ {
		slot := (head + i) & q.mask
		buf[i] = q.buf[slot]
		q.buf[slot] = zero // release references for GC
	}
	q.head.Store(head + n)
	return int(n)
}
