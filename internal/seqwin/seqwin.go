// Package seqwin provides Window, a sliding window over a dense range
// of sequence numbers, for the bookkeeping every layer keeps per client
// command: session results on the replicas, in-flight commands on the
// clients.
//
// Those tables are keyed by sequence numbers that shard.TagSeq makes
// dense per lane (1, 2, 3, ...), that are stored in roughly increasing
// order, and that retire from the low end. A hash map pays a hash, a
// probe and an occasional rehash for every one of them; an array indexed
// by seq & mask pays an add and a compare. Window is that array.
package seqwin

import (
	"iter"
	"sync/atomic"
)

// Window holds values for the sequence numbers in [Low, Next): a
// power-of-two ring whose slot for seq is seq & mask. Everything below
// Low has retired and can never be stored again; everything at or above
// Next has not been stored yet. The zero value is an empty window at
// sequence number zero.
//
// The ring grows, by doubling, only when Slot is asked for a seq that
// no longer fits beside Low — an old entry is pinned while newer ones
// keep arriving. Its capacity therefore stays below twice the span
// Next-Low, the range a map would have held entries for; it does not
// shrink back. Callers rely on sequence numbers being dense: a seq far
// above Next allocates the whole gap.
//
// A Window is not safe for concurrent use.
type Window[T any] struct {
	slots []slot[T] // len is zero or a power of two
	low   uint64
	next  uint64
	n     int
	grows *atomic.Int64
}

type slot[T any] struct {
	v    T
	live bool
}

// New returns an empty window whose lowest storable sequence number is
// low, with room for capacity consecutive sequence numbers (rounded up
// to a power of two) before it has to grow. Every later growth adds one
// to grows, which may be nil; the counter is the only part of a window
// another goroutine may read.
func New[T any](low uint64, capacity int, grows *atomic.Int64) Window[T] {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return Window[T]{slots: make([]slot[T], size), low: low, next: low, grows: grows}
}

// Low reports the lowest sequence number the window still covers.
func (w *Window[T]) Low() uint64 { return w.low }

// Next reports one past the highest sequence number ever stored (Low
// when nothing at or above Low has been).
func (w *Window[T]) Next() uint64 { return w.next }

// Len reports how many sequence numbers currently hold a value.
func (w *Window[T]) Len() int { return w.n }

// Ptr returns the value stored for seq, or nil when there is none —
// seq retired, was deleted, or was never stored. The pointer aims into
// the ring: it is valid until the next call that stores or retires.
func (w *Window[T]) Ptr(seq uint64) *T {
	if seq < w.low || seq >= w.next {
		return nil
	}
	s := &w.slots[seq&uint64(len(w.slots)-1)]
	if !s.live {
		return nil
	}
	return &s.v
}

// All iterates over the stored entries in ascending sequence order. The
// loop body may Delete the entry it is visiting; entries stored during
// the iteration are not visited.
func (w *Window[T]) All() iter.Seq2[uint64, *T] {
	return func(yield func(uint64, *T) bool) {
		for seq, next := w.low, w.next; seq < next; seq++ {
			if s := &w.slots[seq&uint64(len(w.slots)-1)]; s.live && !yield(seq, &s.v) {
				return
			}
		}
	}
}

// Slot returns the value stored for seq, storing a zero value first
// when there is none, and growing the ring when seq does not fit beside
// Low. It returns nil for a seq below Low. The pointer is valid until
// the next call that stores or retires.
func (w *Window[T]) Slot(seq uint64) *T {
	if seq < w.low {
		return nil
	}
	if seq >= w.next {
		if seq-w.low >= uint64(len(w.slots)) {
			w.grow(seq - w.low + 1)
		}
		w.next = seq + 1
	}
	s := &w.slots[seq&uint64(len(w.slots)-1)]
	if !s.live {
		s.live = true
		w.n++
	}
	return &s.v
}

// grow re-homes the live entries in a ring of at least span slots.
func (w *Window[T]) grow(span uint64) {
	size := uint64(len(w.slots))
	if size == 0 {
		size = 1
	}
	for size < span {
		size <<= 1
	}
	slots := make([]slot[T], size)
	if w.n > 0 {
		old := uint64(len(w.slots) - 1)
		for seq := w.low; seq < w.next; seq++ {
			if s := w.slots[seq&old]; s.live {
				slots[seq&(size-1)] = s
			}
		}
	}
	if len(w.slots) > 0 && w.grows != nil {
		w.grows.Add(1)
	}
	w.slots = slots
}

// Delete removes seq's value and reports whether there was one. When
// the lowest stored entry goes, Low slides up to the next stored entry
// (to Next when none is left), so a window whose entries retire roughly
// in order keeps a short span without ever calling Advance — and Low is
// then the lowest sequence number still outstanding.
func (w *Window[T]) Delete(seq uint64) bool {
	if seq < w.low || seq >= w.next {
		return false
	}
	mask := uint64(len(w.slots) - 1)
	s := &w.slots[seq&mask]
	if !s.live {
		return false
	}
	*s = slot[T]{}
	w.n--
	if seq == w.low {
		for w.low < w.next && !w.slots[w.low&mask].live {
			w.low++
		}
	}
	return true
}

// Advance retires every sequence number below low, dropping the values
// stored for them. Low becomes exactly low — it does not slide further
// over empty slots, so a caller that advances explicitly decides what
// may still be stored. Advancing backwards is a no-op.
func (w *Window[T]) Advance(low uint64) {
	if low <= w.low {
		return
	}
	if w.n > 0 {
		mask := uint64(len(w.slots) - 1)
		for seq := w.low; seq < low && seq < w.next; seq++ {
			if s := &w.slots[seq&mask]; s.live {
				*s = slot[T]{}
				w.n--
			}
		}
	}
	w.low = low
	if w.next < low {
		w.next = low
	}
}
