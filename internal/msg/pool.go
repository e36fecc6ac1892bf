package msg

import (
	"fmt"
	"sync"
)

// Message boxes for the hot path: one pool per kind, one release point.
//
// A message in an interface is a pointer to a heap copy, so a value
// struct sent through runtime.Context.Send costs an allocation per send.
// The kinds every commit and every fast-path read send — ClientRequest,
// Accept, Learn, ClientReplyBatch, ReadRequest and ReadReplyBatch —
// travel instead as pointers drawn from the pools below, and every
// receiver switches on the pointer form. The rule:
//
//   - A sender draws a box (BoxRequest, DrawAccept, ...), fills it and
//     sends it to ONE destination. A multicast draws a box per
//     destination: no box ever has two receivers, so no box needs a
//     count. A decoder draws the box a frame fills (codec.go), so a TCP
//     frame draws one box and releases one at each end.
//   - A received box is read-only, and it is released exactly once,
//     after its handler returns, by whoever delivered it: runtime.Node
//     for every in-process delivery (peer queue, same-core FIFO,
//     self-send, mailbox), the TCP writer once the box is encoded. A
//     handler that needs a box's contents longer copies them out (the
//     Value, the entries) or, to pass a request on, sends a box of its
//     own (replica.Shell.Forward).
//   - Release empties the box: scalars zeroed, the slices the box owns
//     (Learn.Entries, ReadRequest.Entries and the reply arrays) cleared
//     and kept for the next draw. A slice the box does not own —
//     ClientRequest.Batch and the Value's Batch, which logs keep — is
//     dropped, never reused.
//   - The simulator and the FakeContext never release: simnet may
//     deliver one box to several cores under a fault schedule, and a
//     test keeps what it was sent. Their boxes fall to the collector.
//
// Built with -tags msgpoison, Release overwrites every box with poison
// before pooling it, so a receiver that kept a box reads garbage instead
// of a plausible later message, and a box released twice panics (an
// empty learn or reply batch carries no poison to recognise).

// boxPool recycles boxes of one kind. A sync.Pool of pointers: Put and
// Get box nothing, and a box drawn on one core and released on another
// moves between the per-P caches.
type boxPool[T any] struct{ p sync.Pool }

func (b *boxPool[T]) get() *T {
	if v, _ := b.p.Get().(*T); v != nil {
		return v
	}
	return new(T)
}

func (b *boxPool[T]) put(v *T) { b.p.Put(v) }

// keepCap is the largest array a released box keeps: a catch-up-sized
// learn or a redirect storm's reply batch goes to the collector rather
// than pinning its array in the pool.
const keepCap = 1024

// scrub empties the array a released box owns, keeping it for the next
// draw (nil when it is too large to keep): cleared and cut to length 0,
// or, under msgpoison, every element overwritten with poison and the
// length kept, so a holder of the stale box iterates garbage. A draw
// cuts the array to length 0 either way.
func scrub[T any](s []T, poison T) []T {
	if cap(s) > keepCap {
		return nil
	}
	if poisoned {
		for i := range s {
			s[i] = poison
		}
		return s
	}
	clear(s)
	return s[:0]
}

// What a poisoned box reads: ids, numbers and keys no live message
// carries.
const poisonNode NodeID = -0xbad

var (
	poisonCmd      = Command{Op: Op(-0xbad), Key: "\x00poisoned", Val: "\x00poisoned"}
	poisonValue    = Value{Client: poisonNode, Seq: ^uint64(0), Cmd: poisonCmd, Ack: ^uint64(0)}
	poisonProposal = Proposal{Instance: -0xbad, PN: ^uint64(0), Value: poisonValue}
	poisonEntry    = BatchEntry{Seq: ^uint64(0), Cmd: poisonCmd}
	poisonReply    = ClientReply{Seq: ^uint64(0), Instance: -0xbad, Result: "\x00poisoned", Redirect: poisonNode}
	poisonRead     = ReadReply{Seq: ^uint64(0), Result: "\x00poisoned", Redirect: poisonNode}
)

var (
	requests    boxPool[ClientRequest]
	accepts     boxPool[Accept]
	learns      boxPool[Learn]
	replies     boxPool[ClientReplyBatch]
	reads       boxPool[ReadRequest]
	readReplies boxPool[ReadReplyBatch]
)

// BoxRequest draws a request box holding r: a lane's NewRequest, or a
// received request a handler passes on.
func BoxRequest(r ClientRequest) *ClientRequest {
	b := requests.get()
	*b = r
	return b
}

// DrawAccept draws an accept box for instance in under proposal number
// pn carrying v.
func DrawAccept(in int64, pn uint64, v Value) *Accept {
	a := accepts.get()
	*a = Accept{Instance: in, PN: pn, Value: v}
	return a
}

// DrawLearn draws a learn box with no entries; the sender appends them
// into the box's own array.
func DrawLearn() *Learn {
	l := learns.get()
	l.Entries = l.Entries[:0]
	return l
}

// DrawReplies draws a write-reply batch with no replies; the sender
// appends them into the box's own array.
func DrawReplies() *ClientReplyBatch {
	b := replies.get()
	b.Replies = b.Replies[:0]
	return b
}

// DrawReadRequest draws a read request from client with no entries; the
// sender appends them into the box's own array.
func DrawReadRequest(client NodeID, mode int) *ReadRequest {
	r := reads.get()
	r.Client, r.Mode, r.Entries = client, mode, r.Entries[:0]
	return r
}

// DrawReadReplies draws a read-reply batch with no replies; the sender
// appends them into the box's own array.
func DrawReadReplies() *ReadReplyBatch {
	b := readReplies.get()
	b.Replies = b.Replies[:0]
	return b
}

// Release returns a delivered box to its kind's pool; any other message
// is left alone, so a runtime calls it on everything it delivers. The
// caller must be the box's last holder.
func Release(m Message) {
	if poisoned && stale(m) {
		panic(fmt.Sprintf("msg: %T released twice", m))
	}
	switch m := m.(type) {
	case *ClientRequest:
		*m = ClientRequest{}
		if poisoned {
			*m = ClientRequest(poisonValue)
		}
		requests.put(m)
	case *Accept:
		*m = Accept{}
		if poisoned {
			*m = Accept(poisonProposal)
		}
		accepts.put(m)
	case *Learn:
		m.Entries = scrub(m.Entries, poisonProposal)
		learns.put(m)
	case *ClientReplyBatch:
		m.Replies = scrub(m.Replies, poisonReply)
		replies.put(m)
	case *ReadRequest:
		m.Client, m.Mode = 0, 0
		if poisoned {
			m.Client, m.Mode = poisonNode, -0xbad
		}
		m.Entries = scrub(m.Entries, poisonEntry)
		reads.put(m)
	case *ReadReplyBatch:
		m.Replies = scrub(m.Replies, poisonRead)
		readReplies.put(m)
	}
}

// RecycleReplies is Release under the name callers written against the
// old reply-slice pool use (bench/'s engine ladder).
func RecycleReplies(m Message) { Release(m) }
