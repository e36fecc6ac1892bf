package runtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/queue"
	"consensusinside/internal/trace"
)

// queueCap is the per-pair SPSC queue depth, and how many peer messages
// PostPeer lets a node hold undelivered. The paper uses 7 slots; this is
// larger because, unlike the paper's C runtime, a Go handler cannot be
// suspended on a full queue — what does not fit is held at the sender
// (see link) until its core moves it in — and deep pipelines between
// protocol roles are cheap in memory.
const queueCap = 1024

// sweepBatch is how many messages one sweep drains from each inbound
// queue into the core's reusable delivery buffer: enough to amortize the
// atomic head/tail traffic across a realistic burst, small enough that
// round-robin fairness across peers is preserved (no queue can occupy
// the node for more than sweepBatch deliveries before the sweep moves
// on).
const sweepBatch = 64

// Node hosts one Handler: the actor both real runtimes share. A runtime
// is nodes on cores plus a peer transport — it tells each node where a
// non-self send goes and hands in what its peers send. A node's
// callbacks run on its core's goroutine (see core), which may host other
// nodes too.
type Node struct {
	id     msg.NodeID
	n      int
	epoch  time.Time
	rng    *rand.Rand
	tracer *trace.Tracer
	toPeer func(to msg.NodeID, m msg.Message)
	ctx    Context

	// in[i] carries messages from node i to this one when i runs on
	// another core of the same in-process runtime (nil over TCP, for
	// itself and for a node on its own core); the index is the sender.
	in []*queue.SPSC[msg.Message]

	core    *core
	handler Handler

	// self holds self-sends (collapsed roles; every engine's broadcast
	// includes itself). The core goroutine both produces and consumes
	// them, so a plain slice does: no lock, no wakeup, no bound.
	self []msg.Message

	// mailbox is the one way in besides the peer queues: Post, timer
	// fires, PostPeer and handler swaps append to it, and it is
	// unbounded, so none of them blocks on a stalled node (PostPeer waits
	// only for a credit).
	// mailboxPending makes the empty check lock-free; mailboxSpare, the
	// previously drained buffer (core goroutine only), is swapped back in
	// so posting and draining ping-pong between two backing arrays.
	mu             sync.Mutex
	mailbox        []envelope
	mailboxSpare   []envelope
	mailboxPending atomic.Bool
	credits        chan struct{} // one per undelivered PostPeer message
}

// envelope is one mailbox entry: a message, an expired timer's tag
// (timer set; carried inline so a fire boxes nothing) or a handler swap.
// credit marks a message holding a PostPeer credit.
type envelope struct {
	from          msg.NodeID
	m             msg.Message
	tag           TimerTag
	swap          *handlerSwap
	timer, credit bool
}

// handlerSwap asks the core to install handler on the node and run its
// Start between two deliveries; done closes once it has.
type handlerSwap struct {
	handler Handler
	done    chan struct{}
}

// NewNode builds node id of an n-node cluster. Context.Now counts from
// epoch; tracer (nil for none) stamps client requests as they are sent;
// send carries every non-self send to its peer. Start runs it.
func NewNode(id msg.NodeID, n int, epoch time.Time, tracer *trace.Tracer, send func(to msg.NodeID, m msg.Message)) *Node {
	node := &Node{
		id:      id,
		n:       n,
		epoch:   epoch,
		rng:     rand.New(rand.NewSource(1 + int64(id))),
		tracer:  tracer,
		toPeer:  send,
		credits: make(chan struct{}, queueCap),
	}
	node.ctx = &nodeContext{node: node}
	return node
}

// Start runs the node over handler on a core of its own, the layout of
// every TCP node.
func (n *Node) Start(handler Handler) {
	n.handler = handler
	newCore([]*Node{n}).start()
}

// Halt stops the goroutine of a node started with Start, for good, once
// its current sweep returns, and waits for it to exit.
func (n *Node) Halt() { n.core.halt() }

// swapHandler installs handler and runs its Start on the node's core,
// after everything already in the mailbox, and returns once it has — at
// once if the core has exited. Input behind the swap goes to handler.
func (n *Node) swapHandler(handler Handler) {
	s := &handlerSwap{handler: handler, done: make(chan struct{})}
	n.post(envelope{swap: s})
	select {
	case <-s.done:
	case <-n.core.done:
	}
}

// Post delivers m to the handler as if sent by from. Safe from any
// goroutine; it never blocks.
func (n *Node) Post(from msg.NodeID, m msg.Message) {
	n.post(envelope{from: from, m: m})
}

// PostPeer is Post for a peer reader: it waits while queueCap messages it
// posted are undelivered, so a fast peer backs up into its socket, not
// into memory. It reports false, posting nothing, once stop is closed.
func (n *Node) PostPeer(from msg.NodeID, m msg.Message, stop <-chan struct{}) bool {
	select {
	case n.credits <- struct{}{}:
	case <-stop:
		return false
	}
	n.post(envelope{from: from, m: m, credit: true})
	return true
}

// post appends env to the mailbox and wakes the node's core if it is
// parked. Publishing mailboxPending before reading parked pairs with the
// core's parked-then-recheck: either the core sees the entry or the
// poster sees it parked.
func (n *Node) post(env envelope) {
	n.mu.Lock()
	n.mailbox = append(n.mailbox, env)
	n.mailboxPending.Store(true)
	n.mu.Unlock()
	n.core.wakeIfParked()
}

// send is Context.Send: a self-send joins the node's own slice, anything
// else goes to the peer transport.
func (n *Node) send(to msg.NodeID, m msg.Message) {
	if n.tracer.Enabled() {
		if req, ok := m.(*msg.ClientRequest); ok {
			n.tracer.MarkWire(req, time.Since(n.epoch))
		}
	}
	if to == n.id {
		n.self = append(n.self, m) // drained when the callback returns
		return
	}
	n.toPeer(to, m)
}

// hasInput reports whether a peer queue or the mailbox holds work — the
// core's final recheck between publishing parked=true and blocking.
func (n *Node) hasInput() bool {
	for _, q := range n.in {
		if q != nil && q.Len() > 0 {
			return true
		}
	}
	return n.mailboxPending.Load()
}

// begin runs the handler's Start and the self-sends it made; the core
// delivers its same-core sends once every node it is starting has begun.
func (n *Node) begin() {
	n.handler.Start(n.ctx)
	n.drainSelf()
}

// receive delivers one message, releases it (msg.Release: a pooled box
// goes back to its pool, anything else is left alone), then delivers
// everything it sent within the core. Every in-process delivery path —
// peer queue, mailbox, self-send and same-core FIFO — releases after
// the handler returns, and each delivers a message once.
func (n *Node) receive(from msg.NodeID, m msg.Message) {
	n.handler.Receive(n.ctx, from, m)
	msg.Release(m)
	n.settle()
}

// settle delivers what a callback sent without leaving the core: the
// node's self-sends first, then the core's same-core FIFO.
func (n *Node) settle() {
	if len(n.self) > 0 {
		n.drainSelf()
	}
	if len(n.core.local) > 0 {
		n.core.drainLocal()
	}
}

// drainSelf delivers the self-sends by index, because delivered handlers
// commonly push more, and resets the slice. Running it after every
// callback keeps a collapsed role's loopback ahead of all queued input,
// in FIFO order, and the slice empty between deliveries.
func (n *Node) drainSelf() {
	for i := 0; i < len(n.self); i++ {
		m := n.self[i]
		n.self[i] = nil // release the reference once delivered
		n.handler.Receive(n.ctx, n.id, m)
		msg.Release(m)
	}
	n.self = n.self[:0]
}

// sweep is one pass over the node's input: up to len(buf) messages from
// each peer queue, round-robin by sender as QC-libtask's scheduler does,
// then the whole mailbox. It reports whether it delivered anything.
func (n *Node) sweep(buf []msg.Message) bool {
	progress := false
	for i, q := range n.in {
		if q == nil {
			continue
		}
		k := q.DequeueInto(buf)
		for j := 0; j < k; j++ {
			n.receive(msg.NodeID(i), buf[j])
			buf[j] = nil // release the reference once delivered
		}
		if k > 0 {
			progress = true
		}
	}
	if n.drainMailbox() {
		progress = true
	}
	return progress
}

// drainMailbox delivers the mailbox in arrival order. Each pass takes the
// whole pending slice in one lock hold and swaps the spare buffer in, so
// posters keep appending into reused capacity while the batch is
// delivered lock-free.
func (n *Node) drainMailbox() bool {
	if !n.mailboxPending.Load() {
		return false
	}
	progress := false
	for {
		n.mu.Lock()
		if len(n.mailbox) == 0 {
			n.mailboxPending.Store(false)
			n.mu.Unlock()
			return progress
		}
		batch := n.mailbox
		n.mailbox = n.mailboxSpare[:0]
		n.mu.Unlock()
		for i := range batch {
			env := batch[i]
			batch[i] = envelope{} // release the message reference
			if env.credit {
				<-n.credits // a reader waiting on a full semaphore may go on
			}
			switch {
			case env.timer:
				n.handler.Timer(n.ctx, env.tag)
				n.settle()
			case env.swap != nil:
				n.handler = env.swap.handler
				n.handler.Start(n.ctx)
				n.settle()
				close(env.swap.done)
			default:
				n.receive(env.from, env.m)
			}
		}
		n.mailboxSpare = batch[:0]
		progress = true
	}
}

// nodeContext is the Context both real runtimes hand their handlers.
type nodeContext struct {
	node *Node
}

func (c *nodeContext) ID() msg.NodeID                    { return c.node.id }
func (c *nodeContext) N() int                            { return c.node.n }
func (c *nodeContext) Now() time.Duration                { return time.Since(c.node.epoch) }
func (c *nodeContext) Rand() *rand.Rand                  { return c.node.rng }
func (c *nodeContext) Send(to msg.NodeID, m msg.Message) { c.node.send(to, m) }

func (c *nodeContext) After(d time.Duration, tag TimerTag) CancelFunc {
	// The fire goes to the unbounded mailbox: the callback goroutine
	// never blocks on a stalled node, and no tag is ever dropped.
	node := c.node
	t := time.AfterFunc(d, func() { node.post(envelope{tag: tag, timer: true}) })
	return func() { t.Stop() }
}
