package runtime

import (
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/queue"
	"consensusinside/internal/trace"
)

// queueCap is the per-pair SPSC queue depth, and how many peer messages
// PostPeer lets a node hold undelivered. The paper uses 7 slots; this is
// larger because, unlike the paper's C runtime, a Go handler blocked on a
// full queue holds its goroutine, and deep pipelines between protocol
// roles are cheap in memory.
const queueCap = 1024

// sweepBatch is how many messages one sweep drains from each inbound
// queue into the node's reusable delivery buffer: enough to amortize the
// atomic head/tail traffic across a realistic burst, small enough that
// round-robin fairness across peers is preserved (no queue can occupy
// the node for more than sweepBatch deliveries before the sweep moves
// on).
const sweepBatch = 64

// spinSweeps is how many consecutive empty sweeps a node tolerates —
// yielding the processor between them — before parking on its wake
// channel. This is the paper's busy-poll made Go-friendly: a short spin
// catches the common case where a peer's reply is already in flight
// (saving both sides a channel wakeup), while the park keeps idle nodes
// from burning a core the way a hardware busy-poll would ("preventing
// threads from spinning unnecessarily when waiting for messages",
// Section 8). The paper's model gives every node its own core; when the
// host cannot (GOMAXPROCS below the node count is the single-core
// extreme), spinning only steals cycles from the peer whose reply is
// being awaited, so nodes park immediately instead.
var spinSweeps = func() int {
	if goruntime.GOMAXPROCS(0) > 1 {
		return 8
	}
	return 0
}()

// Node hosts one Handler on one goroutine: the actor both real runtimes
// share. A runtime is a node plus a peer transport — it tells the node
// where a non-self send goes and hands in what its peers send.
type Node struct {
	id     msg.NodeID
	n      int
	epoch  time.Time
	rng    *rand.Rand
	tracer *trace.Tracer
	toPeer func(to msg.NodeID, m msg.Message)

	// in[i] carries messages from node i to this one when the peers are
	// in-process (nil over TCP); the queue index is the sender.
	in []*queue.SPSC[msg.Message]
	// stop, once closed, ends the loop the next time it parks, so a
	// cluster shutdown drains every node first. Nil never fires.
	stop <-chan struct{}

	handler Handler
	wake    chan struct{}
	// parked is set while the node goroutine is blocked on wake; posters
	// only touch the wake channel when it is, so the steady-state message
	// path costs no channel operations.
	parked atomic.Bool

	// self holds self-sends (collapsed roles; every engine's broadcast
	// includes itself). The node goroutine both produces and consumes
	// them, so a plain slice does: no lock, no wakeup, no bound.
	self []msg.Message

	// mailbox is the one way in besides the peer queues: Post, timer
	// fires and PostPeer append to it, and it is unbounded, so none of
	// them blocks on a stalled node (PostPeer waits only for a credit).
	// mailboxPending makes the empty check lock-free; mailboxSpare, the
	// previously drained buffer (node goroutine only), is swapped back in
	// so posting and draining ping-pong between two backing arrays.
	mu             sync.Mutex
	mailbox        []envelope
	mailboxSpare   []envelope
	mailboxPending atomic.Bool
	credits        chan struct{} // one per undelivered PostPeer message

	// halt stops this incarnation's goroutine, done reports it exited.
	halt chan struct{}
	done chan struct{}
}

// envelope is one mailbox entry: a message, or — timer set — an expired
// timer's tag, carried inline so a fire boxes nothing. credit marks a
// message holding a PostPeer credit.
type envelope struct {
	from          msg.NodeID
	m             msg.Message
	tag           TimerTag
	timer, credit bool
}

// NewNode builds node id of an n-node cluster. Context.Now counts from
// epoch; tracer (nil for none) stamps client requests as they are sent;
// send carries every non-self send to its peer. Start runs it.
func NewNode(id msg.NodeID, n int, epoch time.Time, tracer *trace.Tracer, send func(to msg.NodeID, m msg.Message)) *Node {
	return &Node{
		id:      id,
		n:       n,
		epoch:   epoch,
		rng:     rand.New(rand.NewSource(1 + int64(id))),
		tracer:  tracer,
		toPeer:  send,
		wake:    make(chan struct{}, 1),
		credits: make(chan struct{}, queueCap),
	}
}

// Start launches the node's goroutine over handler.
func (n *Node) Start(handler Handler) {
	n.handler = handler
	n.halt = make(chan struct{})
	n.done = make(chan struct{})
	go n.run(n.halt, n.done)
}

// Halt stops the node's goroutine once its current callback returns and
// waits for it to exit; undelivered input stays for the next Start, so
// exactly one goroutine consumes the node's queues at any time.
func (n *Node) Halt() {
	close(n.halt) // observed at the top of a sweep or in the parked select
	<-n.done
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

// post appends env to the mailbox and wakes the node if it is parked.
// Publishing mailboxPending before reading parked pairs with the loop's
// parked-then-recheck: either the node sees the entry or the poster sees
// it parked.
func (n *Node) post(env envelope) {
	n.mu.Lock()
	n.mailbox = append(n.mailbox, env)
	n.mailboxPending.Store(true)
	n.mu.Unlock()
	if n.parked.Load() {
		n.notify()
	}
}

func (n *Node) notify() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// send is Context.Send: a self-send joins the node's own slice, anything
// else goes to the peer transport.
func (n *Node) send(to msg.NodeID, m msg.Message) {
	if n.tracer.Enabled() {
		if req, ok := m.(msg.ClientRequest); ok {
			n.tracer.MarkWire(req, time.Since(n.epoch))
		}
	}
	if to == n.id {
		n.self = append(n.self, m) // drained when the callback returns
		return
	}
	n.toPeer(to, m)
}

// someInput reports whether any input source has work — the final
// recheck between publishing parked=true and blocking on wake, closing
// the race where a sender checks parked just before the node sets it.
func (n *Node) someInput() bool {
	for _, q := range n.in {
		if q != nil && q.Len() > 0 {
			return true
		}
	}
	return n.mailboxPending.Load()
}

// receive delivers one message, then every self-send it caused.
func (n *Node) receive(ctx Context, from msg.NodeID, m msg.Message) {
	n.handler.Receive(ctx, from, m)
	if len(n.self) > 0 {
		n.drainSelf(ctx)
	}
}

// drainSelf delivers the self-sends by index, because delivered handlers
// commonly push more, and resets the slice. Running it after every
// callback keeps a collapsed role's loopback ahead of all queued input,
// in FIFO order, and the slice empty between deliveries.
func (n *Node) drainSelf(ctx Context) {
	for i := 0; i < len(n.self); i++ {
		m := n.self[i]
		n.self[i] = nil // release the reference once delivered
		n.handler.Receive(ctx, n.id, m)
	}
	n.self = n.self[:0]
}

// drainMailbox delivers the mailbox in arrival order. Each pass takes the
// whole pending slice in one lock hold and swaps the spare buffer in, so
// posters keep appending into reused capacity while the batch is
// delivered lock-free.
func (n *Node) drainMailbox(ctx Context) bool {
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
			if env.timer {
				n.handler.Timer(ctx, env.tag)
				n.drainSelf(ctx)
			} else {
				n.receive(ctx, env.from, env.m)
			}
		}
		n.mailboxSpare = batch[:0]
		progress = true
	}
}

func (n *Node) run(halt, done chan struct{}) {
	defer close(done)
	defer n.parked.Store(false) // the next incarnation starts awake
	ctx := &nodeContext{node: n}
	n.handler.Start(ctx)
	n.drainSelf(ctx)
	// The reusable delivery buffer: one batched drain per queue per
	// sweep amortizes the atomic head/tail traffic that a
	// message-at-a-time sweep pays per delivery.
	buf := make([]msg.Message, sweepBatch)
	// A node without peer queues (TCP) parks at once: its input arrives
	// through reader goroutines, which need the processor a spin would
	// hold, rather than from a peer whose reply a spin could catch.
	spin := spinSweeps
	if n.in == nil {
		spin = 0
	}
	idle := 0
	for {
		select {
		case <-halt:
			return
		default:
		}
		progress := false
		// Drain the per-peer queues round-robin, up to sweepBatch
		// messages per queue per sweep, matching QC-libtask's scheduler
		// fairness.
		for i, q := range n.in {
			if q == nil {
				continue
			}
			k := q.DequeueInto(buf)
			for j := 0; j < k; j++ {
				n.receive(ctx, msg.NodeID(i), buf[j])
				buf[j] = nil // release the reference once delivered
			}
			if k > 0 {
				progress = true
			}
		}
		if n.drainMailbox(ctx) {
			progress = true
		}
		if progress {
			idle = 0
			continue
		}
		// Spin-then-park: tolerate a few empty sweeps (yielding between
		// them) before paying for a park/wake round trip — under load the
		// next message is usually already in flight.
		if idle < spin {
			idle++
			goruntime.Gosched()
			continue
		}
		idle = 0
		// Publish the parked flag, then recheck every input: a sender
		// that missed the flag must have enqueued before the recheck, so
		// either we see its message now or it sees parked=true and
		// notifies.
		n.parked.Store(true)
		if n.someInput() {
			n.parked.Store(false)
			continue
		}
		select {
		case <-n.wake:
			n.parked.Store(false)
		case <-halt:
			return
		case <-n.stop:
			return
		}
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
