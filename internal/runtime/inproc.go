package runtime

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/queue"
	"consensusinside/internal/trace"
)

// InProcOption configures an in-process cluster.
type InProcOption func(*inprocConfig)

type inprocConfig struct {
	tracer *trace.Tracer
}

// queueCap is the per-pair SPSC queue depth. The paper uses 7 slots;
// this is larger because, unlike the paper's C runtime, a Go handler
// blocked on a full queue holds its goroutine, and deep pipelines
// between protocol roles are cheap in memory.
const queueCap = 1024

// WithTracer installs a command tracer: client requests crossing the
// in-process wire get their wire-send stage stamped (internal/trace).
// The tracer must be wired at construction — node goroutines start
// inside NewInProcCluster and read it unsynchronized from then on.
func WithTracer(tr *trace.Tracer) InProcOption {
	return func(c *inprocConfig) { c.tracer = tr }
}

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

// InProcCluster runs n Handlers on goroutines connected by per-pair SPSC
// queues — QC-libtask's topology (Figure 6 of the paper): two directed
// queues between every pair of nodes, head moved by the reader, tail by
// the writer, plus a wake-up signal so idle nodes park instead of
// spinning ("preventing threads from spinning unnecessarily when waiting
// for messages", Section 8).
type InProcCluster struct {
	nodes  []*inprocNode
	start  time.Time
	tracer *trace.Tracer
	stop   chan struct{}
	wg     sync.WaitGroup

	// lifeMu guards per-node crash/restart transitions (StopNode,
	// RestartNode); the steady-state message path never takes it.
	lifeMu sync.Mutex
}

// envelope is one mailbox entry: a message from an external driver, or
// — timer set — an expired timer's tag, carried inline so a fire boxes
// nothing.
type envelope struct {
	from  msg.NodeID
	m     msg.Message
	tag   TimerTag
	timer bool
}

type inprocNode struct {
	cluster *InProcCluster
	id      msg.NodeID
	handler Handler
	// in[i] is the queue carrying messages from node i to this node. The
	// sender identity is the queue index, so the slots carry the bare
	// message.
	in   []*queue.SPSC[msg.Message]
	wake chan struct{}
	rng  *rand.Rand

	// parked is set while the node goroutine is blocked on wake; senders
	// only touch the wake channel when it is, so the steady-state message
	// path costs no channel operations.
	parked atomic.Bool

	// self holds self-sends: ctx.Send(own id) is produced and consumed
	// on the node's own goroutine (collapsed roles looping a message to
	// themselves), so a plain slice does — no lock, no wakeup, no bound to
	// overflow. Handoff between a crashed incarnation, the discarding one
	// and the restarted one is ordered by the done channel.
	self []msg.Message

	// inbox is the node's one mailbox for everything that is not a peer
	// queue: external Inject traffic (driver goroutines that are not
	// nodes) and timer fires. It is unbounded, so a poster never blocks on
	// a stalled node; inboxPending makes the empty check lock-free.
	// inboxSpare is the previously-drained buffer, swapped back in on
	// the next drain so the ping-pong steady state (inject, drain,
	// inject, ...) reuses two backing arrays instead of allocating one
	// per drain cycle. Only the node goroutine touches inboxSpare.
	mu           sync.Mutex
	inbox        []envelope
	inboxSpare   []envelope
	inboxPending atomic.Bool

	// Crash/restart bookkeeping (guarded by cluster.lifeMu): halt stops
	// this incarnation's goroutine, done reports it exited. A stopped
	// node (down) runs the same loop over a handler that discards.
	halt chan struct{}
	done chan struct{}
	down bool
}

// NewInProcCluster builds and starts a cluster running the given handlers.
// Handler i becomes node i. Stop must be called to release the goroutines.
func NewInProcCluster(handlers []Handler, opts ...InProcOption) *InProcCluster {
	var cfg inprocConfig
	for _, o := range opts {
		o(&cfg)
	}
	n := len(handlers)
	c := &InProcCluster{
		start:  time.Now(),
		stop:   make(chan struct{}),
		tracer: cfg.tracer,
	}
	c.nodes = make([]*inprocNode, n)
	for i := range c.nodes {
		c.nodes[i] = &inprocNode{
			cluster: c,
			id:      msg.NodeID(i),
			in:      make([]*queue.SPSC[msg.Message], n),
			wake:    make(chan struct{}, 1),
			rng:     rand.New(rand.NewSource(1 + int64(i))),
		}
	}
	for i, node := range c.nodes {
		for j := range node.in {
			if j != i {
				node.in[j] = queue.NewSPSC[msg.Message](queueCap)
			}
		}
	}
	for i, node := range c.nodes {
		node.start(handlers[i])
	}
	return c
}

// StopNode crashes node id: its handler is gone for good and the node
// loop keeps running over one that discards everything, so senders —
// whose bounded SPSC enqueues would otherwise spin on a full queue —
// observe a lossy peer, exactly the TCP transport's crash semantics.
// RestartNode installs a fresh handler. It fails on an unknown or
// already-stopped node.
func (c *InProcCluster) StopNode(id msg.NodeID) error {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return fmt.Errorf("runtime: no node %d", id)
	}
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	n := c.nodes[id]
	if n.down {
		return fmt.Errorf("runtime: node %d is already stopped", id)
	}
	n.down = true
	n.reincarnate(HandlerFunc{})
	return nil
}

// RestartNode boots a fresh incarnation of node id with handler — the
// counterpart of StopNode. Messages that arrived while the node was
// down were discarded; anything still queued when the discarding loop
// retires is delivered to the new handler, which must tolerate stale
// protocol traffic (all engines do). It fails on an unknown or running
// node.
func (c *InProcCluster) RestartNode(id msg.NodeID, handler Handler) error {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return fmt.Errorf("runtime: no node %d", id)
	}
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	n := c.nodes[id]
	if !n.down {
		return fmt.Errorf("runtime: node %d is not stopped", id)
	}
	n.down = false
	n.reincarnate(handler)
	return nil
}

// reincarnate retires the node's goroutine and starts a new one over
// handler. Exactly one goroutine consumes the SPSC queues at any time:
// the old one has closed done before the new one starts. Callers hold
// cluster.lifeMu.
func (n *inprocNode) reincarnate(handler Handler) {
	close(n.halt) // observed at the top of a sweep or in the parked select
	<-n.done
	n.start(handler)
}

// start launches the node's goroutine over handler.
func (n *inprocNode) start(handler Handler) {
	n.handler = handler
	n.halt = make(chan struct{})
	n.done = make(chan struct{})
	n.cluster.wg.Add(1)
	go n.run(n.halt, n.done)
}

// N reports the cluster size.
func (c *InProcCluster) N() int { return len(c.nodes) }

// Inject delivers a message to node to as if sent by node from. It is the
// entry point for external drivers (tests, examples) that are not
// themselves nodes. The from id must not belong to a running node unless
// that node itself is the caller, to preserve the SPSC invariant; external
// drivers should use ids >= N or the reserved msg.Nobody.
func (c *InProcCluster) Inject(from, to msg.NodeID, m msg.Message) {
	if int(to) < 0 || int(to) >= len(c.nodes) {
		panic(fmt.Sprintf("runtime: inject to unknown node %d", to))
	}
	c.nodes[to].post(envelope{from: from, m: m})
}

// post appends env to the node's mailbox and wakes the node. Safe from
// any goroutine; never blocks on the node.
func (n *inprocNode) post(env envelope) {
	n.mu.Lock()
	n.inbox = append(n.inbox, env)
	n.inboxPending.Store(true)
	n.mu.Unlock()
	n.notify()
}

// Stop shuts down all node goroutines and waits for them to exit.
func (c *InProcCluster) Stop() {
	close(c.stop)
	for _, n := range c.nodes {
		n.notify()
	}
	c.wg.Wait()
}

func (c *InProcCluster) send(from, to msg.NodeID, m msg.Message) {
	if c.tracer.Enabled() {
		if req, ok := m.(msg.ClientRequest); ok {
			c.tracer.MarkWire(req, time.Since(c.start))
		}
	}
	if int(to) < 0 || int(to) >= len(c.nodes) {
		panic(fmt.Sprintf("runtime: send to unknown node %d", to))
	}
	dst := c.nodes[to]
	if from == to {
		// A self-send runs on the node's own goroutine (collapsed roles)
		// and needs no wakeup: the node is by definition awake, and the
		// slice is swept before any park decision.
		dst.self = append(dst.self, m)
		return
	}
	dst.in[from].Enqueue(m)
	if dst.parked.Load() {
		dst.notify()
	}
}

func (n *inprocNode) notify() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// someInput reports whether any input source has work — the final
// recheck between publishing parked=true and blocking on wake, closing
// the race where a sender checks parked just before the node sets it.
func (n *inprocNode) someInput() bool {
	for _, q := range n.in {
		if q != nil && q.Len() > 0 {
			return true
		}
	}
	return len(n.self) > 0 || n.inboxPending.Load()
}

// drainInbox delivers the mailbox — Inject traffic and timer fires, in
// arrival order; the pending flag keeps the steady-state sweep from
// touching the mutex. Each pass takes the whole pending slice in one
// lock hold and swaps the spare buffer in, so producers keep appending
// into reused capacity while the batch is delivered lock-free.
func (n *inprocNode) drainInbox(ctx Context) bool {
	if !n.inboxPending.Load() {
		return false
	}
	progress := false
	for {
		n.mu.Lock()
		if len(n.inbox) == 0 {
			n.inboxPending.Store(false)
			n.mu.Unlock()
			return progress
		}
		batch := n.inbox
		n.inbox = n.inboxSpare[:0]
		n.mu.Unlock()
		for i := range batch {
			env := batch[i]
			batch[i] = envelope{} // release the message reference
			if env.timer {
				n.handler.Timer(ctx, env.tag)
			} else {
				n.handler.Receive(ctx, env.from, env.m)
			}
		}
		n.inboxSpare = batch[:0]
		progress = true
	}
}

// drainSelf delivers the self-sends by index, because delivered
// handlers commonly push more, and resets the slice once it is empty.
// Exhausting it before peer queues get their next turn keeps a collapsed
// role's loopback ahead of new peer traffic, in FIFO order.
func (n *inprocNode) drainSelf(ctx Context) bool {
	if len(n.self) == 0 {
		return false
	}
	for i := 0; i < len(n.self); i++ {
		m := n.self[i]
		n.self[i] = nil // release the reference once delivered
		n.handler.Receive(ctx, n.id, m)
	}
	n.self = n.self[:0]
	return true
}

func (n *inprocNode) run(halt, done chan struct{}) {
	defer n.cluster.wg.Done()
	defer close(done)
	ctx := &inprocContext{node: n}
	n.handler.Start(ctx)
	// The reusable delivery buffer: one batched drain per queue per
	// sweep amortizes the atomic head/tail traffic that a
	// message-at-a-time sweep pays per delivery.
	buf := make([]msg.Message, sweepBatch)
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
				n.handler.Receive(ctx, msg.NodeID(i), buf[j])
				buf[j] = nil // release the reference once delivered
			}
			if k > 0 {
				progress = true
			}
		}
		if n.drainSelf(ctx) {
			progress = true
		}
		if n.drainInbox(ctx) {
			progress = true
		}
		if progress {
			idle = 0
			continue
		}
		// Spin-then-park: tolerate a few empty sweeps (yielding between
		// them) before paying for a park/wake round trip — under load the
		// next message is usually already in flight.
		if idle < spinSweeps {
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
			n.parked.Store(false)
			return
		case <-n.cluster.stop:
			n.parked.Store(false)
			return
		}
	}
}

type inprocContext struct {
	node *inprocNode
}

var _ Context = (*inprocContext)(nil)

func (c *inprocContext) ID() msg.NodeID     { return c.node.id }
func (c *inprocContext) N() int             { return len(c.node.cluster.nodes) }
func (c *inprocContext) Now() time.Duration { return time.Since(c.node.cluster.start) }
func (c *inprocContext) Rand() *rand.Rand   { return c.node.rng }

func (c *inprocContext) Send(to msg.NodeID, m msg.Message) {
	c.node.cluster.send(c.node.id, to, m)
}

func (c *inprocContext) After(d time.Duration, tag TimerTag) CancelFunc {
	// The fire goes to the unbounded mailbox: the callback goroutine
	// never blocks on a stalled node, and no tag is ever dropped.
	node := c.node
	t := time.AfterFunc(d, func() { node.post(envelope{tag: tag, timer: true}) })
	return func() { t.Stop() }
}
