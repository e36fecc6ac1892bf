package runtime

import (
	"fmt"
	"sync"
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

// WithTracer installs a command tracer: client requests crossing the
// in-process wire get their wire-send stage stamped (internal/trace).
// The tracer must be wired at construction — node goroutines start
// inside NewInProcCluster and read it unsynchronized from then on.
func WithTracer(tr *trace.Tracer) InProcOption {
	return func(c *inprocConfig) { c.tracer = tr }
}

// InProcCluster runs n Handlers on Nodes connected by per-pair SPSC
// queues — QC-libtask's topology (Figure 6 of the paper): two directed
// queues between every pair of nodes, head moved by the reader, tail by
// the writer, plus a wake-up signal so idle nodes park instead of
// spinning ("preventing threads from spinning unnecessarily when waiting
// for messages", Section 8).
type InProcCluster struct {
	nodes []*Node
	stop  chan struct{}

	// lifeMu guards node lifecycle transitions (StopNode, RestartNode,
	// Stop); the steady-state message path never takes it. down marks
	// the stopped nodes.
	lifeMu sync.Mutex
	down   []bool
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
		nodes: make([]*Node, n),
		stop:  make(chan struct{}),
		down:  make([]bool, n),
	}
	epoch := time.Now()
	for i := range c.nodes {
		from := msg.NodeID(i)
		node := NewNode(from, n, epoch, cfg.tracer, func(to msg.NodeID, m msg.Message) { c.enqueue(from, to, m) })
		node.in = make([]*queue.SPSC[msg.Message], n)
		for j := range node.in {
			if j != i {
				node.in[j] = queue.NewSPSC[msg.Message](queueCap)
			}
		}
		node.stop = c.stop
		c.nodes[i] = node
	}
	for i, node := range c.nodes {
		node.Start(handlers[i])
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
	return c.reincarnate(id, true, HandlerFunc{})
}

// RestartNode boots a fresh incarnation of node id with handler — the
// counterpart of StopNode. Messages that arrived while the node was
// down were discarded; anything still queued when the discarding loop
// retires is delivered to the new handler, which must tolerate stale
// protocol traffic (all engines do). It fails on an unknown or running
// node.
func (c *InProcCluster) RestartNode(id msg.NodeID, handler Handler) error {
	return c.reincarnate(id, false, handler)
}

// reincarnate retires node id's goroutine and starts one over handler,
// marking the node down (stopped) or up; it fails if it already is.
func (c *InProcCluster) reincarnate(id msg.NodeID, down bool, handler Handler) error {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return fmt.Errorf("runtime: no node %d", id)
	}
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	switch {
	case c.down[id] && down:
		return fmt.Errorf("runtime: node %d is already stopped", id)
	case !c.down[id] && !down:
		return fmt.Errorf("runtime: node %d is not stopped", id)
	}
	c.down[id] = down
	c.nodes[id].Halt()
	c.nodes[id].Start(handler)
	return nil
}

// Inject delivers a message to node to as if sent by node from. It is the
// entry point for external drivers (tests, examples) that are not
// themselves nodes. It posts to the node's mailbox, not a peer queue, so
// any goroutine may call it with any from id, and it never blocks.
func (c *InProcCluster) Inject(from, to msg.NodeID, m msg.Message) {
	if int(to) < 0 || int(to) >= len(c.nodes) {
		panic(fmt.Sprintf("runtime: inject to unknown node %d", to))
	}
	c.nodes[to].Post(from, m)
}

// Stop shuts down all node goroutines and waits for them to exit. Each
// node exits the next time it finds no input and parks, so a node
// spinning on a peer's full queue is drained, not stranded.
func (c *InProcCluster) Stop() {
	c.lifeMu.Lock()
	defer c.lifeMu.Unlock()
	close(c.stop)
	for _, n := range c.nodes {
		<-n.done
	}
}

// enqueue is an in-process node's peer transport: one SPSC enqueue onto
// the destination's queue from this sender, and a wakeup if it is parked.
func (c *InProcCluster) enqueue(from, to msg.NodeID, m msg.Message) {
	if int(to) < 0 || int(to) >= len(c.nodes) {
		panic(fmt.Sprintf("runtime: send to unknown node %d", to))
	}
	dst := c.nodes[to]
	dst.in[from].Enqueue(m)
	if dst.parked.Load() {
		dst.notify()
	}
}
