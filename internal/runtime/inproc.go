package runtime

import (
	"fmt"
	"sync"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/queue"
	"consensusinside/internal/trace"
)

// InProcOption configures an in-process cluster.
type InProcOption func(*inprocConfig)

type inprocConfig struct {
	tracer *trace.Tracer
	paired bool
}

// WithTracer installs a command tracer: client requests crossing the
// in-process wire get their wire-send stage stamped (internal/trace).
// The tracer must be wired at construction — cores start inside
// NewInProcGroups and read it unsynchronized from then on.
func WithTracer(tr *trace.Tracer) InProcOption {
	return func(c *inprocConfig) { c.tracer = tr }
}

// WithClientOnLeaderCore says that each group's last node is its client
// (a KV's bridge) and belongs on node 0's core; see coreOf.
func WithClientOnLeaderCore() InProcOption {
	return func(c *inprocConfig) { c.paired = true }
}

// InProcCluster runs groups of Handlers on cores — QC-libtask's model
// (Section 6 of the paper): a core is one goroutine multiplexing its
// nodes, and nodes on different cores are connected by two directed
// SPSC queues per pair (Figure 6), head moved by the reader, tail by the
// writer (what a full queue has no room for waits at the writer's core),
// plus a wake-up signal so idle cores park instead of spinning
// ("preventing threads from spinning unnecessarily when waiting for
// messages", Section 8). Nodes on one core pass messages through the
// core's FIFO instead. Groups never exchange messages; each has its own
// id space. The embedded InProcGroup is the first group — the only one
// of a NewInProcCluster.
type InProcCluster struct {
	*InProcGroup
	groups []*InProcGroup
	cores  []*core
}

// InProcGroup is one group of an InProcCluster: nodes 0..n-1 and the
// crash/restart lifecycle of each.
type InProcGroup struct {
	nodes []*Node
	// links[from][to] is the path between two nodes on different cores;
	// nil for a node and itself or two nodes of one core.
	links [][]*link

	// lifeMu guards node lifecycle transitions (StopNode, RestartNode);
	// the steady-state message path never takes it. down marks the
	// stopped nodes.
	lifeMu sync.Mutex
	down   []bool
}

// NewInProcCluster builds and starts one group running the given
// handlers, one node per core. Handler i becomes node i. Stop must be
// called to release the goroutines.
func NewInProcCluster(handlers []Handler, opts ...InProcOption) *InProcCluster {
	return NewInProcGroups([][]Handler{handlers}, len(handlers), opts...)
}

// NewInProcGroups builds and starts one group per entry of groups on at
// most cores goroutines; handler i of group g becomes its node i, on core
// coreOf(g, i, n, cores, paired), where paired is set by
// WithClientOnLeaderCore: the caller, not the runtime, decides whether a
// group's last node is a client to put on node 0's core. A group's node
// 0 and boot acceptor never share a core. Stop must be called to release
// the goroutines.
func NewInProcGroups(groups [][]Handler, cores int, opts ...InProcOption) *InProcCluster {
	if cores < 1 {
		panic(fmt.Sprintf("runtime: %d cores", cores))
	}
	var cfg inprocConfig
	for _, o := range opts {
		o(&cfg)
	}
	c := &InProcCluster{}
	hosted := make([][]*Node, cores)
	epoch := time.Now()
	for g, handlers := range groups {
		n := len(handlers)
		grp := &InProcGroup{nodes: make([]*Node, n), links: make([][]*link, n), down: make([]bool, n)}
		place := make([]int, n)
		for i := range place {
			place[i] = coreOf(g, i, n, cores, cfg.paired)
		}
		for i := range grp.nodes {
			from := msg.NodeID(i)
			node := NewNode(from, n, epoch, cfg.tracer, func(to msg.NodeID, m msg.Message) { grp.enqueue(from, to, m) })
			node.handler = handlers[i]
			node.in = make([]*queue.SPSC[msg.Message], n)
			grp.nodes[i] = node
			hosted[place[i]] = append(hosted[place[i]], node)
		}
		// A link per ordered pair on different cores; the mapping from
		// pair to path is fixed here, so every link keeps its FIFO order.
		for i, src := range grp.nodes {
			grp.links[i] = make([]*link, n)
			for j, dst := range grp.nodes {
				if place[i] != place[j] {
					l := &link{q: queue.NewSPSC[msg.Message](queueCap), from: src, to: dst}
					grp.links[i][j] = l
					dst.in[i] = l.q
				}
			}
		}
		c.groups = append(c.groups, grp)
	}
	if len(c.groups) > 0 {
		c.InProcGroup = c.groups[0]
	}
	for _, nodes := range hosted {
		if len(nodes) > 0 {
			c.cores = append(c.cores, newCore(nodes))
		}
	}
	for _, k := range c.cores {
		k.start()
	}
	return c
}

// Group returns group g, in the order NewInProcGroups was given.
func (c *InProcCluster) Group(g int) *InProcGroup { return c.groups[g] }

// SameCore reports whether nodes a and b of the group run on one core.
func (g *InProcGroup) SameCore(a, b msg.NodeID) bool { return g.nodes[a].core == g.nodes[b].core }

// Collect adds runtime.cross_core_msgs: every message that has entered a
// queue between two cores, read from the queues' tails, so counting adds
// nothing to the send path. Sends still held at their sender are not in
// it yet. Safe from any goroutine.
func (c *InProcCluster) Collect(s *obs.Snapshot) {
	var sent uint64
	for _, grp := range c.groups {
		for _, row := range grp.links {
			for _, l := range row {
				if l != nil {
					sent += l.q.Enqueued()
				}
			}
		}
	}
	s.Add("runtime.cross_core_msgs", int64(sent))
}

// StopNode crashes node id: its handler is gone for good, replaced on
// its core's goroutine by one that discards everything, so senders —
// whose sends would otherwise pile up behind a full queue — observe a
// lossy peer, exactly the TCP transport's crash semantics. RestartNode
// installs a fresh handler. It fails on an unknown or already-stopped
// node.
func (g *InProcGroup) StopNode(id msg.NodeID) error {
	return g.reincarnate(id, true, HandlerFunc{})
}

// RestartNode boots a fresh incarnation of node id with handler — the
// counterpart of StopNode. Messages that arrived while the node was
// down were discarded; anything still queued at the swap is delivered
// to the new handler, which must tolerate stale protocol traffic (all
// engines do). It fails on an unknown or running node.
func (g *InProcGroup) RestartNode(id msg.NodeID, handler Handler) error {
	return g.reincarnate(id, false, handler)
}

// reincarnate swaps node id's handler through its mailbox, marking the
// node down (stopped) or up; it fails if it already is.
func (g *InProcGroup) reincarnate(id msg.NodeID, down bool, handler Handler) error {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("runtime: no node %d", id)
	}
	g.lifeMu.Lock()
	defer g.lifeMu.Unlock()
	switch {
	case g.down[id] && down:
		return fmt.Errorf("runtime: node %d is already stopped", id)
	case !g.down[id] && !down:
		return fmt.Errorf("runtime: node %d is not stopped", id)
	}
	g.down[id] = down
	g.nodes[id].swapHandler(handler)
	return nil
}

// Inject delivers a message to node to as if sent by node from. It is the
// entry point for external drivers (tests, examples) that are not
// themselves nodes. It posts to the node's mailbox, not a peer queue, so
// any goroutine may call it with any from id, and it never blocks.
func (g *InProcGroup) Inject(from, to msg.NodeID, m msg.Message) {
	if int(to) < 0 || int(to) >= len(g.nodes) {
		panic(fmt.Sprintf("runtime: inject to unknown node %d", to))
	}
	g.nodes[to].Post(from, m)
}

// Stop shuts down every core, one after another, and waits for each to
// exit. No send ever waits on a receiver, so a core still running while
// another has stopped holds what it sends there and goes on until its
// own turn.
func (c *InProcCluster) Stop() {
	for _, k := range c.cores {
		k.halt()
	}
}

// enqueue is an in-process node's peer transport: a send on the link to
// a destination on another core (see link) or, for a destination on the
// sender's own core, one append to the core's FIFO.
func (g *InProcGroup) enqueue(from, to msg.NodeID, m msg.Message) {
	if int(to) < 0 || int(to) >= len(g.nodes) {
		panic(fmt.Sprintf("runtime: send to unknown node %d", to))
	}
	if l := g.links[from][to]; l != nil {
		l.send(m)
		return
	}
	dst := g.nodes[to]
	dst.core.local = append(dst.core.local, localSend{from: from, to: dst, m: m})
}
