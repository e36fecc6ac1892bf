package runtime

import (
	goruntime "runtime"
	"sync/atomic"

	"consensusinside/internal/msg"
	"consensusinside/internal/queue"
)

// spinSweeps is how many consecutive empty sweeps a core tolerates —
// yielding the processor between them — before parking on its wake
// channel. This is the paper's busy-poll made Go-friendly: a short spin
// catches the common case where a peer core's reply is already in flight
// (saving both sides a channel wakeup), while the park keeps idle cores
// from burning a processor the way a hardware busy-poll would
// ("preventing threads from spinning unnecessarily when waiting for
// messages", Section 8). With GOMAXPROCS 1 there is no other processor a
// reply could come from — spinning only steals cycles from the core
// whose reply is being awaited — so cores park immediately instead.
var spinSweeps = func() int {
	if goruntime.GOMAXPROCS(0) > 1 {
		return 8
	}
	return 0
}()

// core is one goroutine that runs several nodes, QC-libtask's model of
// tasks multiplexed on a core: it sweeps its nodes round-robin, delivers
// the messages they send each other through a FIFO it owns, and parks
// when all of them are idle. Every post to one of its nodes and every
// peer enqueue onto one of their queues wakes it.
type core struct {
	nodes []*Node
	// spin is spinSweeps when another core feeds a node of this one
	// through a peer queue, else 0: a core whose input arrives only
	// through mailboxes (every TCP node; a runtime on one core) has no
	// peer reply a spin could catch, and its posters — TCP readers,
	// callers, timer fires — need the processor a spin would hold.
	spin int
	// shared is set on a core that hosts more than one node; see run.
	shared bool

	wake chan struct{}
	// parked is set while the goroutine is blocked on wake; posters only
	// touch the wake channel when it is, so the steady-state message path
	// costs no channel operations.
	parked atomic.Bool
	// halting ends the goroutine at the top of its next sweep.
	halting atomic.Bool

	// local holds same-core sends: a node's send to a node on this core
	// skips the SPSC queue and is delivered after the callback that made
	// it, in FIFO order, like a self-send.
	local []localSend
	// backlog lists the links out of this core that hold sends their
	// queue had no room for; see link.
	backlog []*link

	done chan struct{}
}

// localSend is one same-core send awaiting delivery.
type localSend struct {
	from msg.NodeID
	to   *Node
	m    msg.Message
}

// link is the path of one sender's sends to a node on another core: the
// receiver's SPSC queue and, on the sending core, the sends that found
// it full. A send never waits for room — a sender spinning on a full
// queue would stop every node of its core, including any the receiving
// core is itself waiting on — so a full queue holds the rest here,
// oldest first, and every later send on the link queues behind them
// until the sending core has moved them all in.
type link struct {
	q        *queue.SPSC[msg.Message]
	from, to *Node
	// held[next:] waits for room; held[:next] has been moved in. Sending
	// core only.
	held []msg.Message
	next int
}

// send puts m on the link: straight into the queue while nothing is held
// back, else behind what is.
func (l *link) send(m msg.Message) {
	if len(l.held) == 0 {
		if l.q.TryEnqueue(m) {
			l.to.core.wakeIfParked()
			return
		}
		l.from.core.backlog = append(l.from.core.backlog, l)
	}
	l.held = append(l.held, m)
}

// newCore builds a core over nodes and makes it their core.
func newCore(nodes []*Node) *core {
	c := &core{nodes: nodes, shared: len(nodes) > 1, wake: make(chan struct{}, 1), done: make(chan struct{})}
	for _, n := range nodes {
		n.core = c
		for _, q := range n.in {
			if q != nil {
				c.spin = spinSweeps
			}
		}
	}
	return c
}

// start launches the core's goroutine: the only one the runtime starts.
func (c *core) start() { go c.run() }

func (c *core) wakeIfParked() {
	if c.parked.Load() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// halt ends the goroutine at the top of its next sweep and waits for it
// to exit; undelivered input stays where it is.
func (c *core) halt() {
	c.halting.Store(true)
	c.wakeIfParked()
	<-c.done
}

// drainLocal delivers the same-core FIFO by index, because delivered
// handlers commonly send more, and resets it. Each delivery is followed
// by its receiver's self-sends, as after any callback.
func (c *core) drainLocal() {
	for i := 0; i < len(c.local); i++ {
		s := c.local[i]
		c.local[i] = localSend{} // release the reference once delivered
		s.to.handler.Receive(s.to.ctx, s.from, s.m)
		msg.Release(s.m)
		if len(s.to.self) > 0 {
			s.to.drainSelf()
		}
	}
	c.local = c.local[:0]
}

// flush moves held sends into their queues as far as room allows, one
// tail publication per link, and keeps in the backlog the links still
// holding some.
func (c *core) flush() {
	kept := c.backlog[:0]
	for _, l := range c.backlog {
		if k := l.q.TryEnqueueBatch(l.held[l.next:]); k > 0 {
			l.to.core.wakeIfParked()
			clear(l.held[l.next : l.next+k]) // release the references
			l.next += k
		}
		if l.next < len(l.held) {
			kept = append(kept, l)
		} else {
			l.held, l.next = nil, 0 // a burst's buffer is not kept for the next one
		}
	}
	clear(c.backlog[len(kept):])
	c.backlog = kept
}

// hasInput reports whether a node has input or the core is halting —
// the final recheck between publishing parked=true and blocking, closing
// the race where a poster checks parked just before the core sets it.
func (c *core) hasInput() bool {
	for _, n := range c.nodes {
		if n.hasInput() {
			return true
		}
	}
	return c.halting.Load()
}

func (c *core) run() {
	defer close(c.done)
	// Every node starts before any same-core send is delivered: a node
	// never sees a message ahead of its own Start.
	for _, n := range c.nodes {
		n.begin()
	}
	c.drainLocal()
	// The reusable delivery buffer: one batched drain per queue per
	// sweep amortizes the atomic head/tail traffic that a
	// message-at-a-time sweep pays per delivery.
	buf := make([]msg.Message, sweepBatch)
	idle := 0
	for !c.halting.Load() {
		if len(c.backlog) > 0 {
			c.flush()
		}
		progress := false
		for _, n := range c.nodes {
			if n.sweep(buf) {
				progress = true
			}
		}
		if progress {
			idle = 0
			// A core that hosts several nodes rarely finds them all idle
			// under load, so it would almost never give up the processor
			// to the goroutines its nodes woke — callers whose results it
			// delivered — and they would hand in their next commands only
			// at a preemption, leaving the bridge's batches short. A
			// node on a core of its own parks as soon as it is idle.
			if c.shared {
				goruntime.Gosched()
			}
			continue
		}
		if len(c.backlog) > 0 {
			// Held sends wait for their receivers to make room, which
			// only polling sees.
			goruntime.Gosched()
			continue
		}
		// Spin-then-park: tolerate a few empty sweeps (yielding between
		// them) before paying for a park/wake round trip — under load the
		// next message is usually already in flight.
		if idle < c.spin {
			idle++
			goruntime.Gosched()
			continue
		}
		idle = 0
		// Publish the parked flag, then recheck every input: a poster that
		// missed the flag must have published its input before the
		// recheck, so either we see it now or it sees parked=true and
		// wakes us.
		c.parked.Store(true)
		if c.hasInput() {
			c.parked.Store(false)
			continue
		}
		<-c.wake
		c.parked.Store(false)
	}
}

// coreOf places node i of group g, an n-node group, on one of the k cores
// a runtime shares: ⌊pos·k/n⌋ spreads a group's positions over the cores
// in order, and the offset g rotates successive groups so that the cores
// carry the same load within one node. With k ≥ 2, position 0 and the
// positions from ⌈n/k⌉ on never share a core.
//
// Unpaired, or with k ≥ n, node i takes position i: a group's node 0
// (1Paxos's boot leader) and its boot acceptor run on different cores,
// and one group on k = n cores is one node per core. Paired — the
// caller's word that node n−1 is the group's client (a KV's bridge) and
// node n−2 its boot acceptor — and with k < n, the group is laid out in
// the order [0, n−1, 1, …, n−2]: the client shares node 0's core, so its
// request and reply never cross cores, and the boot acceptor, at
// position n−1, still lands off it — the paper's rule that the leader
// and the active acceptor run on different cores. The order is a
// permutation, so the per-core load is the same either way.
func coreOf(g, i, n, k int, paired bool) int {
	pos := i
	if paired && k < n && i > 0 {
		pos = i%(n-1) + 1 // n−1 → 1, i → i+1 below it
	}
	return (pos*k/n + g) % k
}
