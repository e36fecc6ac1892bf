// Package simnet simulates the paper's view of a many-core machine as a
// network (Section 3): cores are sequential actors, and the dominant cost
// of messaging is the *transmission delay* — the cycles the sending and
// receiving core each spend per message — rather than the propagation
// delay between caches.
//
// The simulator is a deterministic discrete-event system built on
// internal/simtime. For a message from core A to core B:
//
//	sendDone = cursor_A + Send×slow_A          (cursor advances per send)
//	arrival  = sendDone + Propagation(A,B)     (from the machine topology)
//	start    = max(arrival, busyUntil_B)
//	done     = start + (Recv+Handler)×slow_B   (then B's handler runs)
//
// Saturation therefore emerges exactly as in the paper: the throughput of
// an agreement protocol caps at the reciprocal of the per-commit busy time
// of its most loaded core (the leader), and slowing a core multiplies all
// of its costs.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/runtime"
	"consensusinside/internal/simtime"
	"consensusinside/internal/topology"
)

// CostModel fixes the per-message core-occupancy costs. All costs are
// multiplied by a core's slowdown factor.
type CostModel struct {
	// Send is the sender's busy time per message — the paper's measured
	// "transmission delay" (0.5 µs on the 48-core machine).
	Send time.Duration
	// Recv is the receiver's busy time to dequeue one message; the paper
	// observes it is very close to the send cost in QC-libtask.
	Recv time.Duration
	// Handler is the protocol compute charged per delivered message or
	// timer (request bookkeeping, proposal maps, state-machine apply).
	Handler time.Duration
	// SelfHandler is the compute for self-delivered messages between
	// collapsed roles on one node; such messages cross no node boundary
	// and pay no Send/Recv (Section 2.3, footnote on Collapsed Paxos).
	SelfHandler time.Duration
}

// ManyCore is the cost model calibrated against Section 3 of the paper
// (transmission 0.5 µs) and the Section 7.2 single-client latencies.
func ManyCore() CostModel {
	return CostModel{
		Send:        500 * time.Nanosecond,
		Recv:        500 * time.Nanosecond,
		Handler:     2350 * time.Nanosecond,
		SelfHandler: 600 * time.Nanosecond,
	}
}

// ManyCoreSlowMachine is the cost model for the paper's older 8-core
// machine (four dual-core 2.4 GHz Opterons with no shared L3), used for
// the slow-core experiments; per-message costs are higher because every
// cache-line transfer crosses sockets.
func ManyCoreSlowMachine() CostModel {
	return CostModel{
		Send:        900 * time.Nanosecond,
		Recv:        900 * time.Nanosecond,
		Handler:     4 * time.Microsecond,
		SelfHandler: time.Microsecond,
	}
}

// LAN is the cost model measured by the paper for the local-area setting:
// transmission ≈ 2 µs, propagation ≈ 135 µs, trans/prop ≈ 0.015.
// Propagation comes from the machine given to New; pair LAN with
// topology.Uniform(n, 135µs).
func LAN() CostModel {
	return CostModel{
		Send:        2 * time.Microsecond,
		Recv:        2 * time.Microsecond,
		Handler:     2350 * time.Nanosecond,
		SelfHandler: 600 * time.Nanosecond,
	}
}

// LANPropagation is the propagation delay the paper measured for its LAN.
const LANPropagation = 135 * time.Microsecond

// CoreStats aggregates per-core message accounting, the quantity the
// paper's analysis revolves around (messages processed per core).
type CoreStats struct {
	Sent     int64
	Received int64
	SelfMsgs int64
	Timers   int64
	Dropped  int64 // messages discarded: receiver crashed, or link severed (counted at the sender)
	BusyTime time.Duration
}

// PerturbFunc decides per-message network faults for a message about to
// leave a sender: extra propagation delay (message delay, and — because
// per-pair ordering is by arrival time — reordering) and outright loss.
// It runs after the partition check, inside the deterministic event
// loop, so a fixed function of its inputs plus a seeded RNG replays
// byte-for-byte. Dropped messages still charge the sender's send cost
// (the loss is in flight, not at the NIC) and count in its Dropped stat.
type PerturbFunc func(from, to msg.NodeID, m msg.Message) (extraDelay time.Duration, drop bool)

// Network is one simulated machine running a set of Handler nodes.
type Network struct {
	eng     *simtime.Engine
	machine *topology.Machine
	cost    CostModel
	cores   []*core
	cut     map[[2]msg.NodeID]bool // severed links (normalized pairs)
	perturb PerturbFunc
}

type inboxItem struct {
	from  msg.NodeID
	m     msg.Message // nil for timers
	tag   runtime.TimerTag
	timer bool
	dead  *bool // timer cancellation flag; nil for messages
}

type core struct {
	net       *Network
	id        msg.NodeID
	handler   runtime.Handler
	inbox     []inboxItem
	busyUntil time.Duration
	cursor    time.Duration // execution cursor while a handler runs
	inHandler bool
	scheduled bool
	slow      float64
	crashed   bool
	stats     CoreStats
	ctx       *coreContext
}

// New builds an empty network over the given machine and cost model.
// seed drives every random decision in the simulation.
func New(machine *topology.Machine, cost CostModel, seed int64) *Network {
	return &Network{
		eng:     simtime.NewEngine(seed),
		machine: machine,
		cost:    cost,
	}
}

// AddNode places h on the next free core and returns its id. Nodes must
// all be added before Start. Adding more nodes than the machine has cores
// panics: the experiment configuration is wrong.
func (n *Network) AddNode(h runtime.Handler) msg.NodeID {
	if len(n.cores) >= n.machine.Cores() {
		panic(fmt.Sprintf("simnet: machine %q has only %d cores", n.machine.Name(), n.machine.Cores()))
	}
	c := &core{
		net:     n,
		id:      msg.NodeID(len(n.cores)),
		handler: h,
		slow:    1,
	}
	c.ctx = &coreContext{core: c}
	n.cores = append(n.cores, c)
	return c.id
}

// Start invokes every handler's Start callback at virtual time zero.
func (n *Network) Start() {
	for _, c := range n.cores {
		c := c
		n.eng.Schedule(0, func() { c.runStart() })
	}
}

// Engine exposes the underlying event engine.
func (n *Network) Engine() *simtime.Engine { return n.eng }

// Machine reports the simulated machine.
func (n *Network) Machine() *topology.Machine { return n.machine }

// Cost reports the cost model in use.
func (n *Network) Cost() CostModel { return n.cost }

// Now reports current virtual time.
func (n *Network) Now() time.Duration { return n.eng.Now() }

// RunFor advances the simulation until virtual time t (from zero).
func (n *Network) RunFor(t time.Duration) { n.eng.RunUntil(t) }

// At schedules fn at absolute virtual time t — the injection point for
// failure schedules.
func (n *Network) At(t time.Duration, fn func()) { n.eng.Schedule(t, fn) }

// SetSlow multiplies all future costs of core id by factor (>= 1). The
// paper's slow cores (8 CPU-hog processes sharing the core) correspond to
// factor ≈ 9.
func (n *Network) SetSlow(id msg.NodeID, factor float64) {
	if factor < 1 {
		factor = 1
	}
	n.cores[id].slow = factor
}

// Crash pauses core id: the paper's "crash", a core unresponsive for
// arbitrarily long. It drops every current and future message, but it
// keeps its timers, which are part of its memory: one that comes due
// while the core is paused waits in its inbox until Recover.
func (n *Network) Crash(id msg.NodeID) {
	c := n.cores[id]
	c.crashed = true
	c.dropMessages()
}

// Recover lets a crashed core run again. Its protocol state is whatever
// it was at crash time (cores do not lose memory; the paper's
// fresh-acceptor discussion covers the state-loss case explicitly via the
// MustBeFresh handshake, which tests exercise directly), and the timers
// that came due meanwhile fire first, once each, in deadline order.
func (n *Network) Recover(id msg.NodeID) {
	c := n.cores[id]
	c.crashed = false
	if len(c.inbox) > 0 {
		c.schedule(n.eng.Now())
	}
}

// Crashed reports whether core id is crashed.
func (n *Network) Crashed(id msg.NodeID) bool { return n.cores[id].crashed }

// Partition severs the link between a and b in both directions: every
// message sent across it after the cut is dropped at the sender
// (counted in its Dropped stat); messages already in flight still
// arrive. Both nodes keep running — unlike Crash, which silences a node
// toward everyone — so tests can stage asymmetric connectivity (an old
// leader that its clients still reach but its peers do not).
func (n *Network) Partition(a, b msg.NodeID) {
	if n.cut == nil {
		n.cut = make(map[[2]msg.NodeID]bool)
	}
	n.cut[linkKey(a, b)] = true
}

// Heal restores a link severed by Partition.
func (n *Network) Heal(a, b msg.NodeID) { delete(n.cut, linkKey(a, b)) }

// SetPerturb installs (or, with nil, removes) the per-message delivery
// perturbation — the hook fault schedules use for message delay,
// reordering and loss (internal/faultsched). Self-deliveries and timers
// are never perturbed: they model a core talking to itself.
func (n *Network) SetPerturb(fn PerturbFunc) { n.perturb = fn }

// linkKey normalizes an unordered node pair.
func linkKey(a, b msg.NodeID) [2]msg.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]msg.NodeID{a, b}
}

// Stats returns a snapshot of core id's counters.
func (n *Network) Stats(id msg.NodeID) CoreStats {
	return n.cores[id].stats
}

// NumNodes reports how many nodes were added.
func (n *Network) NumNodes() int { return len(n.cores) }

// Inject delivers m to node to as if sent by from, at the current virtual
// time, charging no sender cost. Test and experiment drivers use it to
// stimulate nodes from outside the simulation; receivers pay the normal
// receive cost.
func (n *Network) Inject(from, to msg.NodeID, m msg.Message) {
	dst := n.cores[to]
	if dst.crashed {
		dst.stats.Dropped++
		return
	}
	dst.enqueue(inboxItem{from: from, m: m}, n.eng.Now())
}

// send models the full cost pipeline for one message.
func (n *Network) send(from *core, to msg.NodeID, m msg.Message) {
	if int(to) < 0 || int(to) >= len(n.cores) {
		panic(fmt.Sprintf("simnet: send to unknown node %d", to))
	}
	dst := n.cores[to]
	if from.id == to {
		// Collapsed-role self delivery: no node boundary crossed.
		from.stats.SelfMsgs++
		from.enqueue(inboxItem{from: from.id, m: m}, from.cursor)
		return
	}
	if n.cut[linkKey(from.id, to)] {
		from.stats.Dropped++
		return
	}
	sendCost := scale(n.cost.Send, from.slow)
	from.cursor += sendCost
	from.stats.Sent++
	from.stats.BusyTime += sendCost
	var extra time.Duration
	if n.perturb != nil {
		var drop bool
		if extra, drop = n.perturb(from.id, to, m); drop {
			// Lost in flight: the sender already paid its send cost.
			from.stats.Dropped++
			return
		}
	}
	arrival := from.cursor + extra + n.machine.Propagation(topology.CoreID(from.id), topology.CoreID(to))
	n.eng.Schedule(arrival, func() {
		if dst.crashed {
			dst.stats.Dropped++
			return
		}
		dst.enqueue(inboxItem{from: from.id, m: m}, n.eng.Now())
	})
}

// enqueue appends an item to the core's inbox and makes sure a processing
// event is scheduled.
func (c *core) enqueue(item inboxItem, now time.Duration) {
	c.inbox = append(c.inbox, item)
	c.schedule(now)
}

func (c *core) schedule(now time.Duration) {
	if c.scheduled || c.inHandler {
		return
	}
	at := c.busyUntil
	if at < now {
		at = now
	}
	c.scheduled = true
	c.net.eng.Schedule(at, c.processOne)
}

// dropMessages discards the inbox's messages, keeping its timers in
// order, and counts the messages in Dropped.
func (c *core) dropMessages() {
	kept := c.inbox[:0]
	for _, item := range c.inbox {
		if item.timer {
			kept = append(kept, item)
		}
	}
	c.stats.Dropped += int64(len(c.inbox) - len(kept))
	clear(c.inbox[len(kept):])
	c.inbox = kept
}

// processOne pops and handles the oldest inbox item. A crashed core
// handles nothing; its timers wait for Recover.
func (c *core) processOne() {
	c.scheduled = false
	if c.crashed {
		c.dropMessages()
		return
	}
	if len(c.inbox) == 0 {
		return
	}
	item := c.inbox[0]
	c.inbox = c.inbox[1:]
	now := c.net.eng.Now()
	start := c.busyUntil
	if start < now {
		start = now
	}
	switch {
	case item.timer:
		if item.dead != nil && *item.dead {
			// Cancelled timer: costs nothing.
		} else {
			cost := scale(c.net.cost.Handler, c.slow)
			c.run(start, cost, func() { c.handler.Timer(c.ctx, item.tag) })
			c.stats.Timers++
		}
	case item.from == c.id:
		cost := scale(c.net.cost.SelfHandler, c.slow)
		c.run(start, cost, func() { c.handler.Receive(c.ctx, item.from, item.m) })
	default:
		cost := scale(c.net.cost.Recv+c.net.cost.Handler, c.slow)
		c.run(start, cost, func() { c.handler.Receive(c.ctx, item.from, item.m) })
		c.stats.Received++
	}
	if len(c.inbox) > 0 {
		c.schedule(c.net.eng.Now())
	}
}

// run executes fn with the core's cursor advanced past the fixed cost;
// sends made by fn push the cursor further. busyUntil ends where the
// cursor ends.
func (c *core) run(start, fixedCost time.Duration, fn func()) {
	c.cursor = start + fixedCost
	c.stats.BusyTime += fixedCost
	c.inHandler = true
	fn()
	c.inHandler = false
	c.busyUntil = c.cursor
	if len(c.inbox) > 0 {
		c.schedule(c.net.eng.Now())
	}
}

func (c *core) runStart() {
	c.run(c.net.eng.Now(), scale(c.net.cost.Handler, c.slow), func() { c.handler.Start(c.ctx) })
}

func scale(d time.Duration, factor float64) time.Duration {
	if factor == 1 {
		return d
	}
	return time.Duration(float64(d) * factor)
}

type coreContext struct {
	core *core
}

var _ runtime.Context = (*coreContext)(nil)

func (ctx *coreContext) ID() msg.NodeID { return ctx.core.id }
func (ctx *coreContext) N() int         { return len(ctx.core.net.cores) }

// Now reports the core's execution cursor while inside a handler, so
// consecutive sends observe advancing time, and the engine clock otherwise.
func (ctx *coreContext) Now() time.Duration {
	if ctx.core.inHandler {
		return ctx.core.cursor
	}
	return ctx.core.net.eng.Now()
}

func (ctx *coreContext) Rand() *rand.Rand { return ctx.core.net.eng.Rand() }

func (ctx *coreContext) Send(to msg.NodeID, m msg.Message) {
	ctx.core.net.send(ctx.core, to, m)
}

func (ctx *coreContext) After(d time.Duration, tag runtime.TimerTag) runtime.CancelFunc {
	c := ctx.core
	dead := new(bool)
	at := c.cursor + d
	if !c.inHandler {
		at = c.net.eng.Now() + d
	}
	c.net.eng.Schedule(at, func() {
		if *dead {
			return
		}
		c.enqueue(inboxItem{timer: true, tag: tag, dead: dead}, c.net.eng.Now())
	})
	return func() { *dead = true }
}
