// Package runtime defines the execution contract shared by every node in
// this repository — the Go analogue of the paper's QC-libtask layer
// (Section 6): nodes exchange messages through per-pair queues and react
// to message arrival and timer expiry, never to shared memory.
//
// A protocol is written once as a Handler and runs unchanged on three
// runtimes:
//
//   - the deterministic many-core simulator (internal/simnet), used by all
//     experiments;
//   - the in-process runtime in this package, whose cores (goroutines
//     that each multiplex several nodes), per-pair SPSC slot queues and
//     wake-up signalling mirror QC-libtask's design (user-level threads
//     on a core with a blocking read interface, no OS locks on the
//     message path);
//   - the TCP transport (internal/transport), the paper's "easily ported
//     to a network system" claim.
//
// The two real runtimes share one Node — sweep, Context, mailbox, timers
// and self-sends — run by a core, and differ only in the peer transport
// under it: SPSC queues in-process, sockets over TCP.
package runtime

import (
	"math/rand"
	"time"

	"consensusinside/internal/msg"
)

// TimerTag identifies a timer to the handler that set it. Kind is a
// protocol-defined enum; Arg carries an optional payload such as an
// instance number or transaction id.
type TimerTag struct {
	Kind int
	Arg  int64
}

// CancelFunc cancels a pending timer. Cancelling an expired timer is a
// no-op. It is only safe to call from the node's own execution context.
type CancelFunc func()

// Context is the face a runtime shows to a Handler. All methods are only
// valid during Start, Receive or Timer callbacks, on the callback's
// goroutine.
type Context interface {
	// ID is this node's identity.
	ID() msg.NodeID
	// N is the total number of nodes in the cluster.
	N() int
	// Now is the current time: virtual time on the simulator, wall-clock
	// time since cluster start on the real runtimes.
	Now() time.Duration
	// Send transmits m to node to. Sends to self are delivered (for
	// collapsed roles) without crossing the node boundary.
	Send(to msg.NodeID, m msg.Message)
	// After arranges a Timer callback with the given tag after d.
	After(d time.Duration, tag TimerTag) CancelFunc
	// Rand is a per-cluster deterministic random source on the simulator
	// and a seeded source on real runtimes.
	Rand() *rand.Rand
}

// Handler is a protocol node. Callbacks are serialized per node: a node
// never observes two callbacks concurrently, which is the actor model the
// simulator's determinism and the protocols' unguarded state depend on.
type Handler interface {
	// Start runs once before any message is delivered.
	Start(ctx Context)
	// Receive delivers one message from node from.
	Receive(ctx Context, from msg.NodeID, m msg.Message)
	// Timer delivers an expired timer set through Context.After.
	Timer(ctx Context, tag TimerTag)
}

// HandlerFunc adapts plain functions to Handler for tests and examples.
type HandlerFunc struct {
	OnStart   func(ctx Context)
	OnReceive func(ctx Context, from msg.NodeID, m msg.Message)
	OnTimer   func(ctx Context, tag TimerTag)
}

// Start implements Handler.
func (h HandlerFunc) Start(ctx Context) {
	if h.OnStart != nil {
		h.OnStart(ctx)
	}
}

// Receive implements Handler.
func (h HandlerFunc) Receive(ctx Context, from msg.NodeID, m msg.Message) {
	if h.OnReceive != nil {
		h.OnReceive(ctx, from, m)
	}
}

// Timer implements Handler.
func (h HandlerFunc) Timer(ctx Context, tag TimerTag) {
	if h.OnTimer != nil {
		h.OnTimer(ctx, tag)
	}
}
