// Package multipaxos implements collapsed Multi-Paxos (Section 2.3 of the
// paper), the baseline the paper calls "arguably the most efficient
// consensus protocol to date": every replica plays proposer, acceptor and
// learner; a stable leader skips phase 1 after winning it once and drives
// one accept round per command; learners learn an instance after
// acceptances from a majority of acceptors.
//
// The structural difference from 1Paxos (Figure 3) is that the accept and
// learn traffic touches *every* acceptor: with three replicas the leader
// node sends/receives roughly twice the messages per agreement that the
// 1Paxos leader does, which is exactly the effect the paper's evaluation
// measures.
package multipaxos

import (
	"time"

	"consensusinside/internal/basicpaxos"
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/replica"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
)

// Timer kinds.
const timerRetryPrepare = 2

// Defaults for protocol.Config zero values.
const (
	DefaultAcceptTimeout  = 400 * time.Microsecond
	DefaultPrepareBackoff = 200 * time.Microsecond
)

// Replica is one collapsed Multi-Paxos node. The embedded shell owns the
// learner log, sessions, recovery, the read path and the leader book
// (proposals, queued requests, the accept deadline); what is declared
// here is agreement state only.
type Replica struct {
	replica.Shell

	// Proposer state. Who leads is the shell's regime (a ballot won or
	// seen in an accept); IsLeader is a won phase 1 not stepped down.
	preparing bool
	myPN      uint64
	maxPNSeen uint64
	promises  map[msg.NodeID]bool
	carried   map[int64]msg.Proposal // highest-pn accepted values from promises

	// Acceptor state.
	hpn uint64
	ap  replica.Accepted

	// noopFloor is the highest compaction floor carried by any promise:
	// instances below it were decided and compacted at a peer, so a
	// winning proposer must wait for the catch-up push rather than fill
	// them with no-ops (the book's floor, raised when this node leads).
	noopFloor int64

	takeovers int64
}

var _ runtime.Handler = (*Replica)(nil)

// New builds a Replica from a configuration protocol.Build validated.
// Replicas[0] is the initial leader; AcceptTimeout bounds how long the
// leader waits for an instance to be learned before retransmitting its
// accept, and TakeoverBackoff delays prepare retries after a lost duel.
func New(cfg protocol.Config) *Replica {
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = DefaultAcceptTimeout
	}
	if cfg.TakeoverBackoff == 0 {
		cfg.TakeoverBackoff = DefaultPrepareBackoff
	}
	r := &Replica{
		promises: make(map[msg.NodeID]bool),
		carried:  make(map[int64]msg.Proposal),
	}
	// Read rounds are confirmed by a quorum of peers: any committed write
	// crossed a majority of acceptors, each of which recorded its leader,
	// so quorum intersection guarantees a refusal if a newer leader has
	// committed anything.
	r.Init(cfg, replica.Agreement{
		Boot:         replica.Regime{Leader: cfg.Replicas[0], Acceptor: msg.Nobody},
		LeaseCapable: true,
		Grant:        func(from msg.NodeID) bool { return r.Regime().Leader == from },
		// A freshly-won leadership is invisible to peers until an accept
		// reaches them; committing a no-op makes the next round confirm.
		Establish: func() {
			if r.IsLeader() {
				r.Book.Propose(msg.Value{Client: msg.Nobody, Cmd: msg.Command{Op: msg.OpNoop}})
			}
		},
		Accept:         r.broadcastAccept,
		MajorityAccept: true,
		// Retransmit; acceptors re-broadcast learns for duplicates.
		Overdue: func(instances []int64) {
			if r.IsLeader() {
				for _, in := range instances {
					r.Book.Resend(in)
				}
			}
		},
	})
	return r
}

// Start launches phase 1 on the initial leader; Multi-Paxos pays the
// prepare round once and then leads every subsequent instance
// (Section 2.3: "After a proposer p takes the leadership position for one
// instance, it could be more efficient if p assumes this position for the
// next Paxos instance as well").
func (r *Replica) Start(ctx runtime.Context) {
	r.Shell.Start(ctx)
	// A recovering replica rejoins as a follower: it must learn what the
	// group decided before it may compete for leadership.
	if r.Me == r.Replicas[0] && !r.Cfg.Recover {
		r.startPrepare()
	}
}

// Receive dispatches one message.
func (r *Replica) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	if r.Route(ctx, from, m) {
		return
	}
	switch mm := msg.Boxed(m).(type) {
	case *msg.ClientRequest:
		r.onClientRequest(from, mm)
	case msg.MPPrepare:
		r.onPrepare(from, mm)
	case msg.Promise:
		r.onPromise(from, mm)
	case *msg.Accept:
		r.onAccept(from, mm)
	case msg.Accepted:
		r.onAccepted(mm)
	case msg.MPNack:
		r.onNack(mm)
	}
}

// Timer dispatches one timer.
func (r *Replica) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	if r.RouteTimer(ctx, tag) {
		return
	}
	if tag.Kind == timerRetryPrepare && !r.IsLeader() && r.Book.Queued() > 0 {
		r.startPrepare()
	}
}

// --- Client path ---

func (r *Replica) onClientRequest(from msg.NodeID, req *msg.ClientRequest) {
	entries := r.Admit(req)
	if len(entries) == 0 {
		return
	}
	leader := r.Regime().Leader
	switch {
	case r.IsLeader():
		r.Book.Propose(msg.NewValue(req.Client, req.Ack, entries))
	case r.Cfg.ForwardToLeader && leader != r.Me && leader != msg.Nobody && from != leader:
		r.Forward(leader, req, entries)
	default:
		r.Book.Queue(req.Client, req.Ack, entries)
		if !r.preparing {
			r.startPrepare()
		}
	}
}

// broadcastAccept is the book's accept hook: every acceptor is asked,
// each with an accept box of its own.
func (r *Replica) broadcastAccept(in int64, v msg.Value) {
	for _, id := range r.Replicas {
		r.Ctx.Send(id, msg.DrawAccept(in, r.myPN, v))
	}
}

// --- Phase 1 ---

func (r *Replica) startPrepare() {
	r.preparing = true
	r.myPN = r.nextPN()
	r.promises = make(map[msg.NodeID]bool)
	r.carried = make(map[int64]msg.Proposal)
	for _, id := range r.Replicas {
		r.Ctx.Send(id, msg.MPPrepare{PN: r.myPN, FromInstance: r.Log().NextToApply()})
	}
}

func (r *Replica) onPrepare(from msg.NodeID, m msg.MPPrepare) {
	if m.PN > r.maxPNSeen {
		r.maxPNSeen = m.PN
	}
	if r.Read.PrepareHold(from) > 0 {
		// An unexpired read lease binds this acceptor to another leader:
		// promising from now would let a new leader commit writes the
		// lease holder never sees while still serving local reads. The
		// nack sends the challenger into its jittered retry loop, which
		// outlives any lease.
		r.Ctx.Send(from, msg.MPNack{PN: r.hpn})
		return
	}
	if m.PN > r.hpn {
		r.hpn = m.PN
		// Answer with live accepted proposals plus the already-applied
		// suffix: an applied value is decided, and a proposer lagging
		// behind this acceptor's applied frontier must re-propose it
		// rather than invent a fresh value for a decided instance.
		seen := make(map[int64]bool, len(r.ap.ByInstance))
		tail := make([]msg.Proposal, 0, len(r.ap.ByInstance))
		for in, p := range r.ap.ByInstance {
			if in >= m.FromInstance {
				tail = append(tail, p)
				seen[in] = true
			}
		}
		r.Log().Scan(m.FromInstance, func(e rsm.Entry) bool {
			if !seen[e.Instance] {
				tail = append(tail, msg.Proposal{Instance: e.Instance, PN: m.PN, Value: e.Value})
			}
			return true
		})
		if m.FromInstance < r.Log().Floor() {
			// The proposer lags below our compaction floor: the decided
			// values it is missing live only in the snapshot. Push a
			// catch-up transfer ahead of the promise (FIFO per peer) and
			// flag the floor on the promise so the winner never no-op
			// fills those instances.
			r.Snap.Serve(r.Ctx, from, m.FromInstance)
		}
		r.Ctx.Send(from, msg.Promise{From: r.Me, PN: m.PN, Accepted: tail, Floor: r.Log().Floor()})
	} else {
		r.Ctx.Send(from, msg.MPNack{PN: r.hpn})
	}
}

func (r *Replica) onPromise(from msg.NodeID, m msg.Promise) {
	if !r.preparing || m.PN != r.myPN {
		return
	}
	if m.Floor > r.noopFloor {
		r.noopFloor = m.Floor
	}
	for _, p := range m.Accepted {
		if prev, ok := r.carried[p.Instance]; !ok || p.PN > prev.PN {
			r.carried[p.Instance] = p
		}
	}
	r.promises[from] = true
	if len(r.promises) < r.Quorum {
		return
	}
	// Leadership won: re-propose carried values, fill gaps, serve queue.
	r.preparing = false
	r.SetLeading(true)
	r.Install(replica.Regime{Slot: r.Log().NextToApply(), Leader: r.Me, Acceptor: msg.Nobody, Ballot: r.myPN})
	r.takeovers++
	r.Cfg.Events.Emitf(r.Ctx.Now(), r.Me, "leader-change",
		"election %d won (pn %d)", r.takeovers, r.myPN)
	carried := make([]msg.Proposal, 0, len(r.carried))
	for _, p := range r.carried {
		carried = append(carried, p)
	}
	r.Book.Lead(r.noopFloor, carried)
}

// --- Phase 2 ---

func (r *Replica) onAccept(from msg.NodeID, m *msg.Accept) {
	if m.PN > r.maxPNSeen {
		r.maxPNSeen = m.PN
	}
	if r.IsLeader() && m.PN > r.myPN {
		// Another proposer won a higher ballot: this leader's own accepts
		// may never reach an acceptor to be nacked.
		r.stepDown()
	}
	if m.PN < r.hpn {
		r.Ctx.Send(from, msg.MPNack{PN: r.hpn})
		return
	}
	r.hpn = m.PN
	r.ap.Prune(r.Log().NextToApply())
	r.ap.Put(msg.Proposal{Instance: m.Instance, PN: m.PN, Value: m.Value})
	// Acceptors broadcast to all learners (Section 2.3: "the acceptors
	// broadcast the corresponding message to all the learners").
	for _, id := range r.Replicas {
		r.Ctx.Send(id, msg.Accepted{Instance: m.Instance, PN: m.PN, Value: m.Value, From: r.Me})
	}
	if g := r.Regime(); from != r.Me && (g.Leader != from || g.Ballot != m.PN) {
		r.Install(replica.Regime{Slot: m.Instance, Leader: from, Acceptor: msg.Nobody, Ballot: m.PN})
	}
}

func (r *Replica) onAccepted(m msg.Accepted) {
	r.Vote(m.Instance, m.From, m.PN, m.Value)
}

func (r *Replica) onNack(m msg.MPNack) {
	if m.PN > r.maxPNSeen {
		r.maxPNSeen = m.PN
	}
	if r.IsLeader() && m.PN > r.myPN {
		// A higher-numbered proposer exists: deposed.
		r.stepDown()
		return
	}
	if r.preparing {
		// Lost the duel: retry after a jittered backoff.
		r.preparing = false
		backoff := r.Cfg.TakeoverBackoff + time.Duration(r.Ctx.Rand().Int63n(int64(r.Cfg.TakeoverBackoff)))
		r.Ctx.After(backoff, runtime.TimerTag{Kind: timerRetryPrepare})
	}
}

// stepDown gives up leadership on evidence of a higher ballot; the
// proposals go with it (Proposals.Depose).
func (r *Replica) stepDown() {
	r.SetLeading(false)
	r.Book.Depose()
}

func (r *Replica) nextPN() uint64 {
	base := r.myPN
	if r.maxPNSeen > base {
		base = r.maxPNSeen
	}
	if r.hpn > base {
		base = r.hpn
	}
	return basicpaxos.NextPN(msg.NodeID(r.Index), base)
}
