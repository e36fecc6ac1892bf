package basicpaxos

import (
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/replica"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
)

// This file turns the transport-free Synod state machines into a runnable
// baseline engine: every replica is proposer, acceptor and learner for a
// shared instance-indexed log, and every client command pays a full
// two-phase round (prepare + accept) with no stable leader. It is the
// floor of the protocol family — the paper's 1Paxos and collapsed
// Multi-Paxos both exist to amortize exactly the phase-1 work this
// baseline repeats per instance — and exists so experiments can quantify
// that gap on the same harness.

// Timer kinds used by a Replica (cluster joint mode routes kinds >= 900
// to the co-located client, so protocol kinds stay small).
const (
	timerRound   = 1 // Arg: instance whose round is overdue
	timerRestart = 2 // Arg: instance to restart after a lost duel
)

// Defaults for protocol.Config zero values.
const (
	DefaultRoundTimeout = 400 * time.Microsecond
	DefaultDuelBackoff  = 200 * time.Microsecond
)

// drive is one instance this node is actively proposing at.
type drive struct {
	prop    *Proposer[msg.Value]
	want    msg.Value // the client command this drive exists to commit
	backoff bool      // a restart is already scheduled
	cancel  runtime.CancelFunc
}

// Replica is one Basic Paxos node: proposer for the commands its clients
// send it, acceptor and learner for every instance. The embedded shell
// owns the learner log, sessions, recovery and the read path.
type Replica struct {
	replica.Shell

	nextInst int64
	maxPN    uint64
	drives   map[int64]*drive

	acc map[int64]*Acceptor[msg.Value]

	// seen is one past the highest instance this node has accepted or
	// seen accepted — the frontier a read-index ack reports. It must
	// track *accepted* instances, not just learned ones: a committed
	// write has crossed a quorum of acceptors, but may not have
	// gathered this node's learn majority yet.
	seen int64
}

var _ runtime.Handler = (*Replica)(nil)

// NewReplica builds a Replica from a configuration protocol.Build
// validated. AcceptTimeout bounds one prepare+accept round before the
// proposer restarts with a higher number; TakeoverBackoff delays the
// restart after an explicit nack (a lost duel with a concurrent
// proposer), and a random share of the same amount is added to break
// symmetric duels.
func NewReplica(cfg protocol.Config) *Replica {
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = DefaultRoundTimeout
	}
	if cfg.TakeoverBackoff == 0 {
		cfg.TakeoverBackoff = DefaultDuelBackoff
	}
	r := &Replica{
		drives: make(map[int64]*drive),
		acc:    make(map[int64]*Acceptor[msg.Value]),
	}
	// Leaderless: any replica serves read-index rounds. A quorum of peers
	// reports the highest instance each has accepted, and quorum
	// intersection covers every committed write. Lease mode degrades to
	// read-index — there is no leader for a lease to bind.
	r.Init(cfg, replica.Agreement{
		Frontier: func() int64 { return r.seen },
		OnApply:  r.onApply,
		OnRestore: func(last int64) {
			// Fresh proposals must start above the restored frontier.
			if r.nextInst < last+1 {
				r.nextInst = last + 1
			}
		},
		OnCompact: func(floor int64) {
			// Per-instance acceptor records below the compaction floor are
			// decided history; drop them with the log entries so the
			// baseline's memory is bounded by the same knob.
			for in := range r.acc {
				if in < floor {
					delete(r.acc, in)
				}
			}
		},
	})
	return r
}

// observe advances the seen frontier past instance in.
func (r *Replica) observe(in int64) {
	if in+1 > r.seen {
		r.seen = in + 1
	}
}

// Receive dispatches one message.
func (r *Replica) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	if r.Route(ctx, from, m) {
		return
	}
	switch mm := msg.Boxed(m).(type) {
	case *msg.ClientRequest:
		r.onClientRequest(mm)
	case msg.SlotPrepare:
		r.onPrepare(from, mm)
	case msg.BPPromise:
		r.onPromise(from, mm)
	case *msg.Accept:
		r.onAccept(from, mm)
	case msg.Accepted:
		r.onAccepted(mm)
	case msg.SlotNack:
		r.onNack(mm)
	}
}

// Timer implements runtime.Handler.
func (r *Replica) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	if r.RouteTimer(ctx, tag) {
		return
	}
	switch tag.Kind {
	case timerRound:
		in := tag.Arg
		d, ok := r.drives[in]
		if !ok || d.backoff || d.prop.Decided() || r.Log().Learned(in) {
			// d.backoff: a randomized duel restart is already queued;
			// restarting here too would defeat the desynchronization.
			return
		}
		r.restart(in, d)
	case timerRestart:
		in := tag.Arg
		d, ok := r.drives[in]
		if !ok || !d.backoff {
			return
		}
		d.backoff = false
		r.restart(in, d)
	}
}

// --- Proposer ---

func (r *Replica) onClientRequest(req *msg.ClientRequest) {
	if entries := r.Admit(req); len(entries) > 0 {
		r.propose(msg.NewValue(req.Client, req.Ack, entries))
	}
}

// propose starts a full Synod round for v at the next free instance.
func (r *Replica) propose(v msg.Value) {
	in := r.nextInst
	if next := r.Log().NextToApply(); next > in {
		in = next
	}
	for r.Log().Learned(in) || r.drives[in] != nil {
		in++
	}
	r.nextInst = in + 1
	pn := NextPN(r.Me, r.maxPN)
	r.maxPN = pn
	d := &drive{prop: NewProposer(r.Me, r.Quorum, pn, v), want: v}
	r.drives[in] = d
	r.sendPrepare(in, d)
}

func (r *Replica) sendPrepare(in int64, d *drive) {
	for _, id := range r.Replicas {
		r.Ctx.Send(id, msg.SlotPrepare{Slot: in, PN: d.prop.PN()})
	}
	if d.cancel != nil {
		d.cancel()
	}
	d.cancel = r.Ctx.After(r.Cfg.AcceptTimeout, runtime.TimerTag{Kind: timerRound, Arg: in})
}

// restart begins a fresh round with a higher proposal number, keeping any
// adopted value (Lemma 2a/2b: a proposer that observed an accepted value
// keeps advocating it).
func (r *Replica) restart(in int64, d *drive) {
	pn := NextPN(r.Me, r.maxPN)
	r.maxPN = pn
	d.prop.Restart(pn)
	r.sendPrepare(in, d)
}

func (r *Replica) onPromise(from msg.NodeID, m msg.BPPromise) {
	d, ok := r.drives[m.Instance]
	if !ok || d.prop.Decided() {
		return
	}
	if d.prop.OnPromise(from, m.PN, m.AcceptedPN, m.Accepted) {
		for _, id := range r.Replicas {
			r.Ctx.Send(id, msg.DrawAccept(m.Instance, m.PN, d.prop.Value()))
		}
	}
}

func (r *Replica) onNack(m msg.SlotNack) {
	if m.PN > r.maxPN {
		r.maxPN = m.PN
	}
	d, ok := r.drives[m.Slot]
	if !ok || d.prop.Decided() || d.backoff || r.Log().Learned(m.Slot) {
		return
	}
	// Lost a duel: back off a randomized amount so symmetric duellists
	// desynchronize instead of trading nacks forever.
	d.backoff = true
	wait := r.Cfg.TakeoverBackoff + time.Duration(r.Ctx.Rand().Int63n(int64(r.Cfg.TakeoverBackoff)))
	r.Ctx.After(wait, runtime.TimerTag{Kind: timerRestart, Arg: m.Slot})
}

// --- Acceptor ---

func (r *Replica) acceptorFor(in int64) *Acceptor[msg.Value] {
	a, ok := r.acc[in]
	if !ok {
		a = &Acceptor[msg.Value]{}
		r.acc[in] = a
	}
	return a
}

func (r *Replica) onPrepare(from msg.NodeID, m msg.SlotPrepare) {
	if m.PN > r.maxPN {
		r.maxPN = m.PN
	}
	if m.Slot < r.Log().NextToApply() {
		// Decided and applied here — and the per-instance acceptor
		// record may already be pruned by compaction, so running the
		// Synod machinery would present a fresh acceptor and let a
		// lagging proposer re-decide the instance. Stream the decided
		// value instead and nack the round; the proposer adopts it
		// through its log, not through a promise.
		r.Snap.Serve(r.Ctx, from, m.Slot)
		r.Ctx.Send(from, msg.SlotNack{Slot: m.Slot, PN: m.PN})
		return
	}
	a := r.acceptorFor(m.Slot)
	if a.Prepare(m.PN) {
		r.Ctx.Send(from, msg.BPPromise{
			Instance:   m.Slot,
			PN:         m.PN,
			From:       r.Me,
			AcceptedPN: a.AcceptedPN,
			Accepted:   a.Accepted,
		})
		return
	}
	r.Ctx.Send(from, msg.SlotNack{Slot: m.Slot, PN: a.Promised})
}

func (r *Replica) onAccept(from msg.NodeID, m *msg.Accept) {
	if m.Instance < r.Log().NextToApply() {
		// See onPrepare: never re-open a decided, possibly-pruned
		// instance.
		r.Snap.Serve(r.Ctx, from, m.Instance)
		r.Ctx.Send(from, msg.SlotNack{Slot: m.Instance, PN: m.PN})
		return
	}
	a := r.acceptorFor(m.Instance)
	if !a.Accept(m.PN, m.Value) {
		r.Ctx.Send(from, msg.SlotNack{Slot: m.Instance, PN: a.Promised})
		return
	}
	r.observe(m.Instance)
	for _, id := range r.Replicas {
		r.Ctx.Send(id, msg.Accepted{Instance: m.Instance, PN: m.PN, Value: m.Value, From: r.Me})
	}
}

// --- Learner ---

func (r *Replica) onAccepted(m msg.Accepted) {
	r.observe(m.Instance)
	r.Vote(m.Instance, m.From, m.PN, m.Value)
}

// onApply retires the applied instance's proposer state.
func (r *Replica) onApply(e rsm.Entry) {
	d := r.drives[e.Instance]
	delete(r.drives, e.Instance)
	if d == nil {
		return
	}
	if d.cancel != nil {
		d.cancel()
	}
	// If this drive's instance went to a foreign value (an adopted
	// proposal or a lost duel), the commands it was carrying still need a
	// slot: re-propose the not-yet-committed ones at a fresh instance.
	if !d.want.Equal(e.Value) && d.want.Client != msg.Nobody {
		if keep := r.Sessions.Unseen(d.want); len(keep) > 0 {
			r.propose(msg.NewValue(d.want.Client, d.want.Ack, keep))
		}
	}
}
