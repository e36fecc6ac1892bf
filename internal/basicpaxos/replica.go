package basicpaxos

import (
	"fmt"
	"time"

	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/snapshot"
	"consensusinside/internal/trace"
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

// Defaults for ReplicaConfig zero values.
const (
	DefaultRoundTimeout = 400 * time.Microsecond
	DefaultDuelBackoff  = 200 * time.Microsecond
)

// ReplicaConfig parameterizes a Replica.
type ReplicaConfig struct {
	// ID is this node; Replicas is the agreement group in a fixed shared
	// order.
	ID       msg.NodeID
	Replicas []msg.NodeID

	// Applier is the replicated state machine; nil means a fresh KV.
	Applier rsm.Applier

	// RoundTimeout bounds one prepare+accept round before the proposer
	// restarts with a higher number. Zero means DefaultRoundTimeout.
	RoundTimeout time.Duration

	// DuelBackoff delays the restart after an explicit nack (a lost duel
	// with a concurrent proposer); a random share of the same amount is
	// added to break symmetric duels. Zero means DefaultDuelBackoff.
	DuelBackoff time.Duration

	// SnapshotInterval captures a durable-state snapshot every this many
	// applied instances and compacts the log behind it (0 = off). See
	// internal/snapshot.
	SnapshotInterval int

	// SnapshotChunkSize is the snapshot transfer chunk size (0 = the
	// snapshot package default).
	SnapshotChunkSize int

	// Recover makes the replica stream a snapshot and log suffix from a
	// live peer before serving clients — the restarted-replica mode.
	Recover bool

	// ReadMode selects the read fast path (internal/readpath). Basic
	// Paxos is leaderless, so any replica serves read-index rounds: a
	// quorum of peers reports the highest instance each has accepted,
	// and quorum intersection covers every committed write. Lease mode
	// degrades to read-index — there is no leader for a lease to bind.
	ReadMode readpath.Mode

	// LeaseDuration overrides readpath.DefaultLeaseDuration (only
	// relevant after the lease-to-index degradation's round timeout).
	LeaseDuration time.Duration

	// Tracer, when non-nil, receives decide/apply stage stamps for
	// sampled commands (internal/trace).
	Tracer *trace.Tracer

	// Events, when non-nil, receives rare-event timeline entries
	// (internal/obs).
	Events *obs.EventLog
}

// drive is one instance this node is actively proposing at.
type drive struct {
	prop    *Proposer[msg.Value]
	want    msg.Value // the client command this drive exists to commit
	backoff bool      // a restart is already scheduled
	cancel  runtime.CancelFunc
}

// Replica is one Basic Paxos node: proposer for the commands its clients
// send it, acceptor and learner for every instance.
type Replica struct {
	cfg      ReplicaConfig
	me       msg.NodeID
	replicas []msg.NodeID
	quorum   int
	ctx      runtime.Context

	nextInst int64
	maxPN    uint64
	drives   map[int64]*drive

	acc   map[int64]*Acceptor[msg.Value]
	votes map[int64]map[msg.NodeID]uint64 // learner: instance -> voter -> pn

	log      *rsm.Log
	sessions *rsm.Sessions
	snap     *snapshot.Manager
	read     *readpath.Server

	// seen is one past the highest instance this node has accepted or
	// seen accepted — the frontier a read-index ack reports. It must
	// track *accepted* instances, not just learned ones: a committed
	// write has crossed a quorum of acceptors, but may not have
	// gathered this node's learn majority yet.
	seen int64

	commits  int64
	restarts int64
}

var _ runtime.Handler = (*Replica)(nil)

// NewReplica builds a Replica; it panics on malformed configuration.
func NewReplica(cfg ReplicaConfig) *Replica {
	if len(cfg.Replicas) < 3 {
		panic("basicpaxos: need at least three replicas")
	}
	in := false
	for _, id := range cfg.Replicas {
		if id == cfg.ID {
			in = true
			break
		}
	}
	if !in {
		panic(fmt.Sprintf("basicpaxos: node %d not in replica set %v", cfg.ID, cfg.Replicas))
	}
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = DefaultRoundTimeout
	}
	if cfg.DuelBackoff == 0 {
		cfg.DuelBackoff = DefaultDuelBackoff
	}
	applier := cfg.Applier
	if applier == nil {
		applier = rsm.NewKV()
	}
	r := &Replica{
		cfg:      cfg,
		me:       cfg.ID,
		replicas: append([]msg.NodeID(nil), cfg.Replicas...),
		quorum:   len(cfg.Replicas)/2 + 1,
		drives:   make(map[int64]*drive),
		acc:      make(map[int64]*Acceptor[msg.Value]),
		votes:    make(map[int64]map[msg.NodeID]uint64),
		sessions: rsm.NewSessions(),
	}
	r.log = rsm.NewLog(rsm.Dedup{Sessions: r.sessions, Inner: applier})
	r.log.OnApply(r.onApply)
	r.log.SetTracer(cfg.Tracer, func() time.Duration { return r.ctx.Now() })
	r.snap = snapshot.New(snapshot.Config{
		ID:           cfg.ID,
		Replicas:     cfg.Replicas,
		Interval:     int64(cfg.SnapshotInterval),
		ChunkSize:    cfg.SnapshotChunkSize,
		Recover:      cfg.Recover,
		Events:       cfg.Events,
		RetryTimeout: 2 * cfg.RoundTimeout,
	}, r.log, r.sessions, applier)
	r.snap.OnRestore(func(last int64) {
		// Fresh proposals must start above the restored frontier.
		if r.nextInst < last+1 {
			r.nextInst = last + 1
		}
	})
	r.snap.OnSnapshot(func(int64) {
		// Per-instance acceptor records below the compaction floor are
		// decided history; drop them with the log entries so the
		// baseline's memory is bounded by the same knob.
		for in := range r.acc {
			if in < r.log.Floor() {
				delete(r.acc, in)
			}
		}
	})
	mode := cfg.ReadMode
	store, _ := applier.(*rsm.KV)
	if store == nil {
		mode = readpath.Consensus // no local KV to serve from
	}
	r.read = readpath.New(readpath.Config{
		ID:            cfg.ID,
		Replicas:      cfg.Replicas,
		Mode:          mode,
		LeaseDuration: cfg.LeaseDuration,
		Events:        cfg.Events,
		Confirmers:    func() []msg.NodeID { return r.peers() },
		NeedAcks:      r.quorum - 1,
		Frontier:      func() int64 { return r.frontier() },
		Applied:       func() int64 { return r.log.NextToApply() },
		Ready:         func() bool { return r.snap.Recovered() && !r.snap.CatchingUp() },
		Read: func(key string) (string, bool) {
			if store == nil {
				return "", false
			}
			return store.Get(key)
		},
	})
	return r
}

// peers lists every replica but this one.
func (r *Replica) peers() []msg.NodeID {
	out := make([]msg.NodeID, 0, len(r.replicas)-1)
	for _, id := range r.replicas {
		if id != r.me {
			out = append(out, id)
		}
	}
	return out
}

// frontier is the read-index frontier this node vouches for.
func (r *Replica) frontier() int64 {
	if lf := r.log.LearnedFrontier(); lf > r.seen {
		return lf
	}
	return r.seen
}

// observe advances the seen frontier past instance in.
func (r *Replica) observe(in int64) {
	if in+1 > r.seen {
		r.seen = in + 1
	}
}

// Commits reports applied instances.
func (r *Replica) Commits() int64 { return r.commits }

// Restarts reports how many rounds were restarted with a higher number
// (timeouts plus lost duels) — the baseline's contention cost.
func (r *Replica) Restarts() int64 { return r.restarts }

// Log exposes the learner log for consistency checks.
func (r *Replica) Log() *rsm.Log { return r.log }

// SnapshotStats reports the replica's recovery-subsystem counters.
func (r *Replica) SnapshotStats() metrics.SnapshotStats { return r.snap.Stats() }

// SessionGrowths reports how often this replica's session rings had to
// grow (rsm.Sessions.Growths). Safe from any goroutine.
func (r *Replica) SessionGrowths() int64 { return r.sessions.Growths() }

// ReadStats reports the replica's read-fast-path counters.
func (r *Replica) ReadStats() metrics.ReadStats { return r.read.Stats() }

// Recovered reports whether this replica has finished recovering (see
// snapshot.Manager.Recovered); trivially true unless built in Recover
// mode. Safe from any goroutine.
func (r *Replica) Recovered() bool { return r.snap.Recovered() }

// Start implements runtime.Handler.
func (r *Replica) Start(ctx runtime.Context) {
	r.ctx = ctx
	r.snap.Start(ctx)
	r.read.Start(ctx)
}

// Receive dispatches one message.
func (r *Replica) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	r.ctx = ctx
	if r.snap.Handle(ctx, from, m) {
		return
	}
	if r.read.Handle(ctx, from, m) {
		return
	}
	switch mm := m.(type) {
	case msg.ClientRequest:
		r.onClientRequest(mm)
	case msg.BPPrepare:
		r.onPrepare(from, mm)
	case msg.BPPromise:
		r.onPromise(from, mm)
	case msg.BPAccept:
		r.onAccept(from, mm)
	case msg.BPAccepted:
		r.onAccepted(mm)
	case msg.BPNack:
		r.onNack(mm)
	}
}

// Timer implements runtime.Handler.
func (r *Replica) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	r.ctx = ctx
	if r.snap.HandleTimer(ctx, tag) {
		return
	}
	if r.read.HandleTimer(ctx, tag) {
		return
	}
	switch tag.Kind {
	case timerRound:
		in := tag.Arg
		d, ok := r.drives[in]
		if !ok || d.backoff || d.prop.Decided() || r.log.Learned(in) {
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

func (r *Replica) onClientRequest(req msg.ClientRequest) {
	if r.snap.CatchingUp() {
		return // recovering: must not propose against a stale frontier
	}
	// Committed entries (single command or batch alike) are answered
	// from the session table; what remains still needs agreement.
	fresh := r.sessions.Screen(req, func(rep msg.ClientReply) { r.ctx.Send(req.Client, rep) })
	// Mark what is left as originating here — this replica proposes it
	// and owes the reply — dropping retries of entries already marked.
	entries := fresh[:0]
	for _, be := range fresh {
		if r.sessions.MarkOrigin(req.Client, be.Seq) {
			entries = append(entries, be)
		}
	}
	if len(entries) == 0 {
		return
	}
	r.propose(msg.NewValue(req.Client, req.Ack, entries))
}

// propose starts a full Synod round for v at the next free instance.
func (r *Replica) propose(v msg.Value) {
	in := r.nextInst
	if next := r.log.NextToApply(); next > in {
		in = next
	}
	for r.log.Learned(in) || r.drives[in] != nil {
		in++
	}
	r.nextInst = in + 1
	pn := NextPN(r.me, r.maxPN)
	r.maxPN = pn
	d := &drive{prop: NewProposer(r.me, r.quorum, pn, v), want: v}
	r.drives[in] = d
	r.sendPrepare(in, d)
}

func (r *Replica) sendPrepare(in int64, d *drive) {
	for _, id := range r.replicas {
		r.ctx.Send(id, msg.BPPrepare{Instance: in, PN: d.prop.PN()})
	}
	if d.cancel != nil {
		d.cancel()
	}
	d.cancel = r.ctx.After(r.cfg.RoundTimeout, runtime.TimerTag{Kind: timerRound, Arg: in})
}

// restart begins a fresh round with a higher proposal number, keeping any
// adopted value (Lemma 2a/2b: a proposer that observed an accepted value
// keeps advocating it).
func (r *Replica) restart(in int64, d *drive) {
	r.restarts++
	pn := NextPN(r.me, r.maxPN)
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
		for _, id := range r.replicas {
			r.ctx.Send(id, msg.BPAccept{Instance: m.Instance, PN: m.PN, Value: d.prop.Value()})
		}
	}
}

func (r *Replica) onNack(m msg.BPNack) {
	if m.PN > r.maxPN {
		r.maxPN = m.PN
	}
	d, ok := r.drives[m.Instance]
	if !ok || d.prop.Decided() || d.backoff || r.log.Learned(m.Instance) {
		return
	}
	// Lost a duel: back off a randomized amount so symmetric duellists
	// desynchronize instead of trading nacks forever.
	d.backoff = true
	wait := r.cfg.DuelBackoff + time.Duration(r.ctx.Rand().Int63n(int64(r.cfg.DuelBackoff)))
	r.ctx.After(wait, runtime.TimerTag{Kind: timerRestart, Arg: m.Instance})
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

func (r *Replica) onPrepare(from msg.NodeID, m msg.BPPrepare) {
	if m.PN > r.maxPN {
		r.maxPN = m.PN
	}
	if m.Instance < r.log.NextToApply() {
		// Decided and applied here — and the per-instance acceptor
		// record may already be pruned by compaction, so running the
		// Synod machinery would present a fresh acceptor and let a
		// lagging proposer re-decide the instance. Stream the decided
		// value instead and nack the round; the proposer adopts it
		// through its log, not through a promise.
		r.snap.Serve(r.ctx, from, m.Instance)
		r.ctx.Send(from, msg.BPNack{Instance: m.Instance, PN: m.PN})
		return
	}
	a := r.acceptorFor(m.Instance)
	if a.Prepare(m.PN) {
		r.ctx.Send(from, msg.BPPromise{
			Instance:   m.Instance,
			PN:         m.PN,
			From:       r.me,
			AcceptedPN: a.AcceptedPN,
			Accepted:   a.Accepted,
		})
		return
	}
	r.ctx.Send(from, msg.BPNack{Instance: m.Instance, PN: a.Promised})
}

func (r *Replica) onAccept(from msg.NodeID, m msg.BPAccept) {
	if m.Instance < r.log.NextToApply() {
		// See onPrepare: never re-open a decided, possibly-pruned
		// instance.
		r.snap.Serve(r.ctx, from, m.Instance)
		r.ctx.Send(from, msg.BPNack{Instance: m.Instance, PN: m.PN})
		return
	}
	a := r.acceptorFor(m.Instance)
	if !a.Accept(m.PN, m.Value) {
		r.ctx.Send(from, msg.BPNack{Instance: m.Instance, PN: a.Promised})
		return
	}
	r.observe(m.Instance)
	for _, id := range r.replicas {
		r.ctx.Send(id, msg.BPAccepted{Instance: m.Instance, PN: m.PN, Value: m.Value, From: r.me})
	}
}

// --- Learner ---

func (r *Replica) onAccepted(m msg.BPAccepted) {
	r.observe(m.Instance)
	if r.log.Learned(m.Instance) {
		return
	}
	byNode, ok := r.votes[m.Instance]
	if !ok {
		byNode = make(map[msg.NodeID]uint64)
		r.votes[m.Instance] = byNode
	}
	byNode[m.From] = m.PN
	n := 0
	for _, pn := range byNode {
		if pn == m.PN {
			n++
		}
	}
	if n >= r.quorum {
		delete(r.votes, m.Instance)
		r.log.Learn(m.Instance, m.Value)
		// A hole below this learn may be a dropped-learn gap that live
		// traffic will never refill; arm the stall watchdog.
		r.snap.WatchGap(r.ctx)
	}
}

func (r *Replica) onApply(e rsm.Entry, results []string) {
	r.commits++
	delete(r.votes, e.Instance)
	d := r.drives[e.Instance]
	delete(r.drives, e.Instance)
	if d != nil && d.cancel != nil {
		d.cancel()
	}
	defer r.snap.AfterApply()
	defer r.read.AfterApply() // confirmed reads may now be serveable
	v := e.Value
	if v.Client != msg.Nobody {
		replies := msg.GetReplies(v.Len())
		for i, n := 0, v.Len(); i < n; i++ {
			be := v.EntryAt(i)
			result := results[i]
			if !r.sessions.Seen(v.Client, be.Seq) {
				r.sessions.Done(v.Client, be.Seq, e.Instance, result)
			}
			if r.sessions.TakeOrigin(v.Client, be.Seq) {
				replies = append(replies, msg.ClientReply{Seq: be.Seq, Instance: e.Instance, OK: true, Result: result})
			}
		}
		// One message answers the whole batch, so the client can retire
		// it in one step and refill its window with a full batch. A
		// batch message takes over the pooled array (the receiver
		// recycles it); otherwise it goes straight back to the pool.
		if m := msg.WrapReplies(replies); m != nil {
			r.ctx.Send(v.Client, m)
			if _, batched := m.(msg.ClientReplyBatch); batched {
				replies = nil
			}
		}
		msg.PutReplies(replies)
	}
	// If this drive's instance went to a foreign value (an adopted
	// proposal or a lost duel), the commands it was carrying still need a
	// slot: re-propose the not-yet-committed ones at a fresh instance.
	if d != nil && !d.want.Equal(v) && d.want.Client != msg.Nobody {
		if keep := r.sessions.Unseen(d.want.Client, d.want.Entries()); len(keep) > 0 {
			r.propose(msg.NewValue(d.want.Client, d.want.Ack, keep))
		}
	}
}
