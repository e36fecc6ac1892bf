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
	"fmt"
	"time"

	"consensusinside/internal/basicpaxos"
	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/snapshot"
	"consensusinside/internal/trace"
)

// Timer kinds.
const (
	timerAcceptDeadline = 1 // Arg: instance
	timerRetryPrepare   = 2
)

// Defaults for Config zero values.
const (
	DefaultAcceptTimeout  = 400 * time.Microsecond
	DefaultPrepareBackoff = 200 * time.Microsecond
)

// Config parameterizes a Replica.
type Config struct {
	// ID is this node; Replicas is the agreement group in a fixed shared
	// order. Replicas[0] is the initial leader.
	ID       msg.NodeID
	Replicas []msg.NodeID

	// Applier is the replicated state machine; nil means a fresh KV.
	Applier rsm.Applier

	// AcceptTimeout bounds how long the leader waits for an instance to
	// be learned before retransmitting its accept.
	AcceptTimeout time.Duration

	// PrepareBackoff delays prepare retries after losing a duel.
	PrepareBackoff time.Duration

	// ForwardToLeader makes non-leaders forward client requests to the
	// known leader (the Joint deployment of Section 7.4) instead of
	// competing for leadership.
	ForwardToLeader bool

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

	// ReadMode selects the read fast path (internal/readpath).
	// Multi-Paxos confirms read rounds with a quorum of peers: any
	// committed write crossed a majority of acceptors, each of which
	// recorded its leader, so quorum intersection guarantees a refusal
	// if a newer leader has committed anything.
	ReadMode readpath.Mode

	// LeaseDuration overrides readpath.DefaultLeaseDuration.
	LeaseDuration time.Duration

	// Tracer, when non-nil, stamps the decide/apply stages of sampled
	// commands (internal/trace).
	Tracer *trace.Tracer

	// Events, when non-nil, receives rare-event timeline entries:
	// leader elections, lease and recovery episodes.
	Events *obs.EventLog
}

// Replica is one collapsed Multi-Paxos node.
type Replica struct {
	cfg      Config
	me       msg.NodeID
	replicas []msg.NodeID
	quorum   int
	ctx      runtime.Context

	// Proposer state.
	iAmLeader   bool
	preparing   bool
	myPN        uint64
	maxPNSeen   uint64
	promises    map[msg.NodeID]bool
	carried     map[int64]msg.Proposal // highest-pn accepted values from promises
	nextInst    int64
	proposed    map[int64]msg.Value
	outstanding map[int64]bool
	pending     []msg.ClientRequest
	knownLeader msg.NodeID

	// Acceptor state.
	hpn uint64
	ap  map[int64]msg.Proposal

	// Learner state: per-instance acceptance votes, keyed by proposal
	// number; an instance is learned when one pn gathers a majority.
	votes    map[int64]map[msg.NodeID]msg.Proposal
	log      *rsm.Log
	sessions *rsm.Sessions
	snap     *snapshot.Manager
	read     *readpath.Server
	// noopFloor is the highest compaction floor carried by any promise:
	// instances below it were decided and compacted at a peer, so a
	// winning proposer must wait for the catch-up push rather than fill
	// them with no-ops.
	noopFloor int64

	commits   int64
	takeovers int64
}

var _ runtime.Handler = (*Replica)(nil)

// New builds a Replica. It panics on malformed configuration (programming
// errors in experiment wiring).
func New(cfg Config) *Replica {
	if len(cfg.Replicas) < 3 {
		panic("multipaxos: need at least three replicas")
	}
	in := false
	for _, id := range cfg.Replicas {
		if id == cfg.ID {
			in = true
			break
		}
	}
	if !in {
		panic(fmt.Sprintf("multipaxos: node %d not in replica set %v", cfg.ID, cfg.Replicas))
	}
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = DefaultAcceptTimeout
	}
	if cfg.PrepareBackoff == 0 {
		cfg.PrepareBackoff = DefaultPrepareBackoff
	}
	applier := cfg.Applier
	if applier == nil {
		applier = rsm.NewKV()
	}
	r := &Replica{
		cfg:         cfg,
		me:          cfg.ID,
		replicas:    append([]msg.NodeID(nil), cfg.Replicas...),
		quorum:      len(cfg.Replicas)/2 + 1,
		promises:    make(map[msg.NodeID]bool),
		carried:     make(map[int64]msg.Proposal),
		proposed:    make(map[int64]msg.Value),
		outstanding: make(map[int64]bool),
		knownLeader: cfg.Replicas[0],
		ap:          make(map[int64]msg.Proposal),
		votes:       make(map[int64]map[msg.NodeID]msg.Proposal),
		sessions:    rsm.NewSessions(),
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
		RetryTimeout: 2 * cfg.AcceptTimeout,
		Events:       cfg.Events,
	}, r.log, r.sessions, applier)
	r.snap.OnRestore(func(last int64) {
		// The snapshot's instances were decided while this replica was
		// gone; never no-op fill or re-propose below its frontier.
		if last+1 > r.noopFloor {
			r.noopFloor = last + 1
		}
		if r.nextInst < last+1 {
			r.nextInst = last + 1
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
		HasLeader:     true,
		LeaseCapable:  true,
		IsLeader:      func() bool { return r.iAmLeader },
		Leader:        func() msg.NodeID { return r.knownLeader },
		Confirmers:    func() []msg.NodeID { return r.peers() },
		// Majority minus this node: together with the reader itself the
		// round covers a quorum, which intersects every committed
		// write's accept quorum.
		NeedAcks: r.quorum - 1,
		Grant:    func(from msg.NodeID) bool { return r.knownLeader == from },
		// A freshly-won leadership is invisible to peers until an accept
		// reaches them; committing a no-op makes the next round confirm.
		Establish: func() {
			if r.iAmLeader {
				r.proposeValue(msg.Value{Client: msg.Nobody, Cmd: msg.Command{Op: msg.OpNoop}})
			}
		},
		// nextInst covers everything this leader may commit, including
		// carried-over proposals from a takeover not yet re-learned.
		Frontier: func() int64 {
			f := r.nextInst
			if lf := r.log.LearnedFrontier(); lf > f {
				f = lf
			}
			return f
		},
		Applied: func() int64 { return r.log.NextToApply() },
		Ready:   func() bool { return r.snap.Recovered() && !r.snap.CatchingUp() },
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

// IsLeader reports whether this node currently leads.
func (r *Replica) IsLeader() bool { return r.iAmLeader }

// KnownLeader reports this node's view of the current leader.
func (r *Replica) KnownLeader() msg.NodeID { return r.knownLeader }

// Commits reports how many instances this node has applied.
func (r *Replica) Commits() int64 { return r.commits }

// Takeovers reports how many times this node won leadership.
func (r *Replica) Takeovers() int64 { return r.takeovers }

// Log exposes the learner log for consistency checks in tests.
func (r *Replica) Log() *rsm.Log { return r.log }

// SnapshotStats reports the replica's recovery-subsystem counters.
func (r *Replica) SnapshotStats() metrics.SnapshotStats { return r.snap.Stats() }

// SessionGrowths reports how often this replica's session rings had to
// grow (rsm.Sessions.Growths). Safe from any goroutine.
func (r *Replica) SessionGrowths() int64 { return r.sessions.Growths() }

// ReadStats reports the replica's read-fast-path counters.
func (r *Replica) ReadStats() metrics.ReadStats { return r.read.Stats() }

// ReadPath exposes the read-path server for tests (clock-skew hooks).
func (r *Replica) ReadPath() *readpath.Server { return r.read }

// Recovered reports whether this replica has finished recovering (see
// snapshot.Manager.Recovered); trivially true unless built in Recover
// mode. Safe from any goroutine.
func (r *Replica) Recovered() bool { return r.snap.Recovered() }

// Start launches phase 1 on the initial leader; Multi-Paxos pays the
// prepare round once and then leads every subsequent instance
// (Section 2.3: "After a proposer p takes the leadership position for one
// instance, it could be more efficient if p assumes this position for the
// next Paxos instance as well").
func (r *Replica) Start(ctx runtime.Context) {
	r.ctx = ctx
	r.snap.Start(ctx)
	r.read.Start(ctx)
	// A recovering replica rejoins as a follower: it must learn what the
	// group decided before it may compete for leadership.
	if r.me == r.replicas[0] && !r.cfg.Recover {
		r.startPrepare()
	}
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
		r.onClientRequest(from, mm)
	case msg.MPPrepare:
		r.onPrepare(from, mm)
	case msg.MPPromise:
		r.onPromise(from, mm)
	case msg.MPAccept:
		r.onAccept(from, mm)
	case msg.MPLearn:
		r.onLearn(mm)
	case msg.MPNack:
		r.onNack(mm)
	}
}

// Timer dispatches one timer.
func (r *Replica) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	r.ctx = ctx
	if r.snap.HandleTimer(ctx, tag) {
		return
	}
	if r.read.HandleTimer(ctx, tag) {
		return
	}
	switch tag.Kind {
	case timerAcceptDeadline:
		if r.iAmLeader && r.outstanding[tag.Arg] && !r.log.Learned(tag.Arg) {
			// Retransmit; acceptors re-broadcast learns for duplicates.
			r.broadcastAccept(tag.Arg)
		}
	case timerRetryPrepare:
		if !r.iAmLeader && len(r.pending) > 0 {
			r.startPrepare()
		}
	}
}

// --- Client path ---

func (r *Replica) onClientRequest(from msg.NodeID, req msg.ClientRequest) {
	if r.snap.CatchingUp() {
		return // recovering: the client's retry lands after the transfer
	}
	// Committed entries (single command or batch alike) are answered
	// from the session table; what remains still needs agreement.
	fresh := r.sessions.Screen(req, func(rep msg.ClientReply) { r.ctx.Send(req.Client, rep) })
	// Mark what is left as originating here — this replica will propose
	// or queue it, and owes the reply — dropping retries of entries
	// already marked (proposed or queued here before).
	entries := fresh[:0]
	for _, be := range fresh {
		if r.sessions.MarkOrigin(req.Client, be.Seq) {
			entries = append(entries, be)
		}
	}
	if len(entries) == 0 {
		return
	}
	switch {
	case r.iAmLeader:
		r.proposeValue(msg.NewValue(req.Client, req.Ack, entries))
	case r.cfg.ForwardToLeader && r.knownLeader != r.me && r.knownLeader != msg.Nobody && from != r.knownLeader:
		// The leader marks them its own and answers; nothing stays here.
		for _, be := range entries {
			r.sessions.TakeOrigin(req.Client, be.Seq)
		}
		r.ctx.Send(r.knownLeader, req)
	default:
		r.pending = append(r.pending, msg.NewRequest(req.Client, req.Ack, entries))
		if !r.preparing {
			r.startPrepare()
		}
	}
}

func (r *Replica) proposeValue(v msg.Value) {
	in := r.nextInst
	r.nextInst++
	r.proposed[in] = v
	r.broadcastAccept(in)
}

func (r *Replica) broadcastAccept(in int64) {
	v, ok := r.proposed[in]
	if !ok || r.log.Learned(in) {
		return
	}
	r.outstanding[in] = true
	for _, id := range r.replicas {
		r.ctx.Send(id, msg.MPAccept{Instance: in, PN: r.myPN, Value: v})
	}
	r.ctx.After(r.cfg.AcceptTimeout, runtime.TimerTag{Kind: timerAcceptDeadline, Arg: in})
}

// --- Phase 1 ---

func (r *Replica) startPrepare() {
	r.preparing = true
	r.myPN = r.nextPN()
	r.promises = make(map[msg.NodeID]bool)
	r.carried = make(map[int64]msg.Proposal)
	for _, id := range r.replicas {
		r.ctx.Send(id, msg.MPPrepare{PN: r.myPN, FromInstance: r.log.NextToApply()})
	}
}

func (r *Replica) onPrepare(from msg.NodeID, m msg.MPPrepare) {
	if m.PN > r.maxPNSeen {
		r.maxPNSeen = m.PN
	}
	if r.read.PrepareHold(from) > 0 {
		// An unexpired read lease binds this acceptor to another leader:
		// promising from now would let a new leader commit writes the
		// lease holder never sees while still serving local reads. The
		// nack sends the challenger into its jittered retry loop, which
		// outlives any lease.
		r.ctx.Send(from, msg.MPNack{PN: r.hpn})
		return
	}
	if m.PN > r.hpn {
		r.hpn = m.PN
		// Answer with live accepted proposals plus the already-applied
		// suffix: an applied value is decided, and a proposer lagging
		// behind this acceptor's applied frontier must re-propose it
		// rather than invent a fresh value for a decided instance.
		seen := make(map[int64]bool, len(r.ap))
		tail := make([]msg.Proposal, 0, len(r.ap))
		for in, p := range r.ap {
			if in >= m.FromInstance {
				tail = append(tail, p)
				seen[in] = true
			}
		}
		r.log.Scan(m.FromInstance, func(e rsm.Entry) bool {
			if !seen[e.Instance] {
				tail = append(tail, msg.Proposal{Instance: e.Instance, PN: m.PN, Value: e.Value})
			}
			return true
		})
		if m.FromInstance < r.log.Floor() {
			// The proposer lags below our compaction floor: the decided
			// values it is missing live only in the snapshot. Push a
			// catch-up transfer ahead of the promise (FIFO per peer) and
			// flag the floor on the promise so the winner never no-op
			// fills those instances.
			r.snap.Serve(r.ctx, from, m.FromInstance)
		}
		r.ctx.Send(from, msg.MPPromise{PN: m.PN, From: r.me, Accepted: tail, Floor: r.log.Floor()})
	} else {
		r.ctx.Send(from, msg.MPNack{PN: r.hpn})
	}
}

func (r *Replica) onPromise(from msg.NodeID, m msg.MPPromise) {
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
	if len(r.promises) < r.quorum {
		return
	}
	// Leadership won: re-propose carried values, fill gaps, serve queue.
	r.preparing = false
	r.iAmLeader = true
	r.knownLeader = r.me
	r.takeovers++
	r.cfg.Events.Emitf(r.ctx.Now(), r.me, "leader-change",
		"election %d won (pn %d)", r.takeovers, r.myPN)
	for in, p := range r.carried {
		if !r.log.Learned(in) {
			r.proposed[in] = p.Value
			if in >= r.nextInst {
				r.nextInst = in + 1
			}
		}
	}
	if r.nextInst < r.log.NextToApply() {
		r.nextInst = r.log.NextToApply()
	}
	if r.nextInst < r.noopFloor {
		r.nextInst = r.noopFloor
	}
	for in := r.log.NextToApply(); in < r.nextInst; in++ {
		if in < r.noopFloor {
			// Decided at a peer and compacted there; the catch-up push
			// delivers the value — filling with a no-op would diverge.
			continue
		}
		if _, ok := r.proposed[in]; !ok && !r.log.Learned(in) {
			r.proposed[in] = msg.Value{Client: msg.Nobody, Cmd: msg.Command{Op: msg.OpNoop}}
		}
	}
	for in := r.log.NextToApply(); in < r.nextInst; in++ {
		r.broadcastAccept(in)
	}
	pending := r.pending
	r.pending = nil
	for _, req := range pending {
		keep := r.sessions.Unseen(req.Client, req.Entries())
		if len(keep) == 0 {
			continue
		}
		r.proposeValue(msg.NewValue(req.Client, req.Ack, keep))
	}
}

// --- Phase 2 ---

func (r *Replica) onAccept(from msg.NodeID, m msg.MPAccept) {
	if m.PN > r.maxPNSeen {
		r.maxPNSeen = m.PN
	}
	if m.PN < r.hpn {
		r.ctx.Send(from, msg.MPNack{PN: r.hpn})
		return
	}
	r.hpn = m.PN
	for in := range r.ap {
		if in < r.log.NextToApply() {
			delete(r.ap, in)
		}
	}
	p := msg.Proposal{Instance: m.Instance, PN: m.PN, Value: m.Value}
	r.ap[m.Instance] = p
	// Acceptors broadcast to all learners (Section 2.3: "the acceptors
	// broadcast the corresponding message to all the learners").
	for _, id := range r.replicas {
		r.ctx.Send(id, msg.MPLearn{Instance: m.Instance, PN: m.PN, Value: m.Value, From: r.me})
	}
	if from != r.me {
		r.knownLeader = from
	}
}

func (r *Replica) onLearn(m msg.MPLearn) {
	if r.log.Learned(m.Instance) {
		return
	}
	byNode, ok := r.votes[m.Instance]
	if !ok {
		byNode = make(map[msg.NodeID]msg.Proposal)
		r.votes[m.Instance] = byNode
	}
	byNode[m.From] = msg.Proposal{Instance: m.Instance, PN: m.PN, Value: m.Value}
	count := 0
	for _, p := range byNode {
		if p.PN == m.PN {
			count++
		}
	}
	if count >= r.quorum {
		delete(r.votes, m.Instance)
		delete(r.outstanding, m.Instance)
		r.log.Learn(m.Instance, m.Value)
		// A hole below this learn may be a dropped-learn gap that live
		// traffic will never refill; arm the stall watchdog.
		r.snap.WatchGap(r.ctx)
	}
}

func (r *Replica) onNack(m msg.MPNack) {
	if m.PN > r.maxPNSeen {
		r.maxPNSeen = m.PN
	}
	if r.iAmLeader && m.PN > r.myPN {
		// A higher-numbered proposer exists: deposed.
		r.iAmLeader = false
		return
	}
	if r.preparing {
		// Lost the duel: retry after a jittered backoff.
		r.preparing = false
		backoff := r.cfg.PrepareBackoff + time.Duration(r.ctx.Rand().Int63n(int64(r.cfg.PrepareBackoff)))
		r.ctx.After(backoff, runtime.TimerTag{Kind: timerRetryPrepare})
	}
}

// --- Apply path ---

func (r *Replica) onApply(e rsm.Entry, results []string) {
	r.commits++
	delete(r.proposed, e.Instance)
	delete(r.outstanding, e.Instance)
	defer r.snap.AfterApply() // noops advance the snapshot cadence too
	defer r.read.AfterApply() // confirmed reads may now be serveable
	v := e.Value
	if v.Client == msg.Nobody {
		return
	}
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
	// One message answers the whole batch, so the client can retire it
	// in one step and refill its window with a full batch. A batch
	// message takes over the pooled array (the receiver recycles it);
	// otherwise it goes straight back to the pool.
	if m := msg.WrapReplies(replies); m != nil {
		r.ctx.Send(v.Client, m)
		if _, batched := m.(msg.ClientReplyBatch); batched {
			replies = nil
		}
	}
	msg.PutReplies(replies)
}

func (r *Replica) nextPN() uint64 {
	base := r.myPN
	if r.maxPNSeen > base {
		base = r.maxPNSeen
	}
	if r.hpn > base {
		base = r.hpn
	}
	idx := 0
	for i, id := range r.replicas {
		if id == r.me {
			idx = i
			break
		}
	}
	return basicpaxos.NextPN(msg.NodeID(idx), base)
}
