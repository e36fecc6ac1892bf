// Package onepaxos implements 1Paxos, the paper's contribution (Sections
// 4, 5 and Appendix A): a non-blocking agreement protocol with a single
// active acceptor.
//
// The key insight (Section 4.3): acceptor replication in Paxos is mostly
// for *availability*, not reliability. 1Paxos therefore keeps exactly one
// active acceptor on the fast path — halving the messages the leader
// processes per agreement relative to collapsed Multi-Paxos — and restores
// availability with *backup* acceptors that are promoted through a side
// consensus (PaxosUtility) only when the active one stops responding.
//
// Fast path (failure-free, Figure 3):
//
//	client ──request──▶ leader ──accept_request──▶ active acceptor
//	                                              │ learn (multicast)
//	          client ◀──reply── leader/learner ◀──┘
//
// Fault handling follows Appendix A exactly:
//   - active acceptor unresponsive → the leader (and only the leader —
//     "Upon AcceptorFailure: if (!IamLeader) return") commits an
//     AcceptorChange(A′, uncommittedProposals) entry, then re-adopts the
//     fresh acceptor with a MustBeFresh prepare;
//   - leader unresponsive → any proposer commits LeaderChange(P′, A) and
//     adopts the *same* acceptor, whose prepare_response carries every
//     accepted proposal (Lemma 2b);
//   - both unresponsive → no progress until one recovers (Section 5.4);
//     with three replicas this matches plain Paxos's availability.
package onepaxos

import (
	"fmt"
	"time"

	"consensusinside/internal/basicpaxos"
	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/paxosutil"
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/snapshot"
	"consensusinside/internal/trace"
)

// Timer kinds used by a Replica. PaxosUtility's reserved kinds are >= 100.
const (
	timerAcceptDeadline  = 1 // Arg: instance whose learn is overdue
	timerRetryTakeover   = 2
	timerFlushLearns     = 3
	timerPrepareDeadline = 4 // Arg: the pn the prepare was sent with
)

// Config parameterizes a Replica.
type Config struct {
	// ID is this node; Replicas is the agreement group (servers), in a
	// fixed order shared by all nodes. Replicas[0] is the initial leader
	// and the last replica the initial active acceptor — distinct nodes,
	// per Section 5.4's placement rule, and placed so that the natural
	// client failover target (the next replica after the leader) is a
	// pure proposer, keeping leader and acceptor separated after a
	// takeover too.
	ID       msg.NodeID
	Replicas []msg.NodeID

	// Applier is the replicated state machine; nil means a fresh KV.
	Applier rsm.Applier

	// AcceptTimeout bounds how long the leader waits for a learn before
	// suspecting the active acceptor (and how long a takeover waits for a
	// prepare_response). Zero means DefaultAcceptTimeout.
	AcceptTimeout time.Duration

	// TakeoverBackoff delays a retry after a lost takeover race.
	// Zero means DefaultTakeoverBackoff.
	TakeoverBackoff time.Duration

	// ForwardToLeader makes a non-leader replica forward client requests
	// to the current leader instead of attempting a takeover. This is the
	// "Joint" deployment of Section 7.4, where every client is a replica
	// and all commands funnel through the leader.
	ForwardToLeader bool

	// EnableLearnBatching coalesces the acceptor's learn broadcast to
	// non-leader learners into one message per destination per flush
	// (DESIGN.md ablation). The leader's learn — the commit latency path —
	// is never delayed.
	EnableLearnBatching bool

	// LearnFlushEvery is the batching flush period (default 25µs).
	LearnFlushEvery time.Duration

	// UtilRetryTimeout overrides PaxosUtility's retry timeout.
	UtilRetryTimeout time.Duration

	// SnapshotInterval captures a durable-state snapshot every this many
	// applied instances and compacts the log behind it (0 = off, the
	// paper's unbounded log). See internal/snapshot.
	SnapshotInterval int

	// SnapshotChunkSize is the snapshot transfer chunk size (0 = the
	// snapshot package default).
	SnapshotChunkSize int

	// Recover makes the replica stream a snapshot and log suffix from a
	// live peer before serving clients — the restarted-replica mode.
	Recover bool

	// ReadMode selects the read fast path (internal/readpath). 1Paxos
	// confirms read rounds — and anchors leases — at its single active
	// acceptor: the acceptor is the serialization point every would-be
	// leader must adopt, so its word alone is sound where a peer quorum
	// would not be (writes never cross a quorum here).
	ReadMode readpath.Mode

	// LeaseDuration overrides readpath.DefaultLeaseDuration.
	LeaseDuration time.Duration

	// Tracer, when non-nil, stamps the decide/apply stages of sampled
	// commands (internal/trace).
	Tracer *trace.Tracer

	// Events, when non-nil, receives rare-event timeline entries:
	// leader takeovers, acceptor switches, lease and recovery episodes.
	Events *obs.EventLog
}

// Defaults for Config zero values.
const (
	DefaultAcceptTimeout   = 400 * time.Microsecond
	DefaultTakeoverBackoff = 200 * time.Microsecond
	DefaultLearnFlush      = 25 * time.Microsecond
)

// Replica is one 1Paxos node, implementing all three roles (proposer,
// backup/active acceptor, learner) plus the embedded PaxosUtility.
type Replica struct {
	cfg      Config
	me       msg.NodeID
	replicas []msg.NodeID
	util     *paxosutil.Util
	ctx      runtime.Context // valid during a callback

	// Proposer / leader state (Appendix A: IamLeader, Aa, proposed).
	iAmLeader   bool
	takingOver  bool
	switchingAa bool
	aa          msg.NodeID
	// aaVirgin is true while this node knows the active acceptor cannot
	// have accepted any proposal: it was installed fresh by this node's
	// own AcceptorChange (or is the boot acceptor observed by the boot
	// leader) and no accept_request has been sent to it yet. A virgin
	// acceptor may be replaced even before adoption — the safety argument
	// for restricting AcceptorChange to adopted leaders is precisely that
	// a non-adopted proposer cannot know the acceptor's accepted
	// proposals, and for a virgin acceptor that set is empty.
	aaVirgin    bool
	knownLeader msg.NodeID
	myPN        uint64
	nextInst    int64
	// noopFloor is the highest applied frontier carried by any observed
	// AcceptorChange: instances below it were decided at a previous
	// acceptor, so a new leader must wait for their (in-flight) learns
	// rather than fill them with no-ops.
	noopFloor   int64
	proposed    map[int64]msg.Value
	outstanding map[int64]bool
	// acceptTimers holds the pending accept-deadline cancel per
	// outstanding instance, so the failure-detector timer is retired as
	// soon as the learn arrives instead of expiring hundreds of
	// milliseconds later (real runtimes pay goroutine churn for every
	// expiry on the hot path).
	acceptTimers map[int64]runtime.CancelFunc
	pending      []msg.ClientRequest

	// Acceptor state (Appendix A: hpn, ap, IamFresh).
	hpn      uint64
	adopted  msg.NodeID // the proposer holding the current promise
	ap       map[int64]msg.Proposal
	apPruned int64 // ap holds nothing below this instance (see pruneAccepted)
	iAmFresh bool
	learnBuf []msg.Proposal

	// Learner state.
	log      *rsm.Log
	kv       rsm.Applier
	sessions *rsm.Sessions
	snap     *snapshot.Manager
	read     *readpath.Server

	commits       int64
	takeovers     int64
	acceptorSwaps int64
}

var _ runtime.Handler = (*Replica)(nil)

// New builds a Replica from cfg. It panics on malformed configuration
// (fewer than three replicas, or ID not in the replica set): these are
// programming errors in experiment wiring, not runtime conditions.
func New(cfg Config) *Replica {
	if len(cfg.Replicas) < 3 {
		panic("onepaxos: need at least three replicas (leader, acceptor, and a backup)")
	}
	in := false
	for _, id := range cfg.Replicas {
		if id == cfg.ID {
			in = true
			break
		}
	}
	if !in {
		panic(fmt.Sprintf("onepaxos: node %d not in replica set %v", cfg.ID, cfg.Replicas))
	}
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = DefaultAcceptTimeout
	}
	if cfg.TakeoverBackoff == 0 {
		cfg.TakeoverBackoff = DefaultTakeoverBackoff
	}
	if cfg.LearnFlushEvery == 0 {
		cfg.LearnFlushEvery = DefaultLearnFlush
	}
	applier := cfg.Applier
	if applier == nil {
		applier = rsm.NewKV()
	}
	r := &Replica{
		cfg:          cfg,
		me:           cfg.ID,
		replicas:     append([]msg.NodeID(nil), cfg.Replicas...),
		aa:           cfg.Replicas[len(cfg.Replicas)-1],
		knownLeader:  cfg.Replicas[0],
		adopted:      msg.Nobody,
		iAmFresh:     true,
		proposed:     make(map[int64]msg.Value),
		outstanding:  make(map[int64]bool),
		acceptTimers: make(map[int64]runtime.CancelFunc),
		ap:           make(map[int64]msg.Proposal),
		sessions:     rsm.NewSessions(),
		kv:           applier,
	}
	r.util = paxosutil.New(cfg.ID, cfg.Replicas)
	if cfg.UtilRetryTimeout > 0 {
		r.util.SetRetryTimeout(cfg.UtilRetryTimeout)
	}
	r.util.OnCommit(r.onUtilCommit)
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
		// Every instance the snapshot covers was decided elsewhere while
		// this replica was gone: treat the restored frontier exactly like
		// an AcceptorChange frontier — never no-op fill or hand those
		// instances to fresh proposals.
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
		// The active acceptor is the round's sole confirmer: every
		// leader change must adopt it (flipping its `adopted` record),
		// so its acknowledgement proves no newer leader has committed.
		Confirmers: func() []msg.NodeID { return []msg.NodeID{r.aa} },
		NeedAcks:   1,
		Grant:      func(from msg.NodeID) bool { return r.adopted == from },
		// nextInst covers everything this leader may commit — including
		// proposals carried over from a takeover that are not yet
		// re-learned locally — so waiting it out is always safe.
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

// --- Introspection (used by experiments and tests) ---

// IsLeader reports whether this node currently holds the acceptor's
// promise (Appendix A's IamLeader).
func (r *Replica) IsLeader() bool { return r.iAmLeader }

// ActiveAcceptor reports this node's view of the active acceptor.
func (r *Replica) ActiveAcceptor() msg.NodeID { return r.aa }

// KnownLeader reports this node's view of the current leader.
func (r *Replica) KnownLeader() msg.NodeID { return r.knownLeader }

// Commits reports how many instances this node has applied.
func (r *Replica) Commits() int64 { return r.commits }

// Takeovers reports how many successful leadership takeovers this node
// performed.
func (r *Replica) Takeovers() int64 { return r.takeovers }

// AcceptorSwaps reports how many AcceptorChange entries this node drove.
func (r *Replica) AcceptorSwaps() int64 { return r.acceptorSwaps }

// Log exposes the learner's log for consistency checks in tests.
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

// --- Handler implementation ---

// Start bootstraps the static initial configuration: Replicas[0] adopts
// Replicas[1] as its acceptor. The paper's Appendix B closes its induction
// with exactly this convention (initial LeaderChange/AcceptorChange by the
// smallest-id node, with no actual role change).
func (r *Replica) Start(ctx runtime.Context) {
	r.ctx = ctx
	r.snap.Start(ctx)
	r.read.Start(ctx)
	// A recovering replica never runs the boot-leader convention, even
	// as Replicas[0]: the group has moved on without it, and it must
	// learn what was decided before it may compete for any role.
	if r.me == r.replicas[0] && !r.cfg.Recover {
		r.takingOver = true
		r.aaVirgin = true // the boot acceptor is fresh by construction
		r.myPN = r.nextPN()
		ctx.Send(r.aa, msg.PrepareRequest{PN: r.myPN, MustBeFresh: true, From: r.log.NextToApply()})
		r.armPrepareDeadline()
	}
}

// Receive dispatches one message.
func (r *Replica) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	r.ctx = ctx
	if r.util.Handle(ctx, from, m) {
		return
	}
	if r.snap.Handle(ctx, from, m) {
		return
	}
	if r.read.Handle(ctx, from, m) {
		return
	}
	switch mm := m.(type) {
	case msg.ClientRequest:
		r.onClientRequest(from, mm)
	case msg.PrepareRequest:
		r.onPrepareRequest(from, mm)
	case msg.PrepareResponse:
		r.onPrepareResponse(from, mm)
	case msg.AcceptRequest:
		r.onAcceptRequest(from, mm)
	case msg.Learn:
		r.onLearn(mm)
	case msg.Abandon:
		r.onAbandon(from, mm)
	default:
		// Unknown messages are dropped; the wire may carry client replies
		// in joint deployments where this node is also a client.
	}
}

// Timer dispatches one timer.
func (r *Replica) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	r.ctx = ctx
	if r.util.HandleTimer(ctx, tag) {
		return
	}
	if r.snap.HandleTimer(ctx, tag) {
		return
	}
	if r.read.HandleTimer(ctx, tag) {
		return
	}
	switch tag.Kind {
	case timerAcceptDeadline:
		delete(r.acceptTimers, tag.Arg)
		if r.iAmLeader && r.outstanding[tag.Arg] && !r.log.Learned(tag.Arg) {
			r.onAcceptorFailure(false)
		}
	case timerRetryTakeover:
		if !r.iAmLeader && len(r.pending) > 0 {
			r.startTakeover()
		}
	case timerFlushLearns:
		r.flushLearns()
	case timerPrepareDeadline:
		r.onPrepareDeadline(uint64(tag.Arg))
	}
}

// --- Client path ---

func (r *Replica) onClientRequest(from msg.NodeID, req msg.ClientRequest) {
	if r.snap.CatchingUp() {
		// Still streaming state from a peer: serving (or queueing, or
		// taking over for) this request now could propose against a
		// stale view. Drop it; the client's retry lands after recovery.
		return
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
	case r.iAmLeader && r.switchingAa:
		// Mid acceptor switch: a new proposal sent to the outgoing
		// acceptor could be decided there *above* the frontier the
		// in-flight AcceptorChange carries — invisible to both its
		// Uncommitted set and the next regime's noop floor, so a later
		// leader would noop-fill the instance over a decided value.
		// Queue; adoption of the fresh acceptor flushes pending.
		r.pending = append(r.pending, msg.NewRequest(req.Client, req.Ack, entries))
	case r.iAmLeader:
		r.proposeValue(msg.NewValue(req.Client, req.Ack, entries))
	case r.cfg.ForwardToLeader && r.knownLeader != r.me && r.knownLeader != msg.Nobody && from != r.knownLeader:
		// Joint mode: funnel commands through the leader (Section 7.4),
		// which marks them its own and answers; nothing stays here.
		for _, be := range entries {
			r.sessions.TakeOrigin(req.Client, be.Seq)
		}
		r.ctx.Send(r.knownLeader, req)
	default:
		// The paper's failover story (Section 7.6): clients redirect to a
		// non-leader node, which then tries to become leader.
		r.pending = append(r.pending, msg.NewRequest(req.Client, req.Ack, entries))
		r.startTakeover()
	}
}

// proposeValue assigns the next instance and runs the fast path.
func (r *Replica) proposeValue(v msg.Value) {
	in := r.nextInst
	r.nextInst++
	r.proposed[in] = v
	r.sendAccept(in)
}

func (r *Replica) sendAccept(in int64) {
	v, ok := r.proposed[in]
	if !ok || r.log.Learned(in) {
		return
	}
	r.outstanding[in] = true
	r.aaVirgin = false // the acceptor may hold accepted proposals from here on
	r.ctx.Send(r.aa, msg.AcceptRequest{Instance: in, PN: r.myPN, Value: v})
	if cancel, ok := r.acceptTimers[in]; ok {
		cancel()
	}
	r.acceptTimers[in] = r.ctx.After(r.cfg.AcceptTimeout, runtime.TimerTag{Kind: timerAcceptDeadline, Arg: in})
}

// --- Acceptor role (Appendix A lines 45-61) ---

func (r *Replica) onPrepareRequest(from msg.NodeID, m msg.PrepareRequest) {
	if r.aa != r.me {
		// This node is not the active acceptor in the newest regime it
		// has observed, so the proposer's view is staler than ours. The
		// paper's fail-stop assumption does not hold under partitions: a
		// falsely-suspected acceptor keeps running, and honoring this
		// prepare would let a deposed leader commit against short-term
		// memory the regime has already moved past. Refuse; the
		// proposer's utility backfill will refresh its view. (A freshly
		// promoted acceptor that has not yet applied its own
		// AcceptorChange also lands here — the proposer's prepare
		// deadline retries until the commit reaches us.)
		r.ctx.Send(from, msg.Abandon{HPN: r.hpn})
		return
	}
	if r.read.PrepareHold(from) > 0 {
		// An unexpired read lease binds this acceptor to another leader:
		// adopting from now could let it commit writes the lease holder
		// never sees while still serving local reads. Drop the prepare;
		// the prepare-deadline retry lands after the lease runs out.
		return
	}
	if m.PN > r.hpn {
		if r.iAmFresh != m.MustBeFresh {
			// Freshness mismatch: a silently-reset acceptor must not serve
			// a leader that believes it is adopted (and vice versa).
			r.ctx.Send(from, msg.Abandon{HPN: r.hpn, FreshMismatch: true, IamFresh: r.iAmFresh})
			return
		}
		r.iAmFresh = false
		r.hpn = m.PN
		r.adopted = from
		if m.From < r.log.Floor() {
			// The proposer's frontier is below our compaction floor: the
			// decided values it is missing live only in the snapshot.
			// Push a catch-up transfer ahead of the response (FIFO per
			// peer, so it installs before the response is processed) and
			// flag the floor on the response itself so the new leader
			// never no-op fills those instances even if the push is lost.
			r.snap.Serve(r.ctx, from, m.From)
		}
		r.ctx.Send(from, msg.PrepareResponse{Acceptor: r.me, PN: m.PN, Accepted: r.proposalsSince(m.From), Floor: r.log.Floor()})
	} else {
		r.ctx.Send(from, msg.Abandon{HPN: r.hpn})
	}
}

func (r *Replica) onAcceptRequest(from msg.NodeID, m msg.AcceptRequest) {
	if r.aa != r.me {
		// Retired acceptor (see the matching check in onPrepareRequest):
		// accepting from a staler-view leader would decide an instance a
		// newer regime may have decided differently elsewhere.
		r.ctx.Send(from, msg.Abandon{HPN: r.hpn})
		return
	}
	r.pruneAccepted()
	if m.PN != r.hpn {
		r.ctx.Send(from, msg.Abandon{HPN: r.hpn})
		return
	}
	if prev, ok := r.ap[m.Instance]; ok {
		// Retried accept: re-multicast the learn for the accepted value
		// (Appendix A line 57-58), covering lost learn messages.
		r.multicastLearn(prev)
		return
	}
	p := msg.Proposal{Instance: m.Instance, PN: m.PN, Value: m.Value}
	r.ap[m.Instance] = p
	if m.Instance < r.apPruned {
		r.apPruned = m.Instance // a late accept below the frontier: prune it next time
	}
	r.multicastLearn(p)
}

// pruneAccepted drops accepted proposals below the applied frontier:
// they are learner state now (the acceptor is only short-term memory,
// Section 4.1). It runs on every accept, so it walks from where the
// last call stopped instead of ranging the whole map — except after a
// long absence from the acceptor role, when the frontier has moved
// further than the map is large and ranging the map is the shorter walk.
func (r *Replica) pruneAccepted() {
	next := r.log.NextToApply()
	if next-r.apPruned > int64(len(r.ap)) {
		for in := range r.ap {
			if in < next {
				delete(r.ap, in)
			}
		}
	} else {
		for in := r.apPruned; in < next; in++ {
			delete(r.ap, in)
		}
	}
	r.apPruned = next
}

// multicastLearn delivers one accepted proposal to all learners. The
// adopted leader always gets its learn immediately — it is the commit
// latency path; with batching enabled the remaining learners are served
// from a periodically flushed buffer.
func (r *Replica) multicastLearn(p msg.Proposal) {
	if !r.cfg.EnableLearnBatching {
		for _, id := range r.replicas {
			r.ctx.Send(id, msg.Learn{Entries: []msg.Proposal{p}})
		}
		return
	}
	if r.adopted != msg.Nobody {
		r.ctx.Send(r.adopted, msg.Learn{Entries: []msg.Proposal{p}})
	}
	if len(r.learnBuf) == 0 {
		r.ctx.After(r.cfg.LearnFlushEvery, runtime.TimerTag{Kind: timerFlushLearns})
	}
	r.learnBuf = append(r.learnBuf, p)
}

func (r *Replica) flushLearns() {
	if len(r.learnBuf) == 0 {
		return
	}
	batch := msg.Learn{Entries: r.learnBuf}
	r.learnBuf = nil
	for _, id := range r.replicas {
		if id == r.adopted {
			continue // already served on the fast path
		}
		r.ctx.Send(id, batch)
	}
}

func (r *Replica) apSlice() []msg.Proposal {
	out := make([]msg.Proposal, 0, len(r.ap))
	for _, p := range r.ap {
		out = append(out, p)
	}
	return out
}

// proposalsSince merges the acceptor's live accepted proposals with the
// decided suffix of its log from the given instance on — both the
// applied entries and the learned-but-unapplied ones (a catch-up
// transfer can install learns this acceptor never accepted, so they are
// in neither ap nor the applied history). Decided values are always safe
// to return as accepted proposals; without them a proposer lagging
// behind this node could propose a fresh value for a decided instance.
func (r *Replica) proposalsSince(from int64) []msg.Proposal {
	seen := make(map[int64]bool, len(r.ap))
	out := make([]msg.Proposal, 0, len(r.ap))
	for _, p := range r.ap {
		if p.Instance >= from {
			out = append(out, p)
			seen[p.Instance] = true
		}
	}
	r.log.Scan(from, func(e rsm.Entry) bool {
		if !seen[e.Instance] {
			seen[e.Instance] = true
			out = append(out, msg.Proposal{Instance: e.Instance, PN: r.hpn, Value: e.Value})
		}
		return true
	})
	r.log.ScanPending(func(e rsm.Entry) bool {
		if e.Instance >= from && !seen[e.Instance] {
			out = append(out, msg.Proposal{Instance: e.Instance, PN: r.hpn, Value: e.Value})
		}
		return true
	})
	return out
}

// --- Learner role ---

func (r *Replica) onLearn(m msg.Learn) {
	for _, p := range m.Entries {
		delete(r.outstanding, p.Instance)
		if cancel, ok := r.acceptTimers[p.Instance]; ok {
			cancel()
			delete(r.acceptTimers, p.Instance)
		}
		r.log.Learn(p.Instance, p.Value)
	}
	// A hole below these learns may be permanent — its own learn could
	// have been dropped by a partition, and instances below the noop
	// floor are never gap-filled. Arm the stall watchdog.
	r.snap.WatchGap(r.ctx)
}

// onApply fires for every instance applied in order; a batched value
// yields one session record and one reply per command.
func (r *Replica) onApply(e rsm.Entry, results []string) {
	r.commits++
	delete(r.proposed, e.Instance)
	delete(r.outstanding, e.Instance)
	defer r.snap.AfterApply() // noops advance the snapshot cadence too
	defer r.read.AfterApply() // confirmed reads may now be serveable
	v := e.Value
	if v.Client == msg.Nobody {
		return // gap-filling noop
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

// --- Proposer: becoming leader (Appendix A propose()/prepare_response) ---

func (r *Replica) onPrepareResponse(from msg.NodeID, m msg.PrepareResponse) {
	if r.iAmLeader || m.Acceptor != r.aa || m.PN != r.myPN {
		return
	}
	r.iAmLeader = true
	r.takingOver = false
	r.knownLeader = r.me
	r.takeovers++
	r.cfg.Events.Emitf(r.ctx.Now(), r.me, "leader-change",
		"takeover %d complete (pn %d, acceptor %d)", r.takeovers, r.myPN, r.aa)
	if m.Floor > r.noopFloor {
		// Instances below the acceptor's compaction floor are decided;
		// their values arrive via the catch-up push, not this response.
		r.noopFloor = m.Floor
	}
	// Compacted instances are invisible to the response's Accepted set
	// (the acceptor's retained log starts at its floor), so a stale local
	// proposal below it would survive registerProposals — drop it instead
	// of re-proposing it over a decided instance.
	r.dropProposalsBelow(m.Floor)
	r.registerProposals(m.Accepted)
	r.catchUpInstances()
	// Re-propose everything uncommitted (getAny prefers registered values,
	// Lemma 2a/2b), then serve queued client requests.
	for in := r.log.NextToApply(); in < r.nextInst; in++ {
		r.sendAccept(in)
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

// dropProposalsBelow forgets local proposals for instances below floor.
// A proposal registered during an earlier, since-deposed leadership can
// linger in r.proposed with a value that lost: the instance was decided
// under a regime this node never witnessed (its learn was cut off), and
// re-proposing the loser to a fresh acceptor — which has no memory of
// the decided value — would decide the instance twice. Both floors this
// is called with attest every instance below them decided: an
// AcceptorChange frontier (whose Uncommitted carries the only proposals
// allowed to live below it, re-registered right after the drop) and an
// acceptor's snapshot-compaction floor.
func (r *Replica) dropProposalsBelow(floor int64) {
	for in := range r.proposed {
		if in < floor {
			delete(r.proposed, in)
		}
	}
}

// registerProposals records carried-over uncommitted proposals so getAny
// re-proposes them rather than new values (Appendix A registerProposals).
func (r *Replica) registerProposals(ps []msg.Proposal) {
	for _, p := range ps {
		if r.log.Learned(p.Instance) {
			continue
		}
		r.proposed[p.Instance] = p.Value
		if p.Instance >= r.nextInst {
			r.nextInst = p.Instance + 1
		}
	}
}

// catchUpInstances fills gaps the new leader is responsible for with
// no-ops so the log can advance past instances whose values were lost
// with a failed proposer. Instances below noopFloor are NOT filled: they
// were decided at a previous acceptor and their learns are in flight
// (cores are slow, not amnesiac — the paper's fault model).
//
// It also advances nextInst past every instance this node knows to be
// decided or reserved — the applied frontier, learned-but-unapplied
// instances, and noopFloor — so fresh client commands are never
// proposed at an instance a previous acceptor already decided (a fresh
// backup acceptor has no memory of those and would accept a second
// value).
func (r *Replica) catchUpInstances() {
	if r.nextInst < r.noopFloor {
		r.nextInst = r.noopFloor
	}
	if f := r.log.LearnedFrontier(); r.nextInst < f {
		r.nextInst = f
	}
	for in := r.log.NextToApply(); in < r.nextInst; in++ {
		if in < r.noopFloor {
			continue
		}
		if _, ok := r.proposed[in]; !ok && !r.log.Learned(in) {
			r.proposed[in] = msg.Value{Client: msg.Nobody, Cmd: msg.Command{Op: msg.OpNoop}}
		}
	}
}

func (r *Replica) onAbandon(from msg.NodeID, m msg.Abandon) {
	if m.HPN > r.myPN && r.iAmLeader && from == r.aa {
		// A higher-numbered proposer adopted our acceptor: deposed.
		r.iAmLeader = false
		return
	}
	if !r.takingOver {
		return
	}
	// Retry the prepare with a higher number; flip the freshness
	// expectation if that is what the acceptor objected to.
	mustBeFresh := false
	if m.FreshMismatch {
		mustBeFresh = m.IamFresh
	}
	r.myPN = r.nextPNAbove(m.HPN)
	r.ctx.Send(r.aa, msg.PrepareRequest{PN: r.myPN, MustBeFresh: mustBeFresh, From: r.log.NextToApply()})
	r.armPrepareDeadline()
}

// startTakeover runs Appendix A's propose() slow path: commit a
// LeaderChange through PaxosUtility, then adopt the active acceptor.
func (r *Replica) startTakeover() {
	if r.iAmLeader || r.takingOver {
		return
	}
	r.takingOver = true
	r.myPN = r.nextPN()
	if r.aa == msg.Nobody {
		acceptor, _, carried, ok := r.util.LastActiveAcceptor()
		if !ok {
			acceptor = r.replicas[1] // static initial assignment
		}
		r.aa = acceptor
		r.registerProposals(carried)
	}
	slot := r.util.Frontier()
	entry := msg.UtilEntry{Type: msg.EntryLeaderChange, Leader: r.me, Acceptor: r.aa}
	r.util.Propose(r.ctx, slot, entry, func(success bool, chosen msg.UtilEntry) {
		if success && r.util.Superseded(slot) {
			// Our LeaderChange committed, but its discovery arrived so
			// late (crash window, partition) that later slots have
			// already replaced the regime it installed. Adopting now
			// would promote ancient authority — a stale self-leader
			// deciding instances in parallel with the live regime.
			// Re-run the takeover against the current frontier instead.
			r.takingOver = false
			r.aa = msg.Nobody
			if len(r.pending) > 0 {
				r.ctx.After(r.cfg.TakeoverBackoff, runtime.TimerTag{Kind: timerRetryTakeover})
			}
			return
		}
		if !success {
			// Another entry won the slot; onUtilCommit already updated our
			// view. Forward to the new leader or retry after a backoff.
			r.takingOver = false
			r.aa = msg.Nobody
			if chosen.Type == msg.EntryLeaderChange && chosen.Leader != r.me {
				r.forwardPending(chosen.Leader)
			}
			if len(r.pending) > 0 {
				r.ctx.After(r.cfg.TakeoverBackoff, runtime.TimerTag{Kind: timerRetryTakeover})
			}
			return
		}
		// We are now the Global leader; adopt the acceptor. The acceptor
		// was adopted by the previous leader, so it must not be fresh —
		// unless it never received the previous leader's prepare, in
		// which case the Abandon handler flips the flag and retries.
		r.ctx.Send(r.aa, msg.PrepareRequest{PN: r.myPN, MustBeFresh: false, From: r.log.NextToApply()})
		r.armPrepareDeadline()
	})
}

func (r *Replica) forwardPending(leader msg.NodeID) {
	if leader == r.me || leader == msg.Nobody {
		return
	}
	pending := r.pending
	r.pending = nil
	for _, req := range pending {
		for _, be := range req.Entries() {
			r.sessions.TakeOrigin(req.Client, be.Seq)
		}
		r.ctx.Send(leader, req)
	}
}

// --- Failure detection ---

func (r *Replica) armPrepareDeadline() {
	r.ctx.After(r.cfg.AcceptTimeout, runtime.TimerTag{Kind: timerPrepareDeadline, Arg: int64(r.myPN)})
}

// onPrepareDeadline fires when a prepare_request got no response within
// the timeout. A proposer that was never adopted must NOT replace the
// acceptor: it does not hold the acceptor's accepted proposals, and a
// learner may already have learned one of them (this is exactly why the
// paper restricts AcceptorChange to the leader, Appendix A line 2). It
// can only retry — if both the leader and the active acceptor are down,
// 1Paxos stalls until one of them responds (Section 5.4).
//
// The single exception is a *virgin* acceptor (see the aaVirgin field):
// the Global leader that installed it knows its accepted-proposal set is
// empty and may safely promote another backup. This covers both the boot
// acceptor dying before the system processed any command and sequential
// backup-acceptor failures, preserving the paper's availability claim
// that on three nodes 1Paxos tolerates the failure of any single node.
func (r *Replica) onPrepareDeadline(pn uint64) {
	if r.iAmLeader || pn != r.myPN || !r.takingOver {
		return
	}
	if leader, _ := r.globalLeader(); leader == r.me && r.aaVirgin {
		r.onAcceptorFailure(true)
		return
	}
	r.ctx.Send(r.aa, msg.PrepareRequest{PN: r.myPN, MustBeFresh: r.aaVirgin, From: r.log.NextToApply()})
	r.armPrepareDeadline()
}

// globalLeader resolves the paper's "Global leader": the inserter of the
// last LeaderChange entry, or the static initial leader before any entry
// exists (the Appendix B initialization convention).
func (r *Replica) globalLeader() (msg.NodeID, int64) {
	leader, slot, ok := r.util.LastLeader()
	if !ok {
		return r.replicas[0], slot
	}
	return leader, slot
}

// onAcceptorFailure is Appendix A's "Upon AcceptorFailure" handler.
// virginSwitch marks the one safe non-adopted invocation (see
// onPrepareDeadline).
func (r *Replica) onAcceptorFailure(virginSwitch bool) {
	if r.switchingAa {
		return
	}
	if !r.iAmLeader && !virginSwitch {
		return
	}
	leader, slot := r.globalLeader()
	if leader != r.me {
		// Somebody thought I am dead (Appendix A line 4): relinquish.
		r.aa = msg.Nobody
		r.iAmLeader = false
		return
	}
	next := r.selectAcceptor()
	if next == msg.Nobody {
		return
	}
	r.switchingAa = true
	// The carried frontier covers the applied prefix AND every
	// learned-but-unapplied instance: those are decided at the old
	// acceptor with their learns in flight to every learner, so a later
	// leader must wait for them, not re-propose there. Gaps below the
	// frontier that are merely proposed-but-unlearned travel in
	// Uncommitted and are re-proposed with their original value.
	entry := msg.UtilEntry{
		Type:        msg.EntryAcceptorChange,
		Leader:      r.me,
		Acceptor:    next,
		Uncommitted: r.uncommittedProposals(),
		Frontier:    r.log.LearnedFrontier(),
	}
	r.util.Propose(r.ctx, slot, entry, func(success bool, chosen msg.UtilEntry) {
		r.switchingAa = false
		if !success {
			// Another entry landed first; our view was refreshed by
			// onUtilCommit. The accept deadlines still pending will
			// re-trigger the switch if the acceptor is still silent.
			return
		}
		if r.util.Superseded(slot) {
			// The switch committed but later slots already replaced the
			// regime it installed (late commit discovery): adopting the
			// backup now would run a stale leadership in parallel with
			// the live one. Our uncommitted proposals travelled in the
			// entry; the live regime re-proposes them.
			return
		}
		r.acceptorSwaps++
		r.cfg.Events.Emitf(r.ctx.Now(), r.me, "acceptor-change",
			"active acceptor %d -> %d", r.aa, next)
		r.aa = next
		r.iAmLeader = false // must re-adopt the fresh acceptor (line 13)
		r.takingOver = true
		r.myPN = r.nextPN()
		r.ctx.Send(r.aa, msg.PrepareRequest{PN: r.myPN, MustBeFresh: true, From: r.log.NextToApply()})
		r.armPrepareDeadline()
	})
}

// selectAcceptor picks the backup acceptor: the first replica that is
// neither this node (leader and acceptor stay separated, Section 5.4) nor
// the currently suspected acceptor.
func (r *Replica) selectAcceptor() msg.NodeID {
	for _, id := range r.replicas {
		if id != r.me && id != r.aa {
			return id
		}
	}
	return msg.Nobody
}

// uncommittedProposals collects every proposed-but-unlearned value, which
// the AcceptorChange entry carries so the next adoption re-proposes them
// (Section 5.2: "the leader also includes the uncommitted proposed values
// into the message sent to the PaxosUtility").
func (r *Replica) uncommittedProposals() []msg.Proposal {
	out := make([]msg.Proposal, 0, len(r.proposed))
	for in, v := range r.proposed {
		if !r.log.Learned(in) {
			out = append(out, msg.Proposal{Instance: in, PN: r.myPN, Value: v})
		}
	}
	return out
}

// --- PaxosUtility observation ---

func (r *Replica) onUtilCommit(_ int64, e msg.UtilEntry) {
	switch e.Type {
	case msg.EntryLeaderChange:
		r.knownLeader = e.Leader
		if e.Leader != r.me {
			// Another proposer adopts the acceptor and will send it
			// accept_requests; it can no longer be presumed fresh. Without
			// this, a boot leader that never proposed could much later
			// "virgin-switch" an acceptor that meanwhile accepted
			// proposals under other leaders — discarding them.
			r.aaVirgin = false
			if r.iAmLeader {
				// Deposed: every leader checks for this announcement
				// (Section 5.3) and must consider its position
				// relinquished.
				r.iAmLeader = false
			}
			if e.Acceptor != msg.Nobody {
				r.aa = e.Acceptor
			}
			r.forwardPending(e.Leader)
		}
	case msg.EntryAcceptorChange:
		r.aa = e.Acceptor
		r.aaVirgin = e.Leader == r.me // fresh backup installed by us
		r.knownLeader = e.Leader
		if e.Frontier > r.noopFloor {
			r.noopFloor = e.Frontier
		}
		if r.nextInst < r.noopFloor {
			// Instances below the frontier were decided at the previous
			// acceptor; never hand them to fresh proposals.
			r.nextInst = r.noopFloor
		}
		// The entry's Uncommitted set is the complete list of proposals
		// still live below the frontier; anything else this node holds
		// there is a deposed leftover that must not reach the fresh
		// acceptor.
		r.dropProposalsBelow(r.noopFloor)
		r.registerProposals(e.Uncommitted)
		if e.Acceptor == r.me {
			// We are the promoted fresh backup: reset short-term memory.
			r.hpn = 0
			r.adopted = msg.Nobody
			r.ap = make(map[int64]msg.Proposal)
			r.iAmFresh = true
			r.learnBuf = nil
			// The old acceptor's lease grants are invisible here; hold
			// every adoption until the longest one could have lapsed.
			r.read.AssumeForeignLease()
		}
		if e.Leader != r.me && r.iAmLeader {
			r.iAmLeader = false
		}
	}
}

// --- Proposal numbers ---

func (r *Replica) nextPN() uint64 { return r.nextPNAbove(r.myPN) }

func (r *Replica) nextPNAbove(floor uint64) uint64 {
	base := r.myPN
	if floor > base {
		base = floor
	}
	if r.hpn > base {
		base = r.hpn
	}
	return basicpaxos.NextPN(msg.NodeID(r.indexOf(r.me)), base)
}

func (r *Replica) indexOf(id msg.NodeID) int {
	for i, rid := range r.replicas {
		if rid == id {
			return i
		}
	}
	return 0
}
