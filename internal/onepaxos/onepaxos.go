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
//	client ──request──▶ leader ──accept──▶ active acceptor
//	                                      │ learn (multicast)
//	  client ◀──reply── leader/learner ◀──┘
//
// Fault handling follows Appendix A exactly:
//   - active acceptor unresponsive → the leader (and only the leader —
//     "Upon AcceptorFailure: if (!IamLeader) return") commits an
//     AcceptorChange(A′, uncommittedProposals) entry, then re-adopts the
//     fresh acceptor with a MustBeFresh prepare;
//   - leader unresponsive → any proposer commits LeaderChange(P′, A) and
//     adopts the *same* acceptor, whose promise carries every
//     accepted proposal (Lemma 2b);
//   - both unresponsive → no progress until one recovers (Section 5.4);
//     with three replicas this matches plain Paxos's availability.
package onepaxos

import (
	"time"

	"consensusinside/internal/basicpaxos"
	"consensusinside/internal/msg"
	"consensusinside/internal/paxosutil"
	"consensusinside/internal/protocol"
	"consensusinside/internal/replica"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
)

// Timer kinds used by a Replica. PaxosUtility's reserved kinds are >= 100.
const (
	timerRetryTakeover   = 2
	timerFlushLearns     = 3
	timerPrepareDeadline = 4 // Arg: the pn the prepare was sent with
)

// Defaults for protocol.Config zero values.
const (
	DefaultAcceptTimeout   = 400 * time.Microsecond
	DefaultTakeoverBackoff = 200 * time.Microsecond
)

// learnFlushEvery is the learn-batching flush period (Cfg.LearnBatching).
const learnFlushEvery = 25 * time.Microsecond

// Replica is one 1Paxos node, implementing all three roles (proposer,
// backup/active acceptor, learner) plus the embedded PaxosUtility. The
// embedded shell owns the learner log, sessions, recovery, the read
// path and the leader book (proposals, queued requests, the accept
// deadline); what is declared here is agreement state only.
type Replica struct {
	replica.Shell
	util *paxosutil.Util

	// Proposer state. Appendix A's IamLeader is the shell's leadership
	// bit, Aa the regime's acceptor (installed by onUtilCommit) and
	// proposed the shell's Book; what stays here is this node's own bid.
	takeover    takeoverState
	switchingAa bool
	// aaVirgin is true while this node knows the active acceptor cannot
	// have accepted any proposal: it was installed fresh by this node's
	// own AcceptorChange (or is the boot acceptor observed by the boot
	// leader) and no accept has been sent to it yet. A virgin
	// acceptor may be replaced even before adoption — the safety argument
	// for restricting AcceptorChange to adopted leaders is precisely that
	// a non-adopted proposer cannot know the acceptor's accepted
	// proposals, and for a virgin acceptor that set is empty.
	aaVirgin bool
	// freshHoldUntil is when an acceptor this node promoted may stop
	// refusing prepares on purpose (readpath.PromotionHold, plus one
	// AcceptTimeout for the commit's delivery and clock skew); until then
	// its silence is no reason to replace it.
	freshHoldUntil time.Duration
	myPN           uint64

	// Acceptor state (Appendix A: hpn, ap, IamFresh).
	hpn      uint64
	adopted  msg.NodeID // the proposer holding the current promise
	ap       replica.Accepted
	iAmFresh bool
	learnBuf []msg.Proposal

	takeovers int64
}

// takeoverState is where this node's own bid for leadership stands:
// none; takingOver, while its LeaderChange or AcceptorChange is in
// flight or it awaits the acceptor's promise; or gaveUp, once its
// LeaderChange lost its slot or committed superseded or it found the
// leadership it held deposed. Until it bids again, or an AcceptorChange
// or another leader's entry commits, a node that gave up names no
// acceptor: it neither acts as the regime's acceptor nor sends there.
type takeoverState uint8

const (
	noTakeover takeoverState = iota
	takingOver
	gaveUp
)

var _ runtime.Handler = (*Replica)(nil)

// New builds a Replica from a configuration protocol.Build validated
// (at least three replicas: leader, acceptor and a backup). Replicas[0]
// is the initial leader and the last replica the initial active acceptor
// — distinct nodes, per Section 5.4's placement rule, and placed so that
// the natural client failover target (the next replica after the leader)
// is a pure proposer, keeping leader and acceptor separated after a
// takeover too. AcceptTimeout bounds how long the leader waits for a
// learn before suspecting the active acceptor (and how long a takeover
// waits for a promise); TakeoverBackoff delays a retry after a
// lost takeover race.
func New(cfg protocol.Config) *Replica {
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = DefaultAcceptTimeout
	}
	if cfg.TakeoverBackoff == 0 {
		cfg.TakeoverBackoff = DefaultTakeoverBackoff
	}
	r := &Replica{adopted: msg.Nobody, iAmFresh: true}
	r.util = paxosutil.New(cfg.ID, cfg.Replicas)
	if cfg.UtilRetryTimeout > 0 {
		r.util.SetRetryTimeout(cfg.UtilRetryTimeout)
	}
	r.util.OnCommit(r.onUtilCommit)
	// Read rounds are confirmed — and leases anchored — at the single
	// active acceptor: it is the serialization point every would-be
	// leader must adopt, so its word alone is sound where a peer quorum
	// would not be (writes never cross a quorum here).
	r.Init(cfg, replica.Agreement{
		Boot:         replica.Regime{Leader: cfg.Replicas[0], Acceptor: cfg.Replicas[len(cfg.Replicas)-1]},
		LeaseCapable: true,
		// Every leader change must adopt the active acceptor (flipping its
		// `adopted` record), so its acknowledgement proves no newer leader
		// has committed.
		Confirmers: func() []msg.NodeID { return []msg.NodeID{r.acceptor()} },
		NeedAcks:   1,
		Grant:      func(from msg.NodeID) bool { return r.adopted == from },
		Accept: func(in int64, v msg.Value) {
			r.aaVirgin = false // the acceptor may hold accepted proposals from here on
			r.Ctx.Send(r.acceptor(), msg.Accept{Instance: in, PN: r.myPN, Value: v})
		},
		// The acceptor is suspected when the oldest unlearned accept goes
		// AcceptTimeout unanswered.
		Overdue: func([]int64) {
			if r.IsLeader() {
				r.onAcceptorFailure(false)
			}
		},
	})
	return r
}

// acceptor is the active acceptor this node names: the regime's, or
// nobody while it has given a bid up (gaveUp).
func (r *Replica) acceptor() msg.NodeID {
	if r.takeover == gaveUp {
		return msg.Nobody
	}
	return r.Regime().Acceptor
}

// become sets whether this node holds the active acceptor's promise
// (the shell's leadership bit) and where its own bid stands.
func (r *Replica) become(leading bool, t takeoverState) {
	r.SetLeading(leading)
	r.takeover = t
}

// --- Handler implementation ---

// Start bootstraps the static initial configuration: Replicas[0] adopts
// the last replica as its acceptor (New's boot regime). The paper's
// Appendix B closes its induction with exactly this convention (initial
// LeaderChange/AcceptorChange by the smallest-id node, with no actual
// role change).
func (r *Replica) Start(ctx runtime.Context) {
	r.Shell.Start(ctx)
	// A recovering replica never runs the boot-leader convention, even
	// as Replicas[0]: the group has moved on without it, and it must
	// learn what was decided before it may compete for any role.
	if r.Me == r.Replicas[0] && !r.Cfg.Recover {
		r.adoptFresh(r.acceptor()) // the boot acceptor is fresh by construction
	}
}

// Receive dispatches one message.
func (r *Replica) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	r.Ctx = ctx // the utility's commit callbacks send through it
	if r.util.Handle(ctx, from, m) || r.Route(ctx, from, m) {
		return
	}
	switch mm := m.(type) {
	case msg.ClientRequest:
		r.onClientRequest(from, mm)
	case msg.PrepareRequest:
		r.onPrepareRequest(from, mm)
	case msg.Promise:
		r.onPromise(from, mm)
	case msg.Accept:
		r.onAccept(from, mm)
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
	r.Ctx = ctx
	if r.util.HandleTimer(ctx, tag) || r.RouteTimer(ctx, tag) {
		return
	}
	switch tag.Kind {
	case timerRetryTakeover:
		if !r.IsLeader() && r.Book.Queued() > 0 {
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
	entries := r.Admit(req)
	if len(entries) == 0 {
		return
	}
	leader := r.Regime().Leader
	switch {
	case r.IsLeader() && r.switchingAa:
		// Mid acceptor switch: a new proposal sent to the outgoing
		// acceptor could be decided there *above* the frontier the
		// in-flight AcceptorChange carries — invisible to both its
		// Uncommitted set and the next regime's noop floor, so a later
		// leader would noop-fill the instance over a decided value.
		// Queue; adoption of the fresh acceptor flushes the queue.
		r.Book.Queue(req.Client, req.Ack, entries)
	case r.IsLeader():
		r.Book.Propose(msg.NewValue(req.Client, req.Ack, entries))
	case r.Cfg.ForwardToLeader && leader != r.Me && leader != msg.Nobody && from != leader:
		// Joint mode: funnel commands through the leader (Section 7.4).
		r.Forward(leader, req, entries)
	default:
		// The paper's failover story (Section 7.6): clients redirect to a
		// non-leader node, which then tries to become leader.
		r.Book.Queue(req.Client, req.Ack, entries)
		r.startTakeover()
	}
}

// --- Acceptor role (Appendix A lines 45-61) ---

func (r *Replica) onPrepareRequest(from msg.NodeID, m msg.PrepareRequest) {
	if r.acceptor() != r.Me {
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
		r.Ctx.Send(from, msg.Abandon{HPN: r.hpn})
		return
	}
	if r.Read.PrepareHold(from) > 0 {
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
			r.Ctx.Send(from, msg.Abandon{HPN: r.hpn, FreshMismatch: true, IamFresh: r.iAmFresh})
			return
		}
		r.iAmFresh = false
		r.hpn = m.PN
		r.adopted = from
		if m.From < r.Log().Floor() {
			// The proposer's frontier is below our compaction floor: the
			// decided values it is missing live only in the snapshot.
			// Push a catch-up transfer ahead of the response (FIFO per
			// peer, so it installs before the response is processed) and
			// flag the floor on the response itself so the new leader
			// never no-op fills those instances even if the push is lost.
			r.Snap.Serve(r.Ctx, from, m.From)
		}
		r.Ctx.Send(from, msg.Promise{From: r.Me, PN: m.PN, Accepted: r.proposalsSince(m.From), Floor: r.Log().Floor()})
	} else {
		r.Ctx.Send(from, msg.Abandon{HPN: r.hpn})
	}
}

func (r *Replica) onAccept(from msg.NodeID, m msg.Accept) {
	if r.acceptor() != r.Me {
		// Retired acceptor (see the matching check in onPrepareRequest):
		// accepting from a staler-view leader would decide an instance a
		// newer regime may have decided differently elsewhere.
		r.Ctx.Send(from, msg.Abandon{HPN: r.hpn})
		return
	}
	r.ap.Prune(r.Log().NextToApply())
	if m.PN != r.hpn {
		r.Ctx.Send(from, msg.Abandon{HPN: r.hpn})
		return
	}
	if prev, ok := r.ap.ByInstance[m.Instance]; ok {
		// Retried accept: re-multicast the learn for the accepted value
		// (Appendix A line 57-58), covering lost learn messages.
		r.multicastLearn(prev)
		return
	}
	p := msg.Proposal{Instance: m.Instance, PN: m.PN, Value: m.Value}
	r.ap.Put(p)
	r.multicastLearn(p)
}

// multicastLearn delivers one accepted proposal to all learners. The
// adopted leader always gets its learn immediately — it is the commit
// latency path; with batching enabled the remaining learners are served
// from a periodically flushed buffer. Every learner is sent the one
// message: receivers only read its entries.
func (r *Replica) multicastLearn(p msg.Proposal) {
	if !r.Cfg.LearnBatching {
		learn := msg.Message(msg.Learn{Entries: []msg.Proposal{p}})
		for _, id := range r.Replicas {
			r.Ctx.Send(id, learn)
		}
		return
	}
	if r.adopted != msg.Nobody {
		r.Ctx.Send(r.adopted, msg.Learn{Entries: []msg.Proposal{p}})
	}
	if len(r.learnBuf) == 0 {
		r.Ctx.After(learnFlushEvery, runtime.TimerTag{Kind: timerFlushLearns})
	}
	r.learnBuf = append(r.learnBuf, p)
}

func (r *Replica) flushLearns() {
	if len(r.learnBuf) == 0 {
		return
	}
	batch := msg.Learn{Entries: r.learnBuf}
	r.learnBuf = nil
	for _, id := range r.Replicas {
		if id == r.adopted {
			continue // already served on the fast path
		}
		r.Ctx.Send(id, batch)
	}
}

// proposalsSince merges the acceptor's live accepted proposals with the
// decided suffix of its log from the given instance on — both the
// applied entries and the learned-but-unapplied ones (a catch-up
// transfer can install learns this acceptor never accepted, so they are
// in neither ap nor the applied history). Decided values are always safe
// to return as accepted proposals; without them a proposer lagging
// behind this node could propose a fresh value for a decided instance.
func (r *Replica) proposalsSince(from int64) []msg.Proposal {
	seen := make(map[int64]bool, len(r.ap.ByInstance))
	out := make([]msg.Proposal, 0, len(r.ap.ByInstance))
	for _, p := range r.ap.ByInstance {
		if p.Instance >= from {
			out = append(out, p)
			seen[p.Instance] = true
		}
	}
	r.Log().Scan(from, func(e rsm.Entry) bool {
		if !seen[e.Instance] {
			seen[e.Instance] = true
			out = append(out, msg.Proposal{Instance: e.Instance, PN: r.hpn, Value: e.Value})
		}
		return true
	})
	r.Log().ScanPending(func(e rsm.Entry) bool {
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
		r.Log().Learn(p.Instance, p.Value)
	}
	// A hole below these learns may be permanent — its own learn could
	// have been dropped by a partition, and instances below the noop
	// floor are never gap-filled. Arm the stall watchdog.
	r.Snap.WatchGap(r.Ctx)
}

// --- Proposer: becoming leader (Appendix A propose()/prepare_response, our Promise) ---

func (r *Replica) onPromise(from msg.NodeID, m msg.Promise) {
	if r.IsLeader() || r.takeover != takingOver || m.From != r.acceptor() || m.PN != r.myPN {
		return
	}
	r.become(true, noTakeover)
	r.takeovers++
	r.Cfg.Events.Emitf(r.Ctx.Now(), r.Me, "leader-change",
		"takeover %d complete (pn %d, acceptor %d)", r.takeovers, r.myPN, r.acceptor())
	// Instances below the acceptor's compaction floor are decided; their
	// values arrive via the catch-up push, not this response. Re-propose
	// everything uncommitted (getAny prefers registered values, Lemma
	// 2a/2b), then serve the queued client requests.
	r.Book.Lead(m.Floor, m.Accepted)
}

func (r *Replica) onAbandon(from msg.NodeID, m msg.Abandon) {
	if m.HPN > r.myPN && r.IsLeader() && from == r.acceptor() {
		// A higher-numbered proposer adopted our acceptor: deposed.
		r.become(false, noTakeover)
		return
	}
	if r.takeover != takingOver {
		return
	}
	// Retry the prepare with a higher number; flip the freshness
	// expectation if that is what the acceptor objected to.
	mustBeFresh := false
	if m.FreshMismatch {
		mustBeFresh = m.IamFresh
	}
	r.myPN = r.nextPNAbove(m.HPN)
	r.prepare(r.acceptor(), mustBeFresh)
}

// startTakeover runs Appendix A's propose() slow path: commit a
// LeaderChange through PaxosUtility, then adopt the active acceptor.
func (r *Replica) startTakeover() {
	if r.IsLeader() || r.takeover == takingOver {
		return
	}
	if r.takeover == gaveUp {
		// Back to the regime's acceptor (Appendix A's
		// lastActiveAcceptor()): the proposals its AcceptorChange
		// carried are this takeover's to re-propose.
		if e, _ := r.util.Committed(r.Regime().Slot); e.Type == msg.EntryAcceptorChange {
			r.Book.Register(e.Uncommitted)
		}
	}
	r.become(false, takingOver)
	r.myPN = r.nextPN()
	slot := r.util.Frontier()
	entry := msg.UtilEntry{Type: msg.EntryLeaderChange, Leader: r.Me, Acceptor: r.acceptor()}
	r.util.Propose(r.Ctx, slot, entry, func(success bool, chosen msg.UtilEntry) {
		if success && !r.util.Superseded(slot) {
			// We are now the Global leader; adopt the acceptor. The
			// acceptor was adopted by the previous leader, so it must not
			// be fresh — unless it never received the previous leader's
			// prepare, in which case the Abandon handler flips the flag
			// and retries.
			r.prepare(r.acceptor(), false)
			return
		}
		// Another entry won the slot, or ours was discovered so late
		// (crash window, partition) that later slots already replaced the
		// regime it installed: adopting now would run a stale leadership
		// in parallel with the live one. onUtilCommit installs the chosen
		// entry once this returns. Forward to a new leader, or re-run the
		// takeover against the current frontier after a backoff.
		r.takeover = gaveUp
		if !success && chosen.Type == msg.EntryLeaderChange && chosen.Leader != r.Me {
			r.Book.ForwardQueue(chosen.Leader)
		}
		if r.Book.Queued() > 0 {
			r.Ctx.After(r.Cfg.TakeoverBackoff, runtime.TimerTag{Kind: timerRetryTakeover})
		}
	})
}

// adoptFresh takes over acceptor, which has accepted nothing: the boot
// acceptor, or a backup this node's AcceptorChange just promoted.
func (r *Replica) adoptFresh(acceptor msg.NodeID) {
	r.become(false, takingOver)
	r.aaVirgin = true
	r.myPN = r.nextPN()
	r.prepare(acceptor, true)
}

// prepare asks acceptor to adopt this node under myPN and arms the
// deadline its promise must beat.
func (r *Replica) prepare(acceptor msg.NodeID, mustBeFresh bool) {
	r.Ctx.Send(acceptor, msg.PrepareRequest{PN: r.myPN, MustBeFresh: mustBeFresh, From: r.Log().NextToApply()})
	r.Ctx.After(r.Cfg.AcceptTimeout, runtime.TimerTag{Kind: timerPrepareDeadline, Arg: int64(r.myPN)})
}

// --- Failure detection ---

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
	if r.IsLeader() || pn != r.myPN || r.takeover != takingOver {
		return
	}
	if r.Regime().Leader == r.Me && r.aaVirgin && r.Ctx.Now() >= r.freshHoldUntil {
		r.onAcceptorFailure(true)
		return
	}
	r.prepare(r.acceptor(), r.aaVirgin)
}

// onAcceptorFailure is Appendix A's "Upon AcceptorFailure" handler.
// virginSwitch marks the one safe non-adopted invocation (see
// onPrepareDeadline).
func (r *Replica) onAcceptorFailure(virginSwitch bool) {
	if r.switchingAa {
		return
	}
	if !r.IsLeader() && !virginSwitch {
		return
	}
	// The regime's leader is the paper's "Global leader": the inserter of
	// the last LeaderChange entry, or the static initial leader before any
	// entry exists (the Appendix B initialization convention).
	if r.Regime().Leader != r.Me {
		// Somebody thought I am dead (Appendix A line 4): relinquish.
		r.become(false, gaveUp)
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
		Leader:      r.Me,
		Acceptor:    next,
		Uncommitted: r.Book.Unlearned(r.myPN),
		Frontier:    r.Log().LearnedFrontier(),
	}
	slot := r.util.Frontier()
	r.util.Propose(r.Ctx, slot, entry, func(success bool, chosen msg.UtilEntry) {
		r.switchingAa = false
		if !success {
			// Another entry landed first; onUtilCommit installs it once
			// this returns. The accept deadline looks at the overdue
			// accepts again one AcceptTimeout after it suspected, and
			// re-triggers the switch if the acceptor is still silent.
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
		// The regime still names the old acceptor: the utility runs this
		// callback before it delivers the slot to onUtilCommit.
		r.Cfg.Events.Emitf(r.Ctx.Now(), r.Me, "acceptor-change",
			"active acceptor %d -> %d", r.acceptor(), next)
		r.adoptFresh(next) // must re-adopt the fresh acceptor (line 13)
	})
}

// selectAcceptor picks the backup acceptor: the first replica that is
// neither this node (leader and acceptor stay separated, Section 5.4) nor
// the currently suspected acceptor.
func (r *Replica) selectAcceptor() msg.NodeID {
	for _, id := range r.Replicas {
		if id != r.Me && id != r.acceptor() {
			return id
		}
	}
	return msg.Nobody
}

// --- PaxosUtility observation ---

// onUtilCommit installs each committed LeaderChange and AcceptorChange
// as the regime, in slot order; every LeaderChange names its acceptor
// (startTakeover). A backfill no-op installs nothing.
func (r *Replica) onUtilCommit(slot int64, e msg.UtilEntry) {
	switched := e.Type == msg.EntryAcceptorChange
	if !switched && e.Type != msg.EntryLeaderChange {
		return
	}
	r.Install(replica.Regime{Slot: slot, Leader: e.Leader, Acceptor: e.Acceptor})
	ours := e.Leader == r.Me
	if switched || !ours {
		// The acceptor is fresh only if it is a backup this node just
		// promoted. Another proposer adopts the acceptor and will send it
		// accepts; without this, a boot leader that never proposed could
		// much later "virgin-switch" an acceptor that meanwhile accepted
		// proposals under other leaders — discarding them.
		r.aaVirgin = switched && ours
	}
	if switched {
		if ours {
			// Under leases the promoted backup refuses every prepare for
			// a lease; replacing it for that would promote the other
			// backup into the same hold, and the two would trade places
			// every AcceptTimeout without ever adopting a leader.
			r.freshHoldUntil = r.Ctx.Now() + r.Read.PromotionHold() + r.Cfg.AcceptTimeout
			if r.takeover == gaveUp {
				r.takeover = noTakeover // the entry names the acceptor anew
			}
		}
		// Instances below the frontier were decided at the previous
		// acceptor, and the entry's Uncommitted set is the complete list
		// of proposals still live below it.
		r.Book.Install(e.Frontier, e.Uncommitted)
		if e.Acceptor == r.Me {
			// We are the promoted fresh backup: reset short-term memory.
			r.hpn = 0
			r.adopted = msg.Nobody
			r.ap = replica.Accepted{}
			r.iAmFresh = true
			r.learnBuf = nil
			// The old acceptor's lease grants are invisible here; hold
			// every adoption until the longest one could have lapsed.
			r.Read.AssumeForeignLease()
		}
	}
	if !ours {
		// Deposed (Section 5.3), and so is a takeover still adopting its
		// acceptor: a prepare retried under its own regime would steal
		// the acceptor from the leader this entry names. The queue goes
		// to that leader (on an AcceptorChange, only a taker's).
		forward := !switched || r.takeover == takingOver
		r.become(false, noTakeover)
		if forward {
			r.Book.ForwardQueue(e.Leader)
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
	return basicpaxos.NextPN(msg.NodeID(r.Index), base)
}
