// Package replica holds the replicated-state-machine plumbing that is
// the same under every agreement protocol: client sessions, the learner
// log and its trace stamps, snapshots and catch-up, the read fast path,
// request admission, the reply fan-out and the counters deployments
// read. The paper's point is that inside a machine only the agreement
// core differs between protocols; an engine embeds a Shell, tells it
// the few agreement facts the shared subsystems need (Agreement), and
// implements nothing but agreement — its own messages, timers and
// proposer/acceptor/learner state.
package replica

import (
	"sync/atomic"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/protocol"
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
	"consensusinside/internal/snapshot"
)

// Agreement is what the shared subsystems need to know about the
// protocol above them. The hooks run on the node's callback goroutine;
// all are optional except Frontier, which the leader book supplies when
// Accept is set.
type Agreement struct {
	// Accept gives the engine the leader book (Shell.Book): it sends
	// instance in's accept carrying v. Overdue runs when accepts went
	// AcceptTimeout without their learn (ascending instances; the slice
	// is reused). The book then answers Frontier, OnApply and OnRestore,
	// which the engine leaves nil.
	Accept  func(in int64, v msg.Value)
	Overdue func(instances []int64)

	// MajorityAccept marks a book whose accepts go to every acceptor and
	// are learned from a majority's votes (Multi-Paxos), not from one
	// active acceptor (1Paxos). Two book rules follow from it. With it, a
	// proposal skips an instance already learned — a rival leader's
	// accepts can decide one under this leader — and a won leadership
	// resumes at the log's apply frontier. Without it, a won leadership
	// resumes above every instance this node saw learned (the log's
	// learned frontier): a fresh backup acceptor has no memory of them
	// and would accept a second value. Swapping either rule changes runs
	// (DESIGN.md, "The leader book": TestProposeRulePerEngine,
	// TestLeadRulePerEngine).
	MajorityAccept bool

	// NoLog marks an engine that agrees on commands without ordering
	// them into instances (2PC): the shell builds no learner log, Log
	// reports nil, there is nothing to compact, and the engine applies
	// commands itself and calls AfterApply for each.
	NoLog bool

	// Boot is the regime Init installs, the engine's fixed rule. The
	// zero Boot marks a leaderless engine (Mencius, BasicPaxos): nobody
	// leads or is the acceptor, and any replica serves reads.
	// LeaseCapable marks engines whose confirmers can block a deposition
	// for a lease's lifetime (they consult Read.PrepareHold in their
	// prepare handlers).
	Boot         Regime
	LeaseCapable bool

	// Confirmers names the nodes whose acknowledgement confirms a read
	// round and NeedAcks how many must answer. A nil Confirmers means a
	// majority round: every peer is asked and a quorum minus this node
	// must answer (NeedAcks is ignored).
	Confirmers func() []msg.NodeID
	NeedAcks   int

	// Grant reports whether this node vouches for from as the serving
	// node (nil: always — the acknowledgement only carries a frontier).
	// Establish, when set, makes a leader its peers have not yet
	// observed visible to them (see readpath.Config).
	Grant     func(from msg.NodeID) bool
	Establish func()

	// Frontier bounds what this node may have committed beyond what its
	// learner log already holds: the next instance a leader would
	// assign, or one past the highest instance seen accepted. The shell
	// folds in the log's own learned frontier.
	Frontier func() int64

	// OnApply runs once per applied instance, after the commit step
	// recorded the session results and the shell answered the client,
	// and before the read path and compaction hooks: the place to retire
	// per-instance proposer state.
	OnApply func(e rsm.Entry)

	// OnRestore runs after a peer snapshot was installed, OnCompact
	// after each compaction tick with the log's floor (see
	// snapshot.Manager).
	OnRestore func(lastApplied int64)
	OnCompact func(floor int64)
}

// Regime is who leads, who accepts and since which slot, as this node
// last saw it decided. The shell owns it: Init installs Agreement.Boot,
// and an engine installs another only from a committed decision (a
// PaxosUtility entry; a ballot won or seen in an accept).
type Regime struct {
	Slot     int64      // the utility slot or log instance it took effect at; 0 at boot
	Leader   msg.NodeID // msg.Nobody on a leaderless engine
	Acceptor msg.NodeID // msg.Nobody where every replica accepts
	Ballot   uint64     // the leader's proposal number; 0 where the engine has none
}

// Shell is one replica's shared state. An engine embeds it by value,
// calls Init from its constructor, and routes through it: Start (or
// shadow it and call Shell.Start first), Route at the top of Receive,
// RouteTimer at the top of Timer (an engine with no timers of its own
// inherits Timer), Admit on the client-request path. The zero value is
// not usable.
type Shell struct {
	// Cfg is the construction contract as given, with a nil Applier
	// replaced; engines default their own timeouts before Init.
	Cfg protocol.Config

	Me       msg.NodeID
	Replicas []msg.NodeID // the agreement group in the shared order
	Peers    []msg.NodeID // Replicas without Me
	Index    int          // position of Me in Replicas
	Quorum   int          // majority of Replicas

	// Ctx is the node context of the callback in progress; Start, Route
	// and RouteTimer store it.
	Ctx runtime.Context

	Store    *rsm.KV // the applier when it is the stock KV, else nil
	Sessions *rsm.Sessions
	Snap     *snapshot.Manager
	Read     *readpath.Server

	// Book is the leader book of an engine that set Agreement.Accept,
	// else nil.
	Book *Proposals

	log     *rsm.Log
	agree   Agreement
	commits int64
	votes   map[int64]map[msg.NodeID]uint64 // learner tally: instance -> voter -> pn

	// The regime record, the leadership bit beside it and Install's
	// counts (Collect's "regime." names).
	regime              Regime
	leading             bool
	changes, collisions atomic.Int64
}

// Init builds the shared subsystems for one replica. cfg was validated
// by protocol.Build (group size, membership).
func (s *Shell) Init(cfg protocol.Config, a Agreement) {
	if cfg.Applier == nil {
		cfg.Applier = rsm.NewKV()
	}
	s.Cfg = cfg
	s.Me = cfg.ID
	s.Replicas = append([]msg.NodeID(nil), cfg.Replicas...)
	for i, id := range s.Replicas {
		if id == s.Me {
			s.Index = i
		} else {
			s.Peers = append(s.Peers, id)
		}
	}
	s.Quorum = len(s.Replicas)/2 + 1
	s.Store, _ = cfg.Applier.(*rsm.KV)
	s.Sessions = rsm.NewSessions()
	if !a.NoLog {
		s.log = rsm.NewLog(rsm.Dedup{Sessions: s.Sessions, Inner: cfg.Applier})
		s.log.OnApply(s.onApply)
		s.votes = make(map[int64]map[msg.NodeID]uint64)
		// The log is built before the node's context exists; it asks for
		// the clock only while a callback runs.
		s.log.SetTracer(cfg.Tracer, func() time.Duration { return s.Ctx.Now() })
	}
	if a.Accept != nil {
		s.Book = newProposals(s, a)
		a.Frontier, a.OnApply, a.OnRestore = s.Book.frontier, s.Book.applied, s.Book.restored
	}
	s.agree = a
	s.regime = a.Boot
	if a.Boot == (Regime{}) {
		s.regime = Regime{Leader: msg.Nobody, Acceptor: msg.Nobody}
	}
	// The recovery watchdog's period is twice the failure-detector
	// timeout, which engines default before Init (0 means
	// snapshot.DefaultRetryTimeout). 2PC has no failure detector; its
	// deployments set AcceptTimeout and TxRetryTimeout alike.
	s.Snap = snapshot.New(snapshot.Config{
		ID:           cfg.ID,
		Replicas:     cfg.Replicas,
		Interval:     int64(cfg.SnapshotInterval),
		Recover:      cfg.Recover,
		RetryTimeout: 2 * cfg.AcceptTimeout,
		Events:       cfg.Events,
	}, s.log, s.Sessions, cfg.Applier)
	s.Snap.OnRestore(a.OnRestore)
	s.Snap.OnCompact(a.OnCompact)

	mode := cfg.ReadMode
	if s.Store == nil {
		mode = readpath.Consensus // no local KV to serve from
	}
	confirmers, need := a.Confirmers, a.NeedAcks
	if confirmers == nil {
		// Majority minus this node: together with the reader itself the
		// round covers a quorum, which intersects every committed write's
		// accept quorum.
		confirmers, need = func() []msg.NodeID { return s.Peers }, s.Quorum-1
	}
	s.Read = readpath.New(readpath.Config{
		ID:            cfg.ID,
		Replicas:      cfg.Replicas,
		Mode:          mode,
		LeaseDuration: cfg.LeaseDuration,
		Events:        cfg.Events,
		HasLeader:     s.regime.Leader != msg.Nobody,
		LeaseCapable:  a.LeaseCapable,
		IsLeader:      s.IsLeader,
		Leader:        func() msg.NodeID { return s.regime.Leader },
		Confirmers:    confirmers,
		NeedAcks:      need,
		Grant:         a.Grant,
		Establish:     a.Establish,
		Frontier:      s.frontier,
		Applied:       s.applied,
		Ready:         s.Snap.Recovered,
		Read: func(key string) (string, bool) {
			if s.Store == nil {
				return "", false
			}
			return s.Store.Get(key)
		},
	})
}

func (s *Shell) frontier() int64 {
	f := s.agree.Frontier()
	if s.log != nil {
		if lf := s.log.LearnedFrontier(); lf > f {
			f = lf
		}
	}
	return f
}

func (s *Shell) applied() int64 {
	if s.log == nil {
		return s.commits
	}
	return s.log.NextToApply()
}

// --- The regime ---

// Regime reports the regime this replica serves under.
func (s *Shell) Regime() Regime { return s.regime }

// Install records g, which a committed decision named, as the regime.
// One naming a node leader and acceptor in a group of two or more is a
// role collision: that node would adopt itself and confirm its reads.
func (s *Shell) Install(g Regime) {
	s.regime = g
	s.changes.Add(1)
	if g.Leader == g.Acceptor && g.Leader != msg.Nobody && len(s.Replicas) >= 2 {
		s.collisions.Add(1)
	}
}

// IsLeader reports whether this node has established its leadership:
// it holds the active acceptor's promise (1Paxos), won phase 1 and has
// not stepped down (Multi-Paxos), or is the fixed coordinator (2PC).
func (s *Shell) IsLeader() bool { return s.leading }

// SetLeading sets what IsLeader reports, as the engine wins or loses.
func (s *Shell) SetLeading(on bool) { s.leading = on }

// --- Routing: engine-private side protocols → snapshot → read path → agreement ---

// Start implements runtime.Handler's Start for engines with no
// bootstrap round; the others shadow it and call it first. A replica
// built with Cfg.Recover starts streaming state from a peer here.
func (s *Shell) Start(ctx runtime.Context) {
	s.Ctx = ctx
	s.Snap.Start(ctx)
	s.Read.Start(ctx)
}

// Route offers one message to the recovery subsystem and then the read
// path, and reports whether either consumed it. An engine with a side
// protocol of its own (1Paxos's PaxosUtility) offers the message there
// first; what nobody claims is the engine's agreement traffic.
func (s *Shell) Route(ctx runtime.Context, from msg.NodeID, m msg.Message) bool {
	s.Ctx = ctx
	return s.Snap.Handle(ctx, from, m) || s.Read.Handle(ctx, from, m)
}

// RouteTimer is Route for timers, the leader book's accept deadline
// included.
func (s *Shell) RouteTimer(ctx runtime.Context, tag runtime.TimerTag) bool {
	s.Ctx = ctx
	return s.Snap.HandleTimer(ctx, tag) || s.Read.HandleTimer(ctx, tag) ||
		s.Book != nil && s.Book.handleTimer(ctx, tag)
}

// Timer implements runtime.Handler's Timer for engines that set no
// timers of their own.
func (s *Shell) Timer(ctx runtime.Context, tag runtime.TimerTag) { s.RouteTimer(ctx, tag) }

// --- Request admission ---

// Screen answers what it can of a client request without agreement and
// returns the entries that still need it, in order: nothing while this
// replica is catching up (serving, queueing or proposing now would act
// on a stale view — the client's retry lands after the transfer), and
// otherwise whatever the session table has not seen commit. Committed
// entries are answered from the table, single command or batch alike.
func (s *Shell) Screen(req msg.ClientRequest) []msg.BatchEntry {
	if s.Snap.CatchingUp() {
		return nil
	}
	return s.Sessions.Screen(req, func(rep msg.ClientReply) { s.Ctx.Send(req.Client, rep) })
}

// Admit is Screen for engines that propose what they are sent, followed
// by Mark. An empty result means there is nothing to do.
func (s *Shell) Admit(req msg.ClientRequest) []msg.BatchEntry {
	return s.Mark(req.Client, s.Screen(req))
}

// Mark records client's screened entries as originating here — this
// replica will propose or queue them, and owes the reply once they
// commit — and drops, in place, retries of entries already marked. The
// commit step takes the marks.
func (s *Shell) Mark(client msg.NodeID, fresh []msg.BatchEntry) []msg.BatchEntry {
	entries := fresh[:0]
	for _, be := range fresh {
		if s.Sessions.MarkOrigin(client, be.Seq) {
			entries = append(entries, be)
		}
	}
	return entries
}

// Disown gives the reply duty for v's marked commands away: the engine
// hands them to another replica, which marks them its own and answers,
// or gives them up.
func (s *Shell) Disown(v msg.Value) {
	for i := range v.Len() {
		s.Sessions.TakeOrigin(v.Client, v.EntryAt(i).Seq)
	}
}

// Forward hands req, whose admitted entries are entries, to leader,
// which marks them its own and answers; nothing stays here.
func (s *Shell) Forward(leader msg.NodeID, req msg.ClientRequest, entries []msg.BatchEntry) {
	s.Disown(msg.NewValue(req.Client, req.Ack, entries))
	s.Ctx.Send(leader, req)
}

// --- Learning ---

// Vote is majority learning, written once: it counts from's acceptance
// of value for instance under proposal number pn (an engine with no
// proposal numbers passes a constant), and when a quorum has accepted
// under that one pn it learns the value, arms the recovery subsystem's
// gap watchdog — a hole below this learn may be a dropped-learn gap that
// live traffic will never refill — and reports true. A voter's later
// acceptance replaces its earlier one; an instance's tally is dropped
// when it is learned here and when it applies.
func (s *Shell) Vote(instance int64, from msg.NodeID, pn uint64, value msg.Value) bool {
	if s.log.Learned(instance) {
		return false
	}
	byNode := s.votes[instance]
	if byNode == nil {
		byNode = make(map[msg.NodeID]uint64)
		s.votes[instance] = byNode
	}
	byNode[from] = pn
	n := 0
	for _, voted := range byNode {
		if voted == pn {
			n++
		}
	}
	if n < s.Quorum {
		return false
	}
	delete(s.votes, instance)
	s.log.Learn(instance, value)
	s.Snap.WatchGap(s.Ctx)
	return true
}

// --- Apply side ---

// onApply fires for every instance applied in order, after the commit
// step (rsm.Dedup) recorded every command's result and took the origin
// marks: a replica that took any answers those commands with one
// message; every other replica — a backup, the acceptor — and every
// gap-filling no-op sends nothing and touches no reply slice.
func (s *Shell) onApply(e rsm.Entry, results []string) {
	if owed := s.Sessions.Owed(); len(owed) > 0 {
		replies := msg.GetReplies(len(owed))
		for _, i := range owed {
			replies = append(replies, msg.ClientReply{Seq: e.Value.EntryAt(i).Seq, Instance: e.Instance, OK: true, Result: results[i]})
		}
		s.SendReplies(e.Value.Client, replies)
	}
	if len(s.votes) > 0 {
		delete(s.votes, e.Instance)
	}
	if s.agree.OnApply != nil {
		s.agree.OnApply(e)
	}
	s.AfterApply()
}

// SendReplies answers client with one message for all of replies (at
// least one), so it can retire a batch in one step and refill its
// window with a full one. replies must come from msg.GetReplies: a
// batch message takes over the pooled array (the receiver recycles
// it); a bare reply is copied out and the array goes straight back to
// the pool.
func (s *Shell) SendReplies(client msg.NodeID, replies []msg.ClientReply) {
	m := msg.WrapReplies(replies)
	s.Ctx.Send(client, m)
	if _, batched := m.(msg.ClientReplyBatch); !batched {
		msg.PutReplies(replies)
	}
}

// AfterApply counts one commit and runs the per-commit hooks: reads
// whose confirmed frontier the state machine now covers are served, and
// the compaction cadence advances (noops count too). The shell calls it
// per applied instance; a NoLog engine calls it per applied command.
func (s *Shell) AfterApply() {
	s.commits++
	s.Read.AfterApply()
	s.Snap.AfterApply()
}

// --- What deployments read (protocol.Engine) ---

// Commits reports how many instances (commands, for a NoLog engine)
// this replica has applied.
func (s *Shell) Commits() int64 { return s.commits }

// Log exposes the learner log for consistency checks; nil for a NoLog
// engine.
func (s *Shell) Log() *rsm.Log { return s.log }

// Collect adds every counter this replica owns to snap: the recovery
// subsystem's ("snap."), the read fast path's ("read."), Install's
// ("regime.") and how often the session rings had to double
// ("session.ring_growths" — the rings are sized for their lane's
// pipeline depth, so a count that keeps rising under steady load means
// a command is pinned unacknowledged while newer ones retire past it).
// Safe from any goroutine, as are the two accessors below.
func (s *Shell) Collect(snap *obs.Snapshot) {
	s.Snap.Collect(snap)
	s.Read.Collect(snap)
	snap.Add("session.ring_growths", s.Sessions.Growths())
	snap.Add("regime.changes", s.changes.Load())
	snap.Add("regime.role_collisions", s.collisions.Load())
}

// Recovered reports whether this replica has finished recovering;
// trivially true unless built with Cfg.Recover.
func (s *Shell) Recovered() bool { return s.Snap.Recovered() }

// ReadPath exposes the read-path server for its test hooks (clock
// skew, the fuzzer's revert guard).
func (s *Shell) ReadPath() *readpath.Server { return s.Read }
