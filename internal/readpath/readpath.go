// Package readpath implements the read fast path: strongly-consistent
// reads that bypass agreement instances entirely (DESIGN.md, "The read
// path": the multiplier after batching and the wire codec for the 90%+
// read mixes the paper's Section 7.5 parameterizes).
//
// Three modes beyond the paper's read-through-consensus default:
//
//   - Lease: a stable leader serves reads from its local state machine
//     under a time-bound lease. A lease is granted by the engine's
//     confirmers (the active acceptor for 1Paxos — the single
//     serialization point every would-be leader must adopt — or a peer
//     quorum for Multi-Paxos) and doubles as a deposition block: until
//     the grant expires, a granter refuses to help any node — itself
//     included — depose the holder (engines gate their prepare
//     handlers, self-prepares too, on
//     Server.PrepareHold). No new leader ⟹ no write can commit that
//     the holder has not applied ⟹ local reads are linearizable. The
//     holder expires its lease a margin early (a quarter of the
//     duration), so bounded clock drift between holder and granter
//     cannot open a stale window; the safety argument lives in
//     DESIGN.md.
//   - Index: lease-free linearizable reads. The serving replica
//     captures its commit frontier, confirms with one lightweight
//     quorum round (msg.ReadIndexRequest/Ack) that it may serve — that
//     its confirmers still recognize it as leader, or, on leaderless
//     engines, what their frontiers are — and serves every queued read
//     from the local state machine once the applied frontier covers
//     the round's maximum. Reads arriving while a round is in flight
//     queue for the next round: one round serves them all, which is
//     the read-path analogue of command batching.
//   - Follower: stale-bounded reads served immediately by any caught-up
//     replica, for workloads that opt into bounded staleness.
//
// A recovering replica (snapshot.Manager catch-up, PR 5) never serves
// any fast-path read until it has caught up: Config.Ready gates every
// serve, and refused reads are redirected to a live peer.
package readpath

import (
	"slices"
	"sync"
	"time"

	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/runtime"
)

// Mode selects how a deployment serves OpGet commands.
type Mode int

// Read modes. The zero value is the paper's behavior — every read runs
// through a full consensus instance — so existing configurations are
// untouched.
const (
	Consensus Mode = iota // reads commit through an agreement instance (the paper)
	Lease                 // stable leader serves locally under a time-bound lease
	Index                 // one quorum round confirms, local state machine serves
	Follower              // any caught-up replica serves, staleness bounded by lag
)

// String implements fmt.Stringer for knob tables and benchmarks.
func (m Mode) String() string {
	switch m {
	case Consensus:
		return "consensus"
	case Lease:
		return "lease"
	case Index:
		return "read-index"
	case Follower:
		return "follower"
	default:
		return "mode(?)"
	}
}

// Valid reports whether m names a known mode (for config validation).
func (m Mode) Valid() bool { return m >= Consensus && m <= Follower }

// Timer kinds. Engine kinds are single digits, PaxosUtility's are >=
// 100, snapshot.Manager's 850, the workload package's 900+; the read
// path slots between snapshot and workload so composite (joint) nodes
// keep routing timers by range.
const (
	timerRound = 860 // Arg: round — retransmit confirmations still missing
	timerLease = 861 // renewal cadence, or retry after a conflicting lease's hold
)

// Defaults for Config zero values.
const (
	// DefaultLeaseDuration is the granter-side lease lifetime. The
	// holder serves only until a quarter-duration safety margin before
	// expiry and renews at a quarter-duration cadence, so a healthy
	// leader never lapses.
	DefaultLeaseDuration = 5 * time.Millisecond
	// DefaultRoundTimeout is the confirmation retransmit deadline.
	DefaultRoundTimeout = 800 * time.Microsecond
)

// Config parameterizes a Server. The function hooks are how an engine
// exposes its leadership and log state without the read path knowing
// any protocol: all are called on the node's callback goroutine.
type Config struct {
	// ID is this node; Replicas is the agreement group.
	ID       msg.NodeID
	Replicas []msg.NodeID

	// Mode is the deployment's read mode; Consensus leaves the server
	// inert on the client path (it still answers confirmations, so
	// mixed configurations fail soft).
	Mode Mode

	// LeaseDuration and RoundTimeout override the defaults above.
	LeaseDuration time.Duration
	RoundTimeout  time.Duration

	// HasLeader marks engines with a distinguished serving node (a
	// stable leader, or 2PC's fixed coordinator): reads are served
	// there and redirected from everywhere else. Leaderless engines
	// (Mencius, Basic Paxos) leave it false and serve rounds anywhere.
	HasLeader bool

	// LeaseCapable marks engines whose confirmers can enforce the
	// lease's deposition block (1Paxos, Multi-Paxos). On other engines
	// Lease mode degrades to Index — documented, not an error.
	LeaseCapable bool

	// IsLeader reports whether this node is currently the serving
	// node; Leader is its best guess at who is (msg.Nobody when
	// unknown). Only consulted when HasLeader.
	IsLeader func() bool
	Leader   func() msg.NodeID

	// Confirmers are the nodes whose acknowledgements confirm a round
	// (never including this node); NeedAcks is how many must answer.
	// 1Paxos confirms at its single active acceptor (NeedAcks 1);
	// quorum engines use their peers (NeedAcks = majority minus self).
	Confirmers func() []msg.NodeID
	NeedAcks   int

	// Grant reports whether this node vouches for from as the serving
	// node — the acceptor's adopted == from for 1Paxos, the regime's
	// leader == from for Multi-Paxos. nil means always (leaderless
	// engines: the acknowledgement only reports a frontier).
	Grant func(from msg.NodeID) bool

	// Establish, when set, is called when a confirmer refuses a round
	// while IsLeader still holds: the engine commits a no-op so its
	// peers observe the new leadership (Multi-Paxos peers learn a
	// leader from its accepts, so a freshly-elected leader with no
	// write traffic would otherwise never be vouched for). The refused
	// reads retry after a round timeout — either the no-op lands and
	// the next round confirms, or the node discovers it was deposed
	// and redirects.
	Establish func()

	// Frontier is the commit frontier a linearizable read must wait
	// out; Applied is the applied frontier the local state machine has
	// reached. Served reads wait until Applied covers the round's
	// maximum Frontier.
	Frontier func() int64
	Applied  func() int64

	// Ready gates all serving: false while the replica is recovering
	// or catching up (snapshot.Manager), when every fast-path read is
	// refused with a redirect.
	Ready func() bool

	// Read resolves a key against the local state machine.
	Read func(key string) (string, bool)

	// Events, when non-nil, receives rare-event timeline entries
	// (internal/obs): lease acquisitions, grants to new holders, and
	// expiries. Renewals are deliberately not logged — at a
	// quarter-duration cadence they would flood the bounded ring.
	Events *obs.EventLog
}

// pending is one queued read.
type pending struct {
	client msg.NodeID
	seq    uint64
	key    string
}

// waiter is a batch of reads awaiting the applied frontier: a confirmed
// round's, or, with local set, a lease holder's, which no round confirmed.
type waiter struct {
	frontier int64
	reads    []pending
	local    bool
}

// Server is the per-replica read-path state machine. Engines embed one
// and forward: Handle first in Receive, HandleTimer first in Timer,
// Start from Start, AfterApply from their apply callback, PrepareHold
// from their prepare handlers (lease-capable engines only).
type Server struct {
	cfg    Config
	ctx    runtime.Context
	margin time.Duration

	queue      []pending // reads waiting for the next round
	current    []pending // reads riding the active round
	round      uint64
	active     bool
	isLease    bool
	frontier   int64 // running max frontier of the active round
	need       int
	nconfirm   int // confirmers the active round was sent to
	acks       map[msg.NodeID]bool
	refused    map[msg.NodeID]bool // confirmers that answered !OK (disjoint from acks)
	roundStart time.Duration

	waiters []waiter
	scratch []pending // onRead's unpacked request

	// Holder-side lease state. leaseUntil is when local serving stops
	// (margin early); blockUntil is when the holder stops refusing
	// prepares for its own lease (the full granter-side duration).
	leaseUntil time.Duration
	blockUntil time.Duration
	renewing   bool

	// Granter-side lease state.
	grantHolder msg.NodeID
	grantUntil  time.Duration
	// foreignUntil covers leases this node cannot see: a freshly
	// promoted 1Paxos acceptor inherits none of its predecessor's grant
	// state, so it assumes an unknown holder was granted a full-duration
	// lease at promotion and refuses every prepare until it lapses.
	foreignUntil time.Duration

	mu    sync.Mutex
	skew  time.Duration // test hook: added to every clock read
	stats Counters      // guarded by mu: Collect reads it from other goroutines

	// legacySelfExempt re-enables a fixed bug for the fuzzer's
	// revert-guard test; see SetLegacyGranterSelfExemption.
	legacySelfExempt bool
}

// New builds a Server. Engines construct one unconditionally; with
// Mode == Consensus it only ever answers confirmation requests.
func New(cfg Config) *Server {
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = DefaultLeaseDuration
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = DefaultRoundTimeout
	}
	return &Server{
		cfg:         cfg,
		margin:      cfg.LeaseDuration / 4,
		grantHolder: msg.Nobody,
	}
}

// Start records the node context. Leases are acquired lazily, on the
// first read the leader sees.
func (s *Server) Start(ctx runtime.Context) { s.ctx = ctx }

// Counters is one replica's read-path accounting: how many reads it
// served without consensus, how the read-index rounds batched, and how
// the lease machinery behaved. The fields are plain integers guarded
// by the Server's mutex.
type Counters struct {
	LocalReads    int64 // reads served from the local state machine with no quorum round
	FollowerReads int64 // subset of LocalReads served in follower (stale-bounded) mode
	IndexRounds   int64 // read-index confirmation rounds completed
	IndexReads    int64 // reads served through read-index rounds
	LeaseRenewals int64 // lease rounds completed by an already-holding leader
	LeaseExpiries int64 // leases that lapsed before a renewal landed
	Fallbacks     int64 // lease-path reads demoted to a quorum round (no valid lease)
	ApplyWaits    int64 // lease-path reads held until the holder's applies reach its frontier (still local reads)
	Redirects     int64 // reads bounced to another replica (not leader, or catching up)

	// Rounds is the reads-per-round occupancy histogram: one sample per
	// read-index round, counting the reads it served (renewal rounds
	// carrying no reads are not recorded).
	Rounds metrics.BatchOccupancy
}

// Collect adds the read-path counters to s under the "read." names.
// Safe from any goroutine.
func (s *Server) Collect(snap *obs.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &s.stats
	snap.Add("read.local_reads", c.LocalReads)
	snap.Add("read.follower_reads", c.FollowerReads)
	snap.Add("read.index_rounds", c.IndexRounds)
	snap.Add("read.index_reads", c.IndexReads)
	snap.Add("read.lease_renewals", c.LeaseRenewals)
	snap.Add("read.lease_expiries", c.LeaseExpiries)
	snap.Add("read.fallbacks", c.Fallbacks)
	snap.Add("read.apply_waits", c.ApplyWaits)
	snap.Add("read.redirects", c.Redirects)
	snap.AddBatchOccupancy("read.rounds", &c.Rounds)
}

// SkewClock shifts this node's read-path clock by d — a test hook for
// the adversarial lease tests (a positive skew makes the node believe
// time has advanced further than it has). Safe from any goroutine.
func (s *Server) SkewClock(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.skew = d
}

// SetLegacyGranterSelfExemption re-enables a historical bug, for tests
// only: with it on, PrepareHold's granter-side clause exempts this
// node's own prepares — so a granter can count its own vote toward
// deposing the very holder its grant still protects — and lease serving
// skips the applied-frontier gate, as the code of that era did. Together
// they restore the stale-read hole the lease adversarial test originally
// caught (an isolated holder serving local reads while a challenger
// commits writes behind it). The scenario fuzzer's revert-guard flips it
// on to prove the linearizability checker finds the resulting stale
// reads from a seeded fault schedule alone. Never set outside a test.
// Safe from any goroutine.
func (s *Server) SetLegacyGranterSelfExemption(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.legacySelfExempt = on
}

// LegacyGranterSelfExemption reports whether the historical bug is
// switched on (see SetLegacyGranterSelfExemption). Safe from any
// goroutine.
func (s *Server) LegacyGranterSelfExemption() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.legacySelfExempt
}

// ClockSkew reports the offset SkewClock last installed. Safe from any
// goroutine.
func (s *Server) ClockSkew() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skew
}

func (s *Server) now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctx.Now() + s.skew
}

func (s *Server) count(f func(st *Counters)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.stats)
}

// effectiveMode folds the documented degradations: Lease on an engine
// whose confirmers cannot block deposition is served as Index.
func (s *Server) effectiveMode() Mode {
	if s.cfg.Mode == Lease && !s.cfg.LeaseCapable {
		return Index
	}
	return s.cfg.Mode
}

// Handle dispatches read-path messages; it reports false for messages
// that are not the read path's.
func (s *Server) Handle(ctx runtime.Context, from msg.NodeID, m msg.Message) bool {
	switch mm := m.(type) {
	case *msg.ReadRequest:
		s.ctx = ctx
		s.onRead(mm)
	case msg.ReadIndexRequest:
		s.ctx = ctx
		s.onConfirm(from, mm)
	case msg.ReadIndexAck:
		s.ctx = ctx
		s.onAck(from, mm)
	default:
		return false
	}
	return true
}

// HandleTimer dispatches read-path timers; false for foreign kinds.
func (s *Server) HandleTimer(ctx runtime.Context, tag runtime.TimerTag) bool {
	switch tag.Kind {
	case timerRound:
		s.ctx = ctx
		if s.active && uint64(tag.Arg) == s.round {
			s.resendRound()
		}
	case timerLease:
		s.ctx = ctx
		s.onLeaseTick()
	default:
		return false
	}
	return true
}

// --- Client path ---

// onRead unpacks a request into the scratch, which nothing keeps: a read
// served at once is answered from it, and one that waits is copied out
// (enqueue appends to the round queue, leaseServe clones what it parks).
func (s *Server) onRead(m *msg.ReadRequest) {
	reads := s.scratch[:0]
	for _, e := range m.Entries {
		reads = append(reads, pending{client: m.Client, seq: e.Seq, key: e.Cmd.Key})
	}
	s.scratch = reads
	if len(reads) == 0 {
		return
	}
	if s.cfg.Ready != nil && !s.cfg.Ready() {
		// Recovering: this replica's state machine is behind the group
		// and must not serve ANY fast-path read, follower mode included.
		s.redirect(reads)
		return
	}
	switch s.effectiveMode() {
	case Follower:
		s.serveLocal(reads, true)
	case Lease:
		if !s.cfg.IsLeader() {
			s.redirect(reads)
			return
		}
		now := s.now()
		if s.leaseUntil > 0 && now < s.leaseUntil {
			s.leaseServe(reads)
			return
		}
		if s.leaseUntil > 0 {
			// Held a lease but renewals did not land in time.
			s.leaseUntil = 0
			s.count(func(st *Counters) { st.LeaseExpiries++ })
			s.cfg.Events.Emit(now, s.cfg.ID, "lease-expiry", "held lease lapsed before renewal")
		}
		// No valid lease: the reads ride a lease(-acquiring) round —
		// the integrated fallback to a quorum confirmation.
		s.count(func(st *Counters) { st.Fallbacks += int64(len(reads)) })
		s.enqueue(reads)
	case Index:
		if s.cfg.HasLeader && !s.cfg.IsLeader() {
			s.redirect(reads)
			return
		}
		s.enqueue(reads)
	default:
		// Consensus (or unknown): this replica does not serve fast-path
		// reads; bounce the client back to the write path's target.
		s.redirect(reads)
	}
}

func (s *Server) enqueue(reads []pending) {
	s.queue = append(s.queue, reads...)
	if !s.active {
		s.startRound()
	}
}

func (s *Server) startRound() {
	s.round++
	s.active = true
	s.isLease = s.effectiveMode() == Lease
	s.current = s.queue
	s.queue = nil
	s.frontier = s.cfg.Frontier()
	s.acks = make(map[msg.NodeID]bool)
	s.refused = make(map[msg.NodeID]bool)
	s.roundStart = s.now()
	confirmers := s.cfg.Confirmers()
	s.nconfirm = 0
	selfConfirm := false
	for _, id := range confirmers {
		if id == s.cfg.ID {
			selfConfirm = true
		} else {
			s.nconfirm++
		}
	}
	s.need = s.cfg.NeedAcks
	if selfConfirm {
		// This node is one of its own confirmers — a 1Paxos leader that
		// is also the active acceptor after a takeover. It IS the
		// serialization point then (every commit and every adoption
		// passes through it), so its acknowledgement is implicit; a
		// round that waited for it on the wire would stall forever.
		s.need--
	}
	if s.need > s.nconfirm {
		s.need = s.nconfirm
	}
	if s.need <= 0 {
		// No external confirmation required (2PC's coordinator, or a
		// leader that is its own serialization point): the captured
		// frontier serves as is.
		s.completeRound()
		return
	}
	req := msg.ReadIndexRequest{Round: s.round, Lease: s.isLease}
	for _, id := range confirmers {
		// Nobody marks a confirmer the engine cannot name right now
		// (1Paxos mid-takeover, before the acceptor view settles). It
		// still counts toward need above, so the round waits for the
		// resend timer to re-evaluate Confirmers instead of confirming
		// without the serialization point's word.
		if id != s.cfg.ID && id != msg.Nobody {
			s.ctx.Send(id, req)
		}
	}
	s.ctx.After(s.cfg.RoundTimeout, runtime.TimerTag{Kind: timerRound, Arg: int64(s.round)})
}

// resendRound retransmits the confirmation to confirmers that have not
// answered — covering lost messages and confirmer swaps (1Paxos may
// promote a new active acceptor mid-round; Confirmers is re-evaluated).
func (s *Server) resendRound() {
	req := msg.ReadIndexRequest{Round: s.round, Lease: s.isLease}
	for _, id := range s.cfg.Confirmers() {
		if id != s.cfg.ID && id != msg.Nobody && !s.acks[id] {
			s.ctx.Send(id, req)
		}
	}
	s.ctx.After(s.cfg.RoundTimeout, runtime.TimerTag{Kind: timerRound, Arg: int64(s.round)})
}

// --- Confirmer (peer) side ---

func (s *Server) onConfirm(from msg.NodeID, m msg.ReadIndexRequest) {
	ack := msg.ReadIndexAck{Round: m.Round, Frontier: s.cfg.Frontier()}
	ok := s.cfg.Grant == nil || s.cfg.Grant(from)
	if !m.Lease {
		ack.OK = ok
		s.ctx.Send(from, ack)
		return
	}
	now := s.now()
	switch {
	case !ok:
		// Not the leader we know: no grant, no hold to wait out.
	case s.grantHolder == from || s.grantHolder == msg.Nobody || now >= s.grantUntil:
		if s.grantHolder != from {
			s.cfg.Events.Emitf(now, s.cfg.ID, "lease-grant", "granted to node %d", from)
		}
		s.grantHolder = from
		s.grantUntil = now + s.cfg.LeaseDuration
		ack.OK = true
	default:
		// An unexpired lease binds us to another holder; tell the
		// requester how long it must wait out.
		ack.Hold = int64(s.grantUntil - now)
	}
	s.ctx.Send(from, ack)
}

// PrepareHold reports how long this node must keep refusing to help
// depose the current lease holder on behalf of from: positive while an
// unexpired lease — granted by this node or held by it — binds it to a
// different node. Lease-capable engines consult it at the top of their
// prepare handlers and drop (or nack) the prepare; the requester's own
// retry logic tries again until the lease runs out. This is the lease's
// entire safety mechanism: a new leader cannot assemble the promises it
// needs before every lease the old leader could still be serving under
// has expired.
//
// The granter-side clause applies to this node's own prepares too
// (from == cfg.ID): candidates promise to themselves and adopt
// themselves through the same handlers, so a granter exempting itself
// could count its own vote toward deposing the very holder its grant
// still protects — with NeedAcks below a full majority, that vote can
// be the one that completes a challenger majority while the old
// leader's lease is still valid elsewhere
// (TestLeasePartitionedLeaderNoStaleRead stages exactly this). Only the
// holder-side blockUntil clause exempts self: the holder has applied
// everything it ever served, so re-electing *itself* is always safe.
func (s *Server) PrepareHold(from msg.NodeID) time.Duration {
	if s.cfg.Mode != Lease || !s.cfg.LeaseCapable {
		return 0
	}
	now := s.now()
	var hold time.Duration
	if s.grantHolder != msg.Nobody && s.grantHolder != from && s.grantUntil > now &&
		!(from == s.cfg.ID && s.LegacyGranterSelfExemption()) {
		hold = s.grantUntil - now
	}
	if from != s.cfg.ID && s.blockUntil > now {
		// We hold (or held, within the granter-side window) the lease
		// ourselves: block our own promise too, so a challenger cannot
		// count this node toward its majority early.
		if h := s.blockUntil - now; h > hold {
			hold = h
		}
	}
	if s.foreignUntil > now {
		// A lease granted by a predecessor acceptor may still be live
		// and we cannot name its holder: hold everyone, self included.
		if h := s.foreignUntil - now; h > hold {
			hold = h
		}
	}
	return hold
}

// AssumeForeignLease makes this node refuse every prepare for one full
// lease duration, as if an unknown peer had just been granted a lease.
// A 1Paxos engine calls it when this node is promoted to active
// acceptor: leases granted by the previous acceptor are invisible here,
// and adopting a leader before they lapse would let it commit writes a
// still-serving holder never applies. Any such lease was granted before
// the promotion committed (the old holder stops renewing there once it
// switches, and a partition that keeps the old holder-granter pair
// intact also blocks the promotion), so now+duration outlives it — the
// holder's quarter-duration early serving cutoff absorbs both clock
// skew and grant acks that were already in flight.
func (s *Server) AssumeForeignLease() {
	if hold := s.PromotionHold(); hold > 0 {
		s.foreignUntil = max(s.foreignUntil, s.now()+hold)
	}
}

// PromotionHold is how long AssumeForeignLease makes a promoted acceptor
// refuse every prepare: one lease duration under Lease, zero otherwise.
// The leader that promoted it reads this to tell the deliberate silence
// from a dead acceptor.
func (s *Server) PromotionHold() time.Duration {
	if s.cfg.Mode != Lease || !s.cfg.LeaseCapable {
		return 0
	}
	return s.cfg.LeaseDuration
}

// --- Round completion ---

func (s *Server) onAck(from msg.NodeID, m msg.ReadIndexAck) {
	if !s.active || m.Round != s.round {
		return
	}
	if !m.OK {
		if s.isLease && m.Hold > 0 {
			// Still leader, but an older lease must run out first: hold
			// the reads and retry when it has. Decisive regardless of
			// other acks — racing a competing lease is never worth it.
			s.retryAfter(time.Duration(m.Hold))
			return
		}
		if s.acks[from] || s.refused[from] {
			return
		}
		s.refused[from] = true
		if s.nconfirm-len(s.refused) >= s.need {
			// Enough other confirmers can still answer OK: wait for
			// them rather than abort the round — one peer with a stale
			// leader view must not force a fallback on every round.
			return
		}
		s.failRound()
		return
	}
	if m.Frontier > s.frontier {
		s.frontier = m.Frontier
	}
	if s.acks[from] {
		return
	}
	s.acks[from] = true
	delete(s.refused, from) // a resend may flip an earlier refusal
	if len(s.acks) >= s.need {
		s.completeRound()
	}
}

// failRound handles a round that can no longer gather NeedAcks
// confirmations: re-establish leadership and retry, or redirect.
func (s *Server) failRound() {
	if s.cfg.Establish != nil && s.cfg.IsLeader != nil && s.cfg.IsLeader() {
		// Confirmers have not observed this node's leadership yet:
		// commit a no-op to establish it and retry. If the node was
		// in fact deposed, the no-op's rejection clears IsLeader and
		// the retried round redirects below.
		s.cfg.Establish()
		s.retryAfter(s.cfg.RoundTimeout)
		return
	}
	// The confirmers no longer recognize us: bounce the reads to
	// whoever it should be.
	reads := s.current
	s.current = nil
	s.active = false
	s.leaseUntil = 0
	s.redirect(reads)
}

func (s *Server) retryAfter(hold time.Duration) {
	s.active = false
	s.queue = append(s.current, s.queue...)
	s.current = nil
	s.ctx.After(hold, runtime.TimerTag{Kind: timerLease})
}

func (s *Server) completeRound() {
	s.active = false
	if s.isLease {
		renewed := s.leaseUntil > 0
		// Validity is measured from the round START: every granter's
		// clock started its full duration no earlier than our send, so
		// stopping a margin early keeps the holder window strictly
		// inside every granter window under bounded drift.
		s.leaseUntil = s.roundStart + s.cfg.LeaseDuration - s.margin
		s.blockUntil = s.roundStart + s.cfg.LeaseDuration
		if renewed {
			s.count(func(st *Counters) { st.LeaseRenewals++ })
		} else {
			s.cfg.Events.Emitf(s.now(), s.cfg.ID, "lease-acquire",
				"lease held until %s", s.leaseUntil)
		}
		if !s.renewing {
			s.renewing = true
			s.ctx.After(s.margin, runtime.TimerTag{Kind: timerLease})
		}
	}
	batch := s.current
	s.current = nil
	if len(batch) > 0 {
		s.count(func(st *Counters) {
			st.IndexRounds++
			st.IndexReads += int64(len(batch))
			st.Rounds.Record(len(batch))
		})
		if s.cfg.Applied() >= s.frontier {
			s.serve(batch)
		} else {
			s.waiters = append(s.waiters, waiter{frontier: s.frontier, reads: batch})
		}
	}
	if len(s.queue) == 0 {
		return
	}
	if s.isLease && s.leaseUntil > s.now() && s.cfg.IsLeader() {
		// The round just (re)established the lease: reads that arrived
		// during it are served under it, no further round needed.
		local := s.queue
		s.queue = nil
		s.leaseServe(local)
		return
	}
	s.startRound()
}

// leaseServe serves reads under a valid lease. The lease guarantees no
// other node can commit a write the holder did not propose, so the
// current frontier bounds every instance that could hold a completed
// write — but it says nothing about the holder's own applies: a crash
// or partition can drop the holder's learns while followers apply and
// answer the very same writes. Serve from local state only once applies
// cover the frontier; otherwise wait for them (a local wait — the lease
// is exactly what makes a quorum confirmation round unnecessary, so the
// reads count as local when AfterApply serves them).
func (s *Server) leaseServe(reads []pending) {
	f := s.cfg.Frontier()
	if s.cfg.Applied() >= f || s.LegacyGranterSelfExemption() {
		s.serveLocal(reads, false)
		return
	}
	s.count(func(st *Counters) { st.ApplyWaits += int64(len(reads)) })
	s.waiters = append(s.waiters, waiter{frontier: f, reads: slices.Clone(reads), local: true})
}

// onLeaseTick drives lease renewal (and post-hold retries): while the
// leader, keep a round in flight often enough that the lease never
// lapses between reads.
func (s *Server) onLeaseTick() {
	s.renewing = false
	if s.active {
		s.renewing = true
		s.ctx.After(s.margin, runtime.TimerTag{Kind: timerLease})
		return
	}
	if s.effectiveMode() == Lease && s.cfg.IsLeader() && (s.leaseUntil > 0 || len(s.queue) > 0) {
		s.startRound()
		return
	}
	if len(s.queue) > 0 {
		s.startRound()
	}
}

// AfterApply serves every confirmed round whose frontier the applied
// state now covers. Engines call it from their apply callback.
func (s *Server) AfterApply() {
	if len(s.waiters) == 0 {
		return
	}
	applied := s.cfg.Applied()
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		switch {
		case w.frontier > applied:
			kept = append(kept, w)
		case w.local:
			s.serveLocal(w.reads, false)
		default:
			s.serve(w.reads)
		}
	}
	s.waiters = kept
}

// --- Serving ---

func (s *Server) serve(reads []pending) {
	s.reply(reads, func(p pending) msg.ReadReply {
		result, _ := s.cfg.Read(p.key)
		return msg.ReadReply{Seq: p.seq, OK: true, Result: result}
	})
}

func (s *Server) serveLocal(reads []pending, follower bool) {
	s.count(func(st *Counters) {
		st.LocalReads += int64(len(reads))
		if follower {
			st.FollowerReads += int64(len(reads))
		}
	})
	s.serve(reads)
}

func (s *Server) redirect(reads []pending) {
	target := s.redirectTarget()
	s.count(func(st *Counters) { st.Redirects += int64(len(reads)) })
	s.reply(reads, func(p pending) msg.ReadReply {
		return msg.ReadReply{Seq: p.seq, Redirect: target}
	})
}

// redirectTarget picks where a refused read should retry: the known
// leader when there is one, otherwise the next replica after this node
// (a recovering follower bounces its clients to a live peer).
func (s *Server) redirectTarget() msg.NodeID {
	if s.cfg.HasLeader && s.cfg.Leader != nil {
		if l := s.cfg.Leader(); l != msg.Nobody && l != s.cfg.ID {
			return l
		}
	}
	for i, id := range s.cfg.Replicas {
		if id == s.cfg.ID {
			return s.cfg.Replicas[(i+1)%len(s.cfg.Replicas)]
		}
	}
	return msg.Nobody
}

// reply groups per-client replies into single messages, each a
// msg.ReadReplyBatch box (one read's answer too). The single-client
// case — every read of a coalesced ReadRequest shares one sender —
// skips the grouping map entirely; it is the read hot path.
func (s *Server) reply(reads []pending, build func(pending) msg.ReadReply) {
	if len(reads) == 0 {
		return
	}
	single := true
	for _, p := range reads[1:] {
		if p.client != reads[0].client {
			single = false
			break
		}
	}
	if single {
		b := msg.DrawReadReplies()
		for _, p := range reads {
			b.Replies = append(b.Replies, build(p))
		}
		s.ctx.Send(reads[0].client, b)
		return
	}
	byClient := make(map[msg.NodeID]*msg.ReadReplyBatch, 1)
	order := make([]msg.NodeID, 0, 1)
	for _, p := range reads {
		b := byClient[p.client]
		if b == nil {
			b = msg.DrawReadReplies()
			byClient[p.client] = b
			order = append(order, p.client)
		}
		b.Replies = append(b.Replies, build(p))
	}
	for _, client := range order {
		s.ctx.Send(client, byClient[client])
	}
}
