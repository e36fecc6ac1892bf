// Package paxosutil implements the paper's PaxosUtility (Sections 5.2-5.4):
// a majority-replicated log of configuration entries — LeaderChange and
// AcceptorChange — decided by Basic Paxos among the replica set.
//
// 1Paxos falls back to this utility whenever the active acceptor or the
// leader must be replaced; it never runs on the fast path. The utility is
// an embeddable component: the host protocol forwards it the Util*
// messages and its reserved timers, and learns committed entries through
// the OnCommit callback.
//
// The correctness argument of the paper's Appendix B is anchored on two
// properties this implementation provides:
//
//   - entries are decided by Basic Paxos per slot, so all nodes agree on
//     the sequence of LeaderChange/AcceptorChange entries; and
//   - Propose targets an explicit slot (the proposer's first empty one)
//     and reports failure if a different entry was chosen there, which is
//     the guard behind Lemma 1 ("an AcceptorChange entry is inserted only
//     by the Global leader").
package paxosutil

import (
	"fmt"
	"time"

	"consensusinside/internal/basicpaxos"
	"consensusinside/internal/msg"
	"consensusinside/internal/runtime"
)

// TimerRetry is the reserved timer kind for utility proposal retries.
// Hosts must route timers with this kind to HandleTimer. Arg is the slot.
const TimerRetry = 100

// DefaultRetryTimeout is how long a proposal round waits for a quorum
// before restarting with a higher proposal number.
const DefaultRetryTimeout = 300 * time.Microsecond

// DoneFunc reports the outcome of a Propose: success means the proposer's
// own entry is the chosen entry at the slot; chosen is whatever was
// actually decided there.
type DoneFunc func(success bool, chosen msg.UtilEntry)

// Util is one node's view of the utility log. It is not safe for
// concurrent use; it lives inside a single-threaded protocol node.
type Util struct {
	me      msg.NodeID
	members []msg.NodeID
	quorum  int

	committed map[int64]msg.UtilEntry
	frontier  int64 // first slot with no committed entry (contiguous prefix)
	delivered int64 // next slot to hand to onCommit (never above frontier)
	maxSlot   int64 // one past the highest committed slot (backfill target)

	accs    map[int64]*basicpaxos.Acceptor[msg.UtilEntry]
	props   map[int64]*proposal
	tallies map[int64]map[uint64]map[msg.NodeID]bool

	maxPNSeen uint64
	retry     time.Duration
	onCommit  func(slot int64, e msg.UtilEntry)
}

type proposal struct {
	slot        int64
	entry       msg.UtilEntry
	synod       *basicpaxos.Proposer[msg.UtilEntry]
	done        DoneFunc
	cancelTimer runtime.CancelFunc
	// internal marks a backfill no-op proposal. The engine may pick the
	// same slot for a real entry before the backfill resolves; a real
	// Propose displaces an internal one (abandoning a proposer is always
	// safe — the replacement's higher-PN prepare adopts any value the
	// abandoned round got accepted).
	internal bool
}

// New builds a utility over the given member set (which must include me).
func New(me msg.NodeID, members []msg.NodeID) *Util {
	found := false
	for _, m := range members {
		if m == me {
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("paxosutil: node %d not in member set %v", me, members))
	}
	ms := make([]msg.NodeID, len(members))
	copy(ms, members)
	return &Util{
		me:        me,
		members:   ms,
		quorum:    len(ms)/2 + 1,
		committed: make(map[int64]msg.UtilEntry),
		accs:      make(map[int64]*basicpaxos.Acceptor[msg.UtilEntry]),
		props:     make(map[int64]*proposal),
		tallies:   make(map[int64]map[uint64]map[msg.NodeID]bool),
		retry:     DefaultRetryTimeout,
	}
}

// SetRetryTimeout overrides the proposal retry timeout (e.g. for LAN
// deployments where round trips are far longer).
func (u *Util) SetRetryTimeout(d time.Duration) { u.retry = d }

// OnCommit registers the callback invoked once per slot, in slot order.
// A commit discovered above a gap (its acceptance broadcasts raced a
// partition) is held back until the gap fills, so observers may treat
// each delivery as the latest regime: applying a LeaderChange or
// AcceptorChange out of order would roll a node's view back to a
// deposed configuration.
func (u *Util) OnCommit(fn func(slot int64, e msg.UtilEntry)) { u.onCommit = fn }

// Frontier reports the first slot this node has no committed entry for —
// the slot Propose should target.
func (u *Util) Frontier() int64 { return u.frontier }

// Superseded reports whether any slot above the given one is already
// known committed locally: a decision at slot is then history, not the
// current regime. A proposer whose entry commits superseded must not
// act on the authority it grants — commit discovery can arrive
// arbitrarily late (crash windows, partitions), long after later slots
// replaced the regime the entry installed.
func (u *Util) Superseded(slot int64) bool { return u.maxSlot > slot+1 }

// Committed reports the chosen entry at slot, if known locally.
func (u *Util) Committed(slot int64) (msg.UtilEntry, bool) {
	e, ok := u.committed[slot]
	return e, ok
}

// Propose starts consensus for entry at slot. done fires exactly once,
// when the slot's decision becomes known to this node. Proposing at an
// already-decided slot reports immediately. Only one in-flight proposal
// per slot per node is allowed.
func (u *Util) Propose(ctx runtime.Context, slot int64, entry msg.UtilEntry, done DoneFunc) {
	if e, ok := u.committed[slot]; ok {
		done(entryEqual(e, entry), e)
		return
	}
	if p, busy := u.props[slot]; busy {
		if !p.internal {
			panic(fmt.Sprintf("paxosutil: node %d already proposing at slot %d", u.me, slot))
		}
		// Displace an in-flight backfill no-op with the real entry.
		if p.cancelTimer != nil {
			p.cancelTimer()
		}
		delete(u.props, slot)
	}
	pn := basicpaxos.NextPN(u.me, u.maxPNSeen)
	u.maxPNSeen = pn
	p := &proposal{
		slot:  slot,
		entry: entry,
		synod: basicpaxos.NewProposer(u.me, u.quorum, pn, entry),
		done:  done,
	}
	u.props[slot] = p
	u.armRetry(ctx, p)
	u.broadcast(ctx, msg.SlotPrepare{Slot: slot, PN: pn})
}

func (u *Util) armRetry(ctx runtime.Context, p *proposal) {
	if p.cancelTimer != nil {
		p.cancelTimer()
	}
	// Jitter the retry so duelling proposers desynchronize.
	jitter := time.Duration(ctx.Rand().Int63n(int64(u.retry)/2 + 1))
	p.cancelTimer = ctx.After(u.retry+jitter, runtime.TimerTag{Kind: TimerRetry, Arg: p.slot})
}

// backfill drives consensus at the lowest gap slot when a commit is
// known to exist above it. A node cut off from the acceptance
// broadcasts has no other way to learn the missed decisions (nothing
// re-broadcasts them), and slot-ordered observer delivery holds every
// later regime change hostage to the gap. Proposing a no-op entry at
// the gap adopts whatever was decided there (synod safety); a genuinely
// undecided slot commits the no-op, which every reader skips.
func (u *Util) backfill(ctx runtime.Context) {
	if u.frontier >= u.maxSlot {
		return
	}
	if _, busy := u.props[u.frontier]; busy {
		return
	}
	u.Propose(ctx, u.frontier, msg.UtilEntry{}, func(bool, msg.UtilEntry) {})
	u.props[u.frontier].internal = true
}

// HandleTimer processes a utility timer. It reports whether the tag was
// one of the utility's.
func (u *Util) HandleTimer(ctx runtime.Context, tag runtime.TimerTag) bool {
	if tag.Kind != TimerRetry {
		return false
	}
	p, ok := u.props[tag.Arg]
	if !ok {
		return true // already decided
	}
	pn := basicpaxos.NextPN(u.me, u.maxPNSeen)
	u.maxPNSeen = pn
	p.synod.Restart(pn)
	u.armRetry(ctx, p)
	u.broadcast(ctx, msg.SlotPrepare{Slot: p.slot, PN: pn})
	return true
}

// Handle processes one utility message. It reports whether the message
// belonged to the utility (hosts forward everything and dispatch on the
// return value).
func (u *Util) Handle(ctx runtime.Context, from msg.NodeID, m msg.Message) bool {
	switch mm := m.(type) {
	case msg.SlotPrepare:
		u.onPrepare(ctx, from, mm)
	case msg.UtilPromise:
		u.onPromise(ctx, from, mm)
	case msg.UtilAccept:
		u.onAccept(ctx, from, mm)
	case msg.UtilAccepted:
		u.onAccepted(ctx, mm)
	case msg.SlotNack:
		u.onNack(ctx, from, mm)
	default:
		return false
	}
	u.backfill(ctx)
	return true
}

func (u *Util) onPrepare(ctx runtime.Context, from msg.NodeID, m msg.SlotPrepare) {
	if m.PN > u.maxPNSeen {
		u.maxPNSeen = m.PN
	}
	acc := u.accFor(m.Slot)
	if acc.Prepare(m.PN) {
		ctx.Send(from, msg.UtilPromise{
			Slot:       m.Slot,
			PN:         m.PN,
			AcceptedPN: acc.AcceptedPN,
			Accepted:   acc.Accepted,
		})
	} else {
		ctx.Send(from, msg.SlotNack{Slot: m.Slot, PN: acc.Promised})
	}
}

func (u *Util) onPromise(ctx runtime.Context, from msg.NodeID, m msg.UtilPromise) {
	p, ok := u.props[m.Slot]
	if !ok {
		return
	}
	if p.synod.OnPromise(from, m.PN, m.AcceptedPN, m.Accepted) {
		u.broadcast(ctx, msg.UtilAccept{Slot: m.Slot, PN: m.PN, Entry: p.synod.Value()})
	}
}

func (u *Util) onAccept(ctx runtime.Context, from msg.NodeID, m msg.UtilAccept) {
	if m.PN > u.maxPNSeen {
		u.maxPNSeen = m.PN
	}
	acc := u.accFor(m.Slot)
	if acc.Accept(m.PN, m.Entry) {
		// Acceptors broadcast the acceptance to every member: all nodes
		// are learners of the utility log.
		u.broadcast(ctx, msg.UtilAccepted{Slot: m.Slot, PN: m.PN, Entry: m.Entry, From: u.me})
	} else {
		ctx.Send(from, msg.SlotNack{Slot: m.Slot, PN: acc.Promised})
	}
}

func (u *Util) onAccepted(ctx runtime.Context, m msg.UtilAccepted) {
	if _, ok := u.committed[m.Slot]; ok {
		return
	}
	bySlot, ok := u.tallies[m.Slot]
	if !ok {
		bySlot = make(map[uint64]map[msg.NodeID]bool)
		u.tallies[m.Slot] = bySlot
	}
	voters, ok := bySlot[m.PN]
	if !ok {
		voters = make(map[msg.NodeID]bool)
		bySlot[m.PN] = voters
	}
	voters[m.From] = true
	if len(voters) >= u.quorum {
		u.commit(m.Slot, m.Entry)
	}
	// Let the proposer observe progress too (it may be us).
	if p, ok := u.props[m.Slot]; ok {
		p.synod.OnAccepted(m.From, m.PN)
	}
}

func (u *Util) onNack(ctx runtime.Context, from msg.NodeID, m msg.SlotNack) {
	if m.PN > u.maxPNSeen {
		u.maxPNSeen = m.PN
	}
	// The retry timer will restart the round with a higher number; nacks
	// only feed the pn high-water mark. Restarting immediately on every
	// nack would make duelling proposers livelock.
	_ = from
}

func (u *Util) commit(slot int64, e msg.UtilEntry) {
	if prev, ok := u.committed[slot]; ok {
		if !entryEqual(prev, e) {
			panic(fmt.Sprintf("paxosutil: slot %d decided twice: %+v then %+v", slot, prev, e))
		}
		return
	}
	u.committed[slot] = e
	if slot+1 > u.maxSlot {
		u.maxSlot = slot + 1
	}
	for {
		if _, ok := u.committed[u.frontier]; !ok {
			break
		}
		u.frontier++
	}
	delete(u.tallies, slot)
	if p, ok := u.props[slot]; ok {
		delete(u.props, slot)
		if p.cancelTimer != nil {
			p.cancelTimer()
		}
		p.done(entryEqual(e, p.entry), e)
	}
	// Observer delivery stays in slot order: a commit above a gap waits
	// for the gap to fill (see OnCommit). Re-read the frontier each step —
	// a handler could feed a message that commits further slots.
	for u.onCommit != nil && u.delivered < u.frontier {
		s := u.delivered
		u.delivered++
		u.onCommit(s, u.committed[s])
	}
}

func (u *Util) accFor(slot int64) *basicpaxos.Acceptor[msg.UtilEntry] {
	acc, ok := u.accs[slot]
	if !ok {
		acc = &basicpaxos.Acceptor[msg.UtilEntry]{}
		u.accs[slot] = acc
	}
	return acc
}

func (u *Util) broadcast(ctx runtime.Context, m msg.Message) {
	for _, member := range u.members {
		ctx.Send(member, m)
	}
}

// entryEqual compares entries structurally (proposal slices element-wise).
func entryEqual(a, b msg.UtilEntry) bool {
	if a.Type != b.Type || a.Leader != b.Leader || a.Acceptor != b.Acceptor || a.Frontier != b.Frontier {
		return false
	}
	if len(a.Uncommitted) != len(b.Uncommitted) {
		return false
	}
	for i := range a.Uncommitted {
		if !a.Uncommitted[i].Equal(b.Uncommitted[i]) {
			return false
		}
	}
	return true
}
