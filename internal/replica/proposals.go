package replica

import (
	"consensusinside/internal/msg"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
)

// TimerAcceptDeadline is the kind of the leader book's accept-deadline
// timer; RouteTimer handles it.
const TimerAcceptDeadline = 840

// Proposals is a leader's book, the proposer half every engine whose
// leader numbers instances itself shares (1Paxos, Multi-Paxos): the
// value this node proposed at each instance not yet applied, the next
// free instance, the no-op floor, the requests admitted while this node
// does not lead, and one accept deadline over the unlearned accepts. Its
// steps are Appendix A's registerProposals and getAny, written once:
// register carried proposals, fill gaps with no-ops, re-send, flush the
// queue. The shell builds it for an engine that sets Agreement.Accept
// and takes the engine's Frontier, OnApply and OnRestore from it; the
// engine keeps where an accept goes, how leadership is won, and its
// acceptor and learner roles.
type Proposals struct {
	s        *Shell
	accept   func(in int64, v msg.Value)
	overdue  func(instances []int64)
	majority bool // Agreement.MajorityAccept

	proposed map[int64]msg.Value
	next     int64 // the next free instance
	// floor is the no-op floor: instances below it were decided
	// elsewhere (a regime frontier, a peer's compaction floor, a
	// restored snapshot). Their learns are in flight or their values
	// arrive by catch-up — cores are slow, not amnesiac — so they are
	// never no-op filled.
	floor    int64
	queue    []msg.ClientRequest
	deadline *Outstanding
}

func newProposals(s *Shell, a Agreement) *Proposals {
	return &Proposals{
		s:        s,
		accept:   a.Accept,
		overdue:  a.Overdue,
		majority: a.MajorityAccept,
		proposed: make(map[int64]msg.Value),
		deadline: NewOutstanding(TimerAcceptDeadline, s.Cfg.AcceptTimeout),
	}
}

// Propose assigns v the next free instance and sends its accept.
func (p *Proposals) Propose(v msg.Value) {
	if p.majority {
		// A rival leader's accepts may have decided the instance here:
		// Resend would drop a proposal there unsent, and the client's
		// retries with it as duplicates of a proposal nobody drives.
		for p.s.log.Learned(p.next) {
			p.next++
		}
	}
	in := p.next
	p.next++
	p.proposed[in] = v
	p.Resend(in)
}

// Resend sends instance in's accept again and restarts its age on the
// deadline — unless nothing is proposed there or in is learned.
func (p *Proposals) Resend(in int64) {
	v, ok := p.proposed[in]
	if !ok || p.s.log.Learned(in) {
		return
	}
	p.accept(in, v)
	p.deadline.Sent(p.s.Ctx, in)
}

// Queue holds a client's admitted entries until this node leads (Lead
// proposes them) or a leader takes them (ForwardQueue). The entries are
// folded into a request of their own: a single command's entry is the
// session table's scratch, valid only until the next Screen.
func (p *Proposals) Queue(client msg.NodeID, ack uint64, entries []msg.BatchEntry) {
	p.queue = append(p.queue, msg.NewRequest(client, ack, entries))
}

// Queued reports how many requests wait for leadership.
func (p *Proposals) Queued() int { return len(p.queue) }

// ForwardQueue hands every queued request to leader, which marks its
// entries its own and answers; this node gives their origin marks away.
// A leader that is this node or nobody leaves the queue as it is.
func (p *Proposals) ForwardQueue(leader msg.NodeID) {
	if leader == p.s.Me || leader == msg.Nobody {
		return
	}
	queue := p.queue
	p.queue = nil
	for _, req := range queue {
		p.s.Disown(msg.Value(req))
		p.s.Ctx.Send(leader, req)
	}
}

// Register records carried-over proposals (a takeover's, a regime
// change's) so that leading re-proposes them rather than fresh values
// (Appendix A registerProposals). Learned instances are skipped.
func (p *Proposals) Register(carried []msg.Proposal) {
	for _, c := range carried {
		if p.s.log.Learned(c.Instance) {
			continue
		}
		p.proposed[c.Instance] = c.Value
		p.next = max(p.next, c.Instance+1)
	}
}

// Install adopts a regime frontier: every instance below it was decided
// elsewhere, so it is never no-op filled or given to a fresh proposal.
// carried is the complete list of proposals still live below it; any
// other proposal this node holds there is a deposed leftover that must
// not reach a fresh acceptor.
func (p *Proposals) Install(frontier int64, carried []msg.Proposal) {
	p.floor = max(p.floor, frontier)
	p.next = max(p.next, p.floor)
	p.dropBelow(p.floor)
	p.Register(carried)
}

// Lead takes leadership. floor is the winning round's compaction floor
// (a stale local proposal below it would survive Register — the
// acceptor reports nothing it compacted — so it goes) and carried the
// proposals the round reported accepted. Every instance from the apply
// frontier up to the next free one is then settled: gaps at or above
// the no-op floor get no-ops, and every unlearned one is re-sent. The
// queued requests follow, less what has committed meanwhile.
func (p *Proposals) Lead(floor int64, carried []msg.Proposal) {
	p.floor = max(p.floor, floor)
	p.dropBelow(floor)
	p.Register(carried)
	log := p.s.log
	resume := log.LearnedFrontier()
	if p.majority {
		resume = log.NextToApply()
	}
	p.next = max(p.next, p.floor, resume)
	for in := max(log.NextToApply(), p.floor); in < p.next; in++ {
		if _, ok := p.proposed[in]; !ok && !log.Learned(in) {
			p.proposed[in] = msg.Value{Client: msg.Nobody, Cmd: msg.Command{Op: msg.OpNoop}}
		}
	}
	for in := log.NextToApply(); in < p.next; in++ {
		p.Resend(in)
	}
	queue := p.queue
	p.queue = nil
	for _, req := range queue {
		if keep := p.s.Sessions.Unseen(msg.Value(req)); len(keep) > 0 {
			p.Propose(msg.NewValue(req.Client, req.Ack, keep))
		}
	}
}

// Unlearned lists the proposals this node has not seen learned, under
// proposal number pn: what an acceptor change carries so the next
// adoption re-proposes them (Section 5.2).
func (p *Proposals) Unlearned(pn uint64) []msg.Proposal {
	out := make([]msg.Proposal, 0, len(p.proposed))
	for in, v := range p.proposed {
		if !p.s.log.Learned(in) {
			out = append(out, msg.Proposal{Instance: in, PN: pn, Value: v})
		}
	}
	return out
}

// Depose gives every proposal up on evidence of a newer leader, which
// finishes the unlearned ones (its prepare adopts whatever an acceptor
// took): their reply duty is released, so a client's retry is admitted
// again wherever it lands, and the accept deadline is cleared.
func (p *Proposals) Depose() {
	for in, v := range p.proposed {
		if !p.s.log.Learned(in) {
			p.s.Disown(v)
		}
	}
	clear(p.proposed)
	p.deadline.Clear()
}

func (p *Proposals) dropBelow(floor int64) {
	for in := range p.proposed {
		if in < floor {
			delete(p.proposed, in)
		}
	}
}

// The engine's Frontier, OnApply and OnRestore.

// frontier covers everything this leader may commit, carried-over
// proposals not yet re-learned included.
func (p *Proposals) frontier() int64 { return p.next }

func (p *Proposals) applied(e rsm.Entry) {
	delete(p.proposed, e.Instance)
	p.deadline.Done(e.Instance)
}

// restored raises the no-op floor and the next free instance to a
// snapshot's frontier: its instances were decided while this replica
// was gone. Unlike Install it drops nothing — the floor may already
// stand above the snapshot, over proposals a regime carried.
func (p *Proposals) restored(last int64) {
	p.floor = max(p.floor, last+1)
	p.next = max(p.next, last+1)
}

func (p *Proposals) handleTimer(ctx runtime.Context, tag runtime.TimerTag) bool {
	if tag.Kind != TimerAcceptDeadline {
		return false
	}
	if overdue := p.deadline.Expire(ctx, p.s.log.Learned); len(overdue) > 0 {
		p.overdue(overdue)
	}
	return true
}
