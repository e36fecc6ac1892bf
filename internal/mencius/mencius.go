// Package mencius implements Mencius (Mao, Junqueira, Marzullo — OSDI
// 2008) as the paper's Section 8 discusses it: a multi-leader derivative
// of Multi-Paxos that partitions the instance space round-robin across
// replicas so that every replica leads its own share of instances and
// client load spreads across all leaders.
//
// The variant here is the common-case protocol: fixed instance ownership,
// accept broadcast by the owner, majority learning, and the *skip* rule —
// an owner that observes a higher foreign instance gives up its unused
// smaller instances so the log never waits on an idle leader. Leader
// revocation (stealing a crashed owner's instances) is out of scope; the
// package exists to quantify the related-work comparison: Mencius removes
// the single-leader funnel, but every agreement still crosses all
// acceptors — the per-commit message count 1Paxos halves is untouched
// ("Mencius could also benefit from the main insight of 1Paxos").
package mencius

import (
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/replica"
	"consensusinside/internal/runtime"
)

// Replica is one Mencius node: owner-proposer for its instance share,
// acceptor and learner for all instances. Replica k of the group owns
// instances i with i mod len(Replicas) == k. The embedded shell owns the
// learner log, sessions, recovery and the read path; the common-case
// protocol is timer-free, so Start and Timer are the shell's.
type Replica struct {
	replica.Shell

	nextOwned int64 // lowest owned instance not yet proposed or skipped

	// seen is one past the highest instance this node has observed an
	// accept, learn or skip for — the frontier a read-index ack reports.
	// It must track *accepted* instances, not just learned ones: a
	// committed write has crossed a quorum of acceptors, but may not
	// have gathered this node's learn majority yet.
	seen int64

	skips int64
}

var _ runtime.Handler = (*Replica)(nil)

// New builds a Replica from a configuration protocol.Build validated.
// AcceptTimeout only paces the recovery subsystem's catch-up retries.
func New(cfg protocol.Config) *Replica {
	r := &Replica{}
	// Leaderless: any replica serves read-index rounds. A quorum of peers
	// reports the highest instance each has seen accepted, and quorum
	// intersection covers every committed write. Lease mode degrades to
	// read-index — there is no leader for a lease to bind.
	r.Init(cfg, replica.Agreement{
		Frontier: func() int64 { return r.seen },
		OnRestore: func(last int64) {
			// Ownership must resume above the restored frontier: re-proposing
			// an owned instance the group decided while this replica was gone
			// would decide it twice (ownership replaces proposal numbers).
			n := int64(len(r.Replicas))
			next := last + 1
			if rem := ((int64(r.Index)-next)%n + n) % n; rem > 0 {
				next += rem
			}
			if next > r.nextOwned {
				r.nextOwned = next
			}
		},
	})
	r.nextOwned = int64(r.Index)
	return r
}

// observe advances the seen frontier past instance in.
func (r *Replica) observe(in int64) {
	if in+1 > r.seen {
		r.seen = in + 1
	}
}

// Skips reports how many owned instances this node gave up.
func (r *Replica) Skips() int64 { return r.skips }

// Receive dispatches one message.
func (r *Replica) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	if r.Route(ctx, from, m) {
		if _, ok := m.(msg.CatchupEntries); ok {
			// Catch-up showed us decided instances past our ownership
			// cursor. Anything of ours below the learned frontier can
			// only be filled by us — the group's applies are stalled on
			// exactly those instances while we were gone — so give them
			// up now rather than waiting for a fresh foreign accept.
			r.skipBelow(r.Log().LearnedFrontier())
		}
		return
	}
	switch mm := msg.Boxed(m).(type) {
	case *msg.ClientRequest:
		r.onClientRequest(mm)
	case *msg.Accept:
		r.onAccept(from, mm)
	case msg.Accepted:
		r.onAccepted(mm)
	case msg.MencSkip:
		r.onSkip(mm)
	}
}

// onClientRequest proposes the command at this node's next owned
// instance — every replica is a leader for its share (the Mencius
// load-spreading idea).
func (r *Replica) onClientRequest(req *msg.ClientRequest) {
	entries := r.Admit(req)
	if len(entries) == 0 {
		return
	}
	in := r.nextOwned
	r.nextOwned += int64(len(r.Replicas))
	r.observe(in)
	v := msg.NewValue(req.Client, req.Ack, entries)
	for _, id := range r.Replicas {
		r.Ctx.Send(id, msg.DrawAccept(in, 1, v))
	}
}

// onAccept is the acceptor role: instance ownership replaces proposal
// numbers (only the owner may propose its instances), so the accept is
// taken directly and echoed to all learners.
func (r *Replica) onAccept(from msg.NodeID, m *msg.Accept) {
	r.observe(m.Instance)
	r.skipBelow(m.Instance)
	for _, id := range r.Replicas {
		r.Ctx.Send(id, msg.Accepted{Instance: m.Instance, PN: m.PN, Value: m.Value, From: r.Me})
	}
	_ = from
}

// onAccepted is the learner role: majority acceptance decides. Every
// accept carries PN 1 (only the owner proposes), so one tally counts.
func (r *Replica) onAccepted(m msg.Accepted) {
	r.observe(m.Instance)
	r.Vote(m.Instance, m.From, m.PN, m.Value)
}

// onSkip applies an owner's authoritative no-op fill for its own unused
// instances: only the owner may propose there, so its skip decides.
func (r *Replica) onSkip(m msg.MencSkip) {
	r.observe(m.ToInstance - 1)
	n := int64(len(r.Replicas))
	for in := m.FromInstance; in < m.ToInstance; in += n {
		if !r.Log().Learned(in) {
			r.Log().Learn(in, msg.Value{Client: msg.Nobody, Cmd: msg.Command{Op: msg.OpNoop}})
		}
	}
}

// skipBelow gives up this node's owned-but-unused instances below the
// observed foreign instance, so the log never waits on an idle owner
// ("the under-loaded leaders also have to skip their share of the
// instance space", Section 8).
func (r *Replica) skipBelow(observed int64) {
	if r.nextOwned >= observed {
		return
	}
	from := r.nextOwned
	n := int64(len(r.Replicas))
	for r.nextOwned < observed {
		r.skips++
		r.nextOwned += n
	}
	skip := msg.MencSkip{FromInstance: from, ToInstance: observed, From: r.Me}
	for _, id := range r.Replicas {
		r.Ctx.Send(id, skip)
	}
}
