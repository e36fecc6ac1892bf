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

// Config parameterizes a Replica.
type Config struct {
	// ID is this node; Replicas is the group in a fixed shared order.
	// Replica k owns instances i with i mod len(Replicas) == k.
	ID       msg.NodeID
	Replicas []msg.NodeID

	// Applier is the replicated state machine; nil means a fresh KV.
	Applier rsm.Applier

	// AcceptTimeout paces the recovery subsystem's catch-up retries
	// (the common-case protocol itself is timer-free).
	AcceptTimeout time.Duration

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

	// ReadMode selects the read fast path (internal/readpath). Mencius
	// is leaderless, so any replica serves read-index rounds: a quorum
	// of peers reports the highest instance each has seen accepted, and
	// quorum intersection covers every committed write. Lease mode
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

// Replica is one Mencius node: owner-proposer for its instance share,
// acceptor and learner for all instances.
type Replica struct {
	cfg      Config
	me       msg.NodeID
	replicas []msg.NodeID
	idx      int
	quorum   int
	ctx      runtime.Context

	nextOwned int64 // lowest owned instance not yet proposed or skipped
	proposed  map[int64]msg.Value

	votes    map[int64]map[msg.NodeID]bool
	log      *rsm.Log
	sessions *rsm.Sessions
	snap     *snapshot.Manager
	read     *readpath.Server

	// seen is one past the highest instance this node has observed an
	// accept, learn or skip for — the frontier a read-index ack reports.
	// It must track *accepted* instances, not just learned ones: a
	// committed write has crossed a quorum of acceptors, but may not
	// have gathered this node's learn majority yet.
	seen int64

	commits int64
	skips   int64
}

var _ runtime.Handler = (*Replica)(nil)

// New builds a Replica; it panics on malformed configuration.
func New(cfg Config) *Replica {
	if len(cfg.Replicas) < 3 {
		panic("mencius: need at least three replicas")
	}
	idx := -1
	for i, id := range cfg.Replicas {
		if id == cfg.ID {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("mencius: node %d not in replica set %v", cfg.ID, cfg.Replicas))
	}
	applier := cfg.Applier
	if applier == nil {
		applier = rsm.NewKV()
	}
	r := &Replica{
		cfg:       cfg,
		me:        cfg.ID,
		replicas:  append([]msg.NodeID(nil), cfg.Replicas...),
		idx:       idx,
		quorum:    len(cfg.Replicas)/2 + 1,
		nextOwned: int64(idx),
		proposed:  make(map[int64]msg.Value),
		votes:     make(map[int64]map[msg.NodeID]bool),
		sessions:  rsm.NewSessions(),
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
		RetryTimeout: 2 * cfg.AcceptTimeout,
	}, r.log, r.sessions, applier)
	r.snap.OnRestore(func(last int64) {
		// Ownership must resume above the restored frontier: re-proposing
		// an owned instance the group decided while this replica was gone
		// would decide it twice (ownership replaces proposal numbers).
		n := int64(len(r.replicas))
		next := last + 1
		if rem := ((int64(r.idx)-next)%n + n) % n; rem > 0 {
			next += rem
		}
		if next > r.nextOwned {
			r.nextOwned = next
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

// Commits reports applied instances (skips included).
func (r *Replica) Commits() int64 { return r.commits }

// Skips reports how many owned instances this node gave up.
func (r *Replica) Skips() int64 { return r.skips }

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

// Timer implements runtime.Handler; the common-case protocol is
// timer-free, so only the recovery subsystem's and read path's timers
// land here.
func (r *Replica) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	r.ctx = ctx
	if r.snap.HandleTimer(ctx, tag) {
		return
	}
	r.read.HandleTimer(ctx, tag)
}

// Receive dispatches one message.
func (r *Replica) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	r.ctx = ctx
	if r.snap.Handle(ctx, from, m) {
		if _, ok := m.(msg.CatchupEntries); ok {
			// Catch-up showed us decided instances past our ownership
			// cursor. Anything of ours below the learned frontier can
			// only be filled by us — the group's applies are stalled on
			// exactly those instances while we were gone — so give them
			// up now rather than waiting for a fresh foreign accept.
			r.skipBelow(r.log.LearnedFrontier())
		}
		return
	}
	if r.read.Handle(ctx, from, m) {
		return
	}
	switch mm := m.(type) {
	case msg.ClientRequest:
		r.onClientRequest(mm)
	case msg.MencAccept:
		r.onAccept(from, mm)
	case msg.MencLearn:
		r.onLearn(mm)
	case msg.MencSkip:
		r.onSkip(mm)
	}
}

// onClientRequest proposes the command at this node's next owned
// instance — every replica is a leader for its share (the Mencius
// load-spreading idea).
func (r *Replica) onClientRequest(req msg.ClientRequest) {
	if r.snap.CatchingUp() {
		return // recovering: must not propose owned instances yet
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
	in := r.nextOwned
	r.nextOwned += int64(len(r.replicas))
	r.observe(in)
	v := msg.NewValue(req.Client, req.Ack, entries)
	r.proposed[in] = v
	for _, id := range r.replicas {
		r.ctx.Send(id, msg.MencAccept{Instance: in, PN: 1, Value: v})
	}
}

// onAccept is the acceptor role: instance ownership replaces proposal
// numbers (only the owner may propose its instances), so the accept is
// taken directly and echoed to all learners.
func (r *Replica) onAccept(from msg.NodeID, m msg.MencAccept) {
	r.observe(m.Instance)
	r.skipBelow(m.Instance)
	for _, id := range r.replicas {
		r.ctx.Send(id, msg.MencLearn{Instance: m.Instance, Value: m.Value, From: r.me})
	}
	_ = from
}

// onLearn is the learner role: majority acceptance decides.
func (r *Replica) onLearn(m msg.MencLearn) {
	r.observe(m.Instance)
	if r.log.Learned(m.Instance) {
		return
	}
	byNode, ok := r.votes[m.Instance]
	if !ok {
		byNode = make(map[msg.NodeID]bool)
		r.votes[m.Instance] = byNode
	}
	byNode[m.From] = true
	if len(byNode) >= r.quorum {
		delete(r.votes, m.Instance)
		r.log.Learn(m.Instance, m.Value)
		// A hole below this learn may be a dropped-learn gap that live
		// traffic will never refill; arm the stall watchdog.
		r.snap.WatchGap(r.ctx)
	}
}

// onSkip applies an owner's authoritative no-op fill for its own unused
// instances: only the owner may propose there, so its skip decides.
func (r *Replica) onSkip(m msg.MencSkip) {
	r.observe(m.ToInstance - 1)
	n := int64(len(r.replicas))
	for in := m.FromInstance; in < m.ToInstance; in += n {
		if !r.log.Learned(in) {
			r.log.Learn(in, msg.Value{Client: msg.Nobody, Cmd: msg.Command{Op: msg.OpNoop}})
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
	n := int64(len(r.replicas))
	for r.nextOwned < observed {
		r.skips++
		r.nextOwned += n
	}
	skip := msg.MencSkip{FromInstance: from, ToInstance: observed, From: r.me}
	for _, id := range r.replicas {
		r.ctx.Send(id, skip)
	}
}

func (r *Replica) onApply(e rsm.Entry, results []string) {
	r.commits++
	defer r.snap.AfterApply() // skip noops advance the snapshot cadence too
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
