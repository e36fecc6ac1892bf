// Package client is the one pipelined client of a replicated service:
// send, wait for the commit ACK, and on a timeout "send their requests
// to other nodes" (Sections 7.1 and 7.6 of the paper), generalized to a
// window of outstanding commands, command batching and a fast-read
// lane.
//
// A Lane is that client toward one agreement group, written once. It is
// a plain struct with no mutex and no goroutine, owned by one node: its
// methods run on that node's callback goroutine, take the callback's
// runtime.Context, and send and arm what they decide themselves — the
// message first, then the timer. The only fields another goroutine may
// read are the atomic counters. The two front ends are the root
// package's blocking Put/Get adapter and internal/workload's simulator
// load source. See DESIGN.md, "The client".
package client

import (
	"math"
	"sync/atomic"
	"time"

	"consensusinside/internal/metrics"
	"consensusinside/internal/msg"
	"consensusinside/internal/readpath"
	"consensusinside/internal/runtime"
	"consensusinside/internal/seqwin"
	"consensusinside/internal/shard"
	"consensusinside/internal/trace"
)

// The lane's timer kinds, the only ones a client arms besides its front
// end's own (from TimerFrontEnd up). They are namespaced high so a
// composite node can route them next to a replica's kinds: every client
// timer has Kind >= TimerRetry. Arg is the lane's shard index.
const (
	TimerRetry     = 900 + iota // the oldest outstanding write transmission is due
	TimerReadRetry              // the oldest outstanding read request is due
	TimerFrontEnd               // first kind free for a front end
)

// MaxReadCoalesce caps how many queued reads one ReadRequest carries;
// MaxReadRequests caps how many ReadRequests are outstanding at once.
// Reads never occupy a consensus instance, so the window is not for
// correctness — it is backpressure: while it is full, arriving reads
// pool in the queue and leave as a few large requests instead of a
// stream of tiny ones, amortizing the per-message cost on both sides.
const (
	MaxReadCoalesce = 128
	MaxReadRequests = 2
)

// Config parameterizes a Lane. The front ends validate and default
// these (rsm.CheckPipeline); the lane only clamps Window.
type Config struct {
	ID      msg.NodeID   // the client's node id
	Servers []msg.NodeID // the group's replicas in rotation order, first preferred
	Shard   int          // tags every seq (shard.TagSeq) and every timer's Arg

	Retry    time.Duration // resend a transmission unanswered this long
	Window   int           // most writes in flight
	Adaptive bool          // size batches from demand, at most half the window; off = one write per request

	ReadMode readpath.Mode // the Mode fast-path ReadRequests carry
	Tracer   *trace.Tracer // nil or interval 0 = off
}

// Op is one command on its way through the lane: queued by a front end,
// then in flight under a sequence number until a reply or its deadline.
type Op[T any] struct {
	Cmd      msg.Command
	Deadline time.Duration // on the runtime clock: when the scans give up on the op; 0 = never
	EnqWall  time.Duration // tracer wall clock at queue entry, for trace.Begin (0 = not stamped)
	SentAt   time.Duration // last transmission on the runtime clock, set by the lane
	User     T             // the front end's own per-op state; the lane never looks inside
}

// Status is what a reply did to the op it names.
type Status int

const (
	// Stale: no such op in flight — a duplicate, or the answer to a
	// retried transmission that already completed — or a refusal that
	// names no other replica, which counts as a lost reply: the op stays
	// in flight and the retry scan resends it.
	Stale Status = iota
	// Done: the op left the lane with the reply's result.
	Done
	// Redirected: the replica named a better one and the cursor is
	// re-aimed. A write stays in flight and goes out again at the next
	// Scan; a read is back at the front of the queue for PumpReads.
	Redirected
)

// resendNow is the SentAt of a redirected write: overdue at the next
// Scan whatever the clock reads.
const resendNow = time.Duration(math.MinInt64 / 2)

// readOp is one in-flight fast-path read; batch names the ReadRequest
// it travelled in.
type readOp[T any] struct {
	Op[T]
	batch uint64
}

// readBatch is the retry unit of the read lane: one ReadRequest's worth
// of reads, holding the consecutive read seqs [first, first+n).
type readBatch struct {
	id     uint64
	first  uint64
	n      int
	live   int           // reads of this batch still in flight
	sentAt time.Duration // last transmission
}

// Lane is one client's pipelined state toward one agreement group. It
// belongs to one node's callback goroutine and must not be copied.
//
// Invariants: every seq is shard.TagSeq(Shard, k), k = 1, 2, ... per
// kind — reads count separately, so they never punch holes in the dense
// write sequence the replicas' session tables track; a resend carries
// the op's original seq and command; a write request's Ack is the
// lowest write seq still in flight; a kind's retry timer is armed
// exactly while that kind has something in flight.
type Lane[T any] struct {
	id       msg.NodeID
	shard    int
	servers  []msg.NodeID
	retry    time.Duration
	window   int
	batch    int // the batch cap: 1, or half the window when adaptive
	readMode readpath.Mode
	tracer   *trace.Tracer

	// The counters: written by the owning node only, readable from any
	// goroutine. Occ is the occupancy of the write requests issued;
	// MaxInFlight the deepest the write window got. Retries counts
	// commands resent after a timeout, Redirects replies that re-aimed a
	// cursor, Timeouts ops failed at their deadline (a front end adds
	// those that expire in its own queue). WriteGrows and ReadGrows count
	// doublings of the two in-flight rings: both start at full depth, so
	// a growth means one op stayed outstanding while a ring's worth of
	// newer ones retired past it.
	Occ         metrics.BatchOccupancy
	MaxInFlight atomic.Int64
	Retries     atomic.Int64
	Redirects   atomic.Int64
	Timeouts    atomic.Int64
	WriteGrows  atomic.Int64
	ReadGrows   atomic.Int64

	seq     uint64
	flights seqwin.Window[Op[T]] // by seq; Low is the ack floor
	target  int
	reaimed bool // a redirect aimed target since the last resend
	armed   bool // the write retry timer is pending

	readSeq     uint64
	readQueue   []Op[T]
	requeued    []Op[T]                  // redirected reads, in reply order, bound for the queue's front
	reads       seqwin.Window[readOp[T]] // by read seq
	readBatches []readBatch              // outstanding requests, oldest first
	readBatchID uint64
	readTarget  int
	readArmed   bool // the read retry timer is pending

	one [1]msg.BatchEntry // Issue's entries for a single op; NewRequest copies the single form
}

// New builds an idle lane.
func New[T any](cfg Config) *Lane[T] {
	window := max(cfg.Window, 1)
	batch := 1 // the paper's one command per instance
	if cfg.Adaptive {
		// Never the whole window in one instance: half keeps two instances
		// pipelined under saturation, one in its accept phase while the
		// previous applies and replies.
		batch = (window + 1) / 2
	}
	base := shard.TagSeq(cfg.Shard, 0)
	l := &Lane[T]{
		id:       cfg.ID,
		shard:    cfg.Shard,
		servers:  append([]msg.NodeID(nil), cfg.Servers...),
		retry:    cfg.Retry,
		window:   window,
		batch:    batch,
		readMode: cfg.ReadMode,
		tracer:   cfg.Tracer,
		seq:      base,
		readSeq:  base,
	}
	l.flights = seqwin.New[Op[T]](base+1, window, &l.WriteGrows)
	l.reads = seqwin.New[readOp[T]](base+1, MaxReadCoalesce*MaxReadRequests, &l.ReadGrows)
	return l
}

// InFlight reports the writes in flight.
func (l *Lane[T]) InFlight() int { return l.flights.Len() }

// Free reports the write window's free slots.
func (l *Lane[T]) Free() int { return l.window - l.flights.Len() }

// Admit is the admission rule: how many of pending waiting commands to
// issue as one request — one consensus instance — into free window
// slots right now. Zero means hold.
//
// A full batch (1; adaptive: half the window) always goes. Short of one
// because the slots are short — more is pending than they admit — the
// lane holds: replies are coming, replicas answer a batch in one
// message, the slots free together and the next call admits a full
// batch. Without the hold one single-command instance begets one freed
// slot begets the next single, and the batcher never leaves
// single-command batches. Short of one because the demand is, it goes
// out as it is.
func (l *Lane[T]) Admit(free, pending int) int {
	n := min(free, pending, l.batch)
	if n <= 0 || n < l.batch && pending > n {
		return 0
	}
	return n
}

// timer is the lane's tag for one of its timer kinds.
func (l *Lane[T]) timer(kind int) runtime.TimerTag {
	return runtime.TimerTag{Kind: kind, Arg: int64(l.shard)}
}

// Issue puts ops in flight under the lane's next seqs and sends the one
// request that carries them. A batch's entries slice is the one
// per-batch allocation on this path; it cannot be pooled — it becomes
// Value.Batch and is retained in every replica's log history. A single
// op's entry is folded into the request itself, so it goes through a
// scratch slice, and the request travels in a pooled box
// (msg.BoxRequest): a batch-1 Issue allocates nothing.
func (l *Lane[T]) Issue(ctx runtime.Context, now time.Duration, ops []Op[T]) {
	traceOn := l.tracer.Enabled()
	entries := l.one[:]
	if len(ops) != 1 {
		entries = make([]msg.BatchEntry, len(ops))
	}
	for i := range ops {
		l.seq++
		f := l.flights.Slot(l.seq)
		*f = ops[i]
		f.SentAt = now
		entries[i] = msg.BatchEntry{Seq: l.seq, Cmd: f.Cmd}
		if traceOn {
			l.tracer.Begin(l.id, l.seq, now, f.EnqWall, now)
		}
	}
	if n := int64(l.flights.Len()); n > l.MaxInFlight.Load() {
		l.MaxInFlight.Store(n)
	}
	l.Occ.Record(len(ops))
	ctx.Send(l.servers[l.target], msg.BoxRequest(msg.NewRequest(l.id, l.flights.Low(), entries)))
	if !l.armed {
		l.armed = true
		ctx.After(l.retry, l.timer(TimerRetry))
	}
}

// Retire applies one write reply. Done returns what the front end needs
// of the op, now out of the window: its User and its last transmission.
// After a Redirected the front end runs Scan, which resends the op to
// the replica the reply named.
func (l *Lane[T]) Retire(now time.Duration, r *msg.ClientReply) (user T, sentAt time.Duration, st Status) {
	f := l.flights.Ptr(r.Seq)
	if f == nil || !r.OK && r.Redirect == msg.Nobody {
		return user, 0, Stale
	}
	if !r.OK {
		l.aim(&l.target, r.Redirect)
		l.reaimed = true
		l.Redirects.Add(1)
		f.SentAt = resendNow
		return user, 0, Redirected
	}
	user, sentAt = f.User, f.SentAt
	l.flights.Delete(r.Seq)
	if l.tracer.Enabled() {
		l.tracer.Finish(l.id, r.Seq, now)
	}
	return user, sentAt, Done
}

// aim points a cursor at server if it is one of the lane's replicas (a
// redirect naming a node outside the group is ignored).
func (l *Lane[T]) aim(cursor *int, server msg.NodeID) {
	for i, s := range l.servers {
		if s == server {
			*cursor = i
		}
	}
}

// Scan sweeps the write window, in seq order so the simulator replays it
// deterministically. Flights past their deadline leave it and are
// returned for the front end to fail. Everything overdue — unanswered
// Retry after its last transmission, or redirected — is resent as ONE
// request under the original seqs (the replicas' session dedupe
// reconciles it with any still-live copy), after ONE rotation of the
// cursor when it was a timeout: suspect the server, try the next. tick
// says the retry timer just fired; the scan re-arms it to sleep until
// the oldest outstanding transmission is due, or lets it die with the
// lane idle. A scan that finds nothing overdue allocates nothing.
func (l *Lane[T]) Scan(ctx runtime.Context, now time.Duration, tick bool) (expired []Op[T]) {
	if tick {
		l.armed = false
	}
	oldest := now
	var resend []msg.BatchEntry
	for seq, f := range l.flights.All() {
		switch {
		case f.Deadline > 0 && now >= f.Deadline:
			expired = append(expired, *f)
			l.flights.Delete(seq)
		case now-f.SentAt >= l.retry:
			f.SentAt = now
			resend = append(resend, msg.BatchEntry{Seq: seq, Cmd: f.Cmd})
		case f.SentAt < oldest:
			oldest = f.SentAt
		}
	}
	l.Timeouts.Add(int64(len(expired)))
	if len(resend) > 0 {
		if !l.reaimed {
			l.target = (l.target + 1) % len(l.servers)
			l.Retries.Add(int64(len(resend)))
		}
		l.reaimed = false
		ctx.Send(l.servers[l.target], msg.BoxRequest(msg.NewRequest(l.id, l.flights.Low(), resend)))
	}
	if !l.armed && l.flights.Len() > 0 {
		l.armed = true
		ctx.After(oldest+l.retry-now, l.timer(TimerRetry))
	}
	return expired
}

// QueueRead appends a fast-path read to the read queue. Reads ride a
// lane of their own: they never enter the replicated log, so they never
// touch the write batcher, the pipeline window or the write seqs.
func (l *Lane[T]) QueueRead(op Op[T]) { l.readQueue = append(l.readQueue, op) }

// ReadsOutstanding reports the reads the lane holds, queued or in
// flight.
func (l *Lane[T]) ReadsOutstanding() int {
	return len(l.readQueue) + len(l.requeued) + l.reads.Len()
}

// PumpReads coalesces the queued reads (up to MaxReadCoalesce) into one
// ReadRequest and sends it, while fewer than MaxReadRequests are
// outstanding; the front end calls it until it reports false. Under
// readpath.Follower the target rotates per request — spreading reads
// across the replicas is that mode's whole point; the confirmed modes
// stay on the replica that last answered (redirects re-aim them). The
// entries go straight into a pooled ReadRequest box, and what stays
// queued is copied down to the front, so the queue keeps its backing
// array: a steady stream of reads allocates nothing here.
func (l *Lane[T]) PumpReads(ctx runtime.Context, now time.Duration) bool {
	if len(l.requeued) > 0 {
		l.readQueue = append(l.requeued, l.readQueue...)
		l.requeued = nil
	}
	if len(l.readQueue) == 0 || len(l.readBatches) >= MaxReadRequests {
		return false
	}
	n := min(len(l.readQueue), MaxReadCoalesce)
	l.readBatchID++
	l.readBatches = append(l.readBatches, readBatch{id: l.readBatchID, first: l.readSeq + 1, n: n, live: n, sentAt: now})
	req := msg.DrawReadRequest(l.id, int(l.readMode))
	for i := range n {
		l.readSeq++
		p := l.reads.Slot(l.readSeq)
		p.Op, p.batch = l.readQueue[i], l.readBatchID
		req.Entries = append(req.Entries, msg.BatchEntry{Seq: l.readSeq, Cmd: p.Cmd})
	}
	kept := copy(l.readQueue, l.readQueue[n:])
	clear(l.readQueue[kept:]) // release the sent ops' commands and users
	l.readQueue = l.readQueue[:kept]
	if l.readMode == readpath.Follower {
		l.readTarget = (l.readTarget + 1) % len(l.servers)
	}
	ctx.Send(l.servers[l.readTarget], req)
	if !l.readArmed {
		l.readArmed = true
		ctx.After(l.retry, l.timer(TimerReadRetry))
	}
	return true
}

// RetireRead applies one fast-path read reply. Done returns the read's
// User and the last transmission of the request it travelled in. A
// redirect — the serving replica is not the leader, or is still
// recovering — re-aims the read cursor and puts the read back at the
// front of the queue with its original deadline, so redirect chases
// stay bounded; the front end's next PumpReads resends it.
func (l *Lane[T]) RetireRead(r *msg.ReadReply) (user T, sentAt time.Duration, st Status) {
	p := l.reads.Ptr(r.Seq)
	if p == nil || !r.OK && r.Redirect == msg.Nobody {
		return user, 0, Stale
	}
	for i := range l.readBatches {
		if b := &l.readBatches[i]; b.id == p.batch {
			sentAt = b.sentAt
			if b.live--; b.live == 0 {
				l.readBatches = append(l.readBatches[:i], l.readBatches[i+1:]...)
			}
			break
		}
	}
	user, st = p.User, Done
	if !r.OK {
		l.aim(&l.readTarget, r.Redirect)
		l.Redirects.Add(1)
		l.requeued = append(l.requeued, p.Op)
		st = Redirected
	}
	l.reads.Delete(r.Seq)
	return user, sentAt, st
}

// ScanReads is the read retry timer's tick: reads past their deadline —
// in an overdue request or still queued behind the full window — are
// returned for the front end to fail, and every overdue request's
// surviving reads are resent under their seqs after one rotation of the
// read cursor. The scan re-arms the timer to sleep until the oldest
// outstanding request is due; it dies when none is. Requests are kept
// oldest first (deterministic replay), and a tick that finds nothing
// overdue allocates nothing.
func (l *Lane[T]) ScanReads(ctx runtime.Context, now time.Duration) (expired []Op[T]) {
	oldest := now
	var resend [MaxReadRequests]*msg.ReadRequest
	resends := 0
	kept := l.readBatches[:0]
	for _, b := range l.readBatches {
		if now-b.sentAt < l.retry {
			oldest = min(oldest, b.sentAt)
			kept = append(kept, b)
			continue
		}
		req := msg.DrawReadRequest(l.id, int(l.readMode))
		for seq := b.first; seq < b.first+uint64(b.n); seq++ {
			op := l.reads.Ptr(seq)
			if op == nil {
				continue
			}
			if op.Deadline > 0 && now >= op.Deadline {
				expired = append(expired, op.Op)
				l.reads.Delete(seq)
				b.live--
				continue
			}
			req.Entries = append(req.Entries, msg.BatchEntry{Seq: seq, Cmd: op.Cmd})
		}
		if len(req.Entries) == 0 {
			msg.Release(req) // never sent: the lane is its last holder
			continue
		}
		b.sentAt = now
		kept = append(kept, b)
		resend[resends] = req
		resends++
		l.Retries.Add(int64(len(req.Entries)))
	}
	l.readBatches = kept
	queued := l.readQueue[:0]
	for _, op := range l.readQueue {
		if op.Deadline > 0 && now >= op.Deadline {
			expired = append(expired, op)
			continue
		}
		queued = append(queued, op)
	}
	l.readQueue = queued
	l.Timeouts.Add(int64(len(expired)))
	if resends > 0 {
		l.readTarget = (l.readTarget + 1) % len(l.servers)
	}
	for _, req := range resend[:resends] {
		ctx.Send(l.servers[l.readTarget], req)
	}
	l.readArmed = len(l.readBatches) > 0
	if l.readArmed {
		ctx.After(oldest+l.retry-now, l.timer(TimerReadRetry))
	}
	return expired
}

// Drain empties the lane — both windows and the read queue — and
// returns every op it held, for a front end that is shutting down.
func (l *Lane[T]) Drain() []Op[T] {
	out := make([]Op[T], 0, l.flights.Len()+l.ReadsOutstanding())
	for _, f := range l.flights.All() {
		out = append(out, *f)
	}
	l.flights.Advance(l.flights.Next())
	out = append(append(out, l.requeued...), l.readQueue...)
	l.requeued, l.readQueue = nil, nil
	for _, r := range l.reads.All() {
		out = append(out, r.Op)
	}
	l.reads.Advance(l.reads.Next())
	l.readBatches = nil
	return out
}
