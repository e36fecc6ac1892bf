package consensusinside

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"consensusinside/internal/client"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/readpath"
	"consensusinside/internal/runtime"
	"consensusinside/internal/trace"
)

// submitMsg wakes the bridge node to drain its pending queue.
type submitMsg struct{}

// Kind implements msg.Message.
func (submitMsg) Kind() string { return "kv_submit" }

// kvOp is one Put or Get on its way through a shard's lane; what the
// bridge needs back when the lane finishes it is the channel its caller
// blocks on.
type kvOp = client.Op[chan kvResult]

type kvResult struct {
	value string
	err   error
}

// kvDonePool recycles the one-shot result channels callers block on.
// Every op's channel receives exactly one send (the op leaves its queue
// or window before the send, on every path), so after the caller's
// receive the channel is empty and safe to reuse.
var kvDonePool = sync.Pool{New: func() any { return make(chan kvResult, 1) }}

var errKVClosed = errors.New("consensusinside: service closed")

// kvBridge is the blocking front end of the one client
// (internal/client): a Handler that turns synchronous Put/Get calls
// from any goroutine into ops on its shard's lane. It owns only what
// blocking callers need — the hand-off, the result channels, the
// RequestTimeout deadlines, closed and the wake-up; the rest is the
// lane's.
//
// Who touches what (DESIGN.md, "The client"): callers touch the
// hand-off fields under mu and nothing else; the bridge node's goroutine
// owns the lane, the write queue and the scratch below them, and takes
// mu once per wake-up to swap the hand-off slice out; readers on other
// goroutines (Collect, KV.BatchStats, KV.MaxInFlight) load the lane's
// atomic counters. close runs after the shard stopped its runtime, so
// the node's state is then its own.
type kvBridge struct {
	inject func(msg.Message)
	tracer *trace.Tracer // shared command tracer; nil or interval 0 = off
	// timeout is KVConfig.RequestTimeout: every op's deadline is this
	// long after the bridge node drains it from the hand-off. The lane's
	// scans enforce deadlines, queued and in flight alike, so callers wait
	// on a bare channel receive with no timer of their own.
	timeout time.Duration
	// fastReads says Gets ride the lane's read queue (any ReadMode but
	// Consensus) instead of the write window.
	fastReads bool

	mu          sync.Mutex
	handoff     []kvOp // ops callers appended since the last wake-up drained it
	wakePending bool   // a submitMsg is already in flight toward the bridge node
	closed      bool   // close ran; new calls fail fast

	// The bridge node's own from here down.
	lane  *client.Lane[chan kvResult]
	spare []kvOp // the hand-off slice drained last, swapped back in at the next drain
	queue []kvOp // writes (and ReadConsensus reads) the window has not admitted yet
	// Scratch for adapting a bare single write reply to the batch finish
	// path without allocating.
	oneReply [1]msg.ClientReply
}

var _ runtime.Handler = (*kvBridge)(nil)

func newKVBridge(cfg client.Config, timeout time.Duration) *kvBridge {
	if cfg.Retry <= 0 {
		cfg.Retry = 250 * time.Millisecond
	}
	return &kvBridge{
		lane:      client.New[chan kvResult](cfg),
		tracer:    cfg.Tracer,
		timeout:   timeout,
		fastReads: cfg.ReadMode != readpath.Consensus,
	}
}

// Collect adds the bridge's counters to s: the proposed-batch occupancy
// ("batch."), how often the lane's two in-flight rings had to double
// ("bridge.*_ring_growths" — a count that keeps rising under steady
// load means a command is pinned outstanding while newer ones retire
// past it), and the lane's three slow paths. Safe from any goroutine:
// every value is one of the lane's atomic counters.
func (b *kvBridge) Collect(s *obs.Snapshot) {
	s.Add("bridge.write_ring_growths", b.lane.WriteGrows.Load())
	s.Add("bridge.read_ring_growths", b.lane.ReadGrows.Load())
	s.Add("bridge.retries", b.lane.Retries.Load())
	s.Add("bridge.redirects", b.lane.Redirects.Load())
	s.Add("bridge.timeouts", b.lane.Timeouts.Load())
	s.AddBatchOccupancy("batch", &b.lane.Occ)
}

// enqueue hands the command to the bridge node, wakes it and waits for
// the result. The wait is a bare receive on a pooled one-shot channel:
// no caller-side timer, no allocation — the hottest per-op caller path
// does nothing but slice-append, channel receive, and channel recycle.
// The lock is held around nothing but the append: with 32 callers
// contending, holding it across one more call measured 5 % off the
// read-heavy mix. On a traced run every op pays one clock read for its
// queue-entry stamp, before the lock; the tracer decides at Begin which
// spans it keeps.
func (b *kvBridge) enqueue(cmd msg.Command) (string, error) {
	done := kvDonePool.Get().(chan kvResult)
	op := kvOp{Cmd: cmd, User: done}
	if b.tracer.Enabled() {
		op.EnqWall = b.tracer.Clock()
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		kvDonePool.Put(done)
		return "", errKVClosed
	}
	b.handoff = append(b.handoff, op)
	wake := !b.wakePending
	b.wakePending = true
	b.mu.Unlock()
	if wake {
		b.inject(submitMsg{})
	}
	res := <-done
	kvDonePool.Put(done)
	return res.value, res.err
}

// drain is the node's side of the hand-off: one lock hold per wake-up
// swaps the slice callers append to for the one drained last, then —
// lock-free — every op gets its deadline (all of them are new: a timeout
// runs from when the bridge first sees the op, not from when a window
// slot frees up, so a saturated window cannot leave queued calls
// deadline-less) and joins the write queue or the lane's read queue.
// Callers arriving after the swap inject a fresh wake-up.
func (b *kvBridge) drain(now time.Duration) {
	b.mu.Lock()
	b.wakePending = false
	ops := b.handoff
	b.handoff = b.spare[:0]
	b.mu.Unlock()
	for i := range ops {
		op := &ops[i]
		if b.timeout > 0 { // no RequestTimeout: ops wait as long as it takes
			op.Deadline = now + b.timeout
		}
		if b.fastReads && op.Cmd.Op == msg.OpGet {
			b.lane.QueueRead(*op)
		} else {
			b.queue = append(b.queue, *op)
		}
	}
	clear(ops) // release the commands and channels
	b.spare = ops
}

// close fails every pending command and every later one. The shard
// calls it after stopping its runtime: with the bridge node gone nothing
// else would ever deliver, callers hold no timer of their own, and the
// node's queue and lane are safe to empty from here.
func (b *kvBridge) close() {
	b.mu.Lock()
	b.closed = true
	pending := b.handoff
	b.handoff = nil
	b.mu.Unlock()
	pending = append(append(pending, b.queue...), b.lane.Drain()...)
	b.queue = nil
	for _, op := range pending {
		op.User <- kvResult{err: errKVClosed}
	}
}

// timedOut fails every op of expired with the service's timeout.
func (b *kvBridge) timedOut(expired []kvOp) {
	for _, op := range expired {
		op.User <- kvResult{err: fmt.Errorf("consensusinside: %s %q timed out after %v", op.Cmd.Op, op.Cmd.Key, b.timeout)}
	}
}

// Start implements runtime.Handler.
func (b *kvBridge) Start(runtime.Context) {}

// Receive implements runtime.Handler. A batched reply retires every
// answered command before the pump runs, so the freed window slots are
// refilled by one full batch instead of one command at a time. Reply
// boxes are read only: the runtime releases them after this returns.
func (b *kvBridge) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case submitMsg:
		// One wake-up takes everything handed off since it was sent.
		now := ctx.Now()
		b.drain(now)
		b.pumpReads(ctx, now)
		b.pump(ctx, now)
	case msg.ClientReply:
		b.oneReply[0] = mm
		b.finishBatch(ctx, b.oneReply[:])
	case *msg.ClientReplyBatch:
		b.finishBatch(ctx, mm.Replies)
	case *msg.ReadReplyBatch:
		b.finishReads(ctx, mm.Replies)
	}
}

// finishBatch retires a batch of write replies, delivering each result
// to its blocked caller — which cannot block: each channel has capacity
// 1 and gets exactly one send — then refills the window. A redirected
// write is resent at once by a scan of the window.
func (b *kvBridge) finishBatch(ctx runtime.Context, replies []msg.ClientReply) {
	now := ctx.Now()
	redirected := false
	for i := range replies {
		switch done, _, _, st := b.lane.Retire(now, &replies[i]); st {
		case client.Done:
			done <- kvResult{value: replies[i].Result}
		case client.Redirected:
			redirected = true
		}
	}
	if redirected {
		b.scan(ctx, now, false)
	} else {
		b.pump(ctx, now)
	}
}

// finishReads retires a batch of fast-path read replies; the pump then
// sends what pooled behind them or a redirect requeued.
func (b *kvBridge) finishReads(ctx runtime.Context, replies []msg.ReadReply) {
	for i := range replies {
		if done, _, st := b.lane.RetireRead(&replies[i]); st == client.Done {
			done <- kvResult{value: replies[i].Result}
		}
	}
	b.pumpReads(ctx, ctx.Now())
}

// Timer implements runtime.Handler: the lane's two timers.
func (b *kvBridge) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	now := ctx.Now()
	switch tag.Kind {
	case client.TimerRetry:
		b.scan(ctx, now, true)
	case client.TimerReadRetry:
		b.timedOut(b.lane.ScanReads(ctx, now))
		b.pumpReads(ctx, now) // expired requests may have freed read-window slots
	}
}

// scan runs the write lane's scan (see client.Lane.Scan) and expires
// the queued writes the saturated window has not admitted yet — they
// carry deadlines too (stamped by drain), so a caller's total wait is
// bounded by its own timeout no matter how long the window sits against
// an unresponsive cluster.
func (b *kvBridge) scan(ctx runtime.Context, now time.Duration, tick bool) {
	expired := b.lane.Scan(ctx, now, tick)
	kept := b.queue[:0]
	for _, op := range b.queue {
		if op.Deadline > 0 && now >= op.Deadline {
			expired = append(expired, op)
			b.lane.Timeouts.Add(1)
			continue
		}
		kept = append(kept, op)
	}
	b.queue = kept
	b.timedOut(expired)
	b.pump(ctx, now) // expired flights may have freed window slots
}

// pumpReads drains the read queue into ReadRequests, as many as the
// read lane's window admits.
func (b *kvBridge) pumpReads(ctx runtime.Context, now time.Duration) {
	for b.lane.PumpReads(ctx, now) {
	}
}

// pump moves queued commands into the pipeline window, one request —
// one consensus instance — per pass, as many as the lane's admission
// rule takes (see client.Lane.Admit).
// What stays queued is copied down to the front, so the queue keeps its
// backing array and drain's appends do not reallocate it.
func (b *kvBridge) pump(ctx runtime.Context, now time.Duration) {
	sent := 0
	for {
		n := b.lane.Admit(b.lane.Free(), len(b.queue)-sent)
		if n == 0 {
			break
		}
		b.lane.Issue(ctx, now, b.queue[sent:sent+n])
		sent += n
	}
	if sent > 0 {
		kept := copy(b.queue, b.queue[sent:])
		clear(b.queue[kept:]) // release the issued commands and channels
		b.queue = b.queue[:kept]
	}
}
