package consensusinside

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"consensusinside/internal/client"
	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
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
// from any goroutine into ops on its shard's lane. External goroutines
// enqueue and poke the node; all protocol interaction happens on the
// node's own goroutine. The bridge owns only what blocking callers
// need — the caller queue, the result channels, the RequestTimeout
// deadlines, closed and the wake-up; the rest is the lane's.
//
// Locking contract (DESIGN.md, "The client"): mu guards the lane, the
// queue and the two flags. Every critical section is lock → lane call
// and the queue bookkeeping around it → unlock; ctx.Send, ctx.After and
// the result deliveries come after the unlock — except write results,
// which cannot block: each channel has capacity 1 and gets exactly one
// send. Nothing blocks and no caller-supplied code runs under mu.
type kvBridge struct {
	inject func(msg.Message)
	tracer *trace.Tracer // shared command tracer; nil or interval 0 = off
	// timeout is KVConfig.RequestTimeout: every op's deadline is this
	// long after a pump first sees it. The lane's scans enforce deadlines,
	// queued and in flight alike, so callers wait on a bare channel
	// receive with no timer of their own.
	timeout time.Duration

	mu          sync.Mutex
	lane        *client.Lane[chan kvResult]
	wakePending bool   // a submitMsg is already in flight toward the bridge node
	queue       []kvOp // writes (and ReadConsensus reads) the window has not admitted yet
	closed      bool   // close ran; new calls on either lane fail fast

	// Scratch for adapting bare single replies to the batch finish
	// paths without allocating; only touched on the bridge node's own
	// goroutine (Receive).
	oneReply [1]msg.ClientReply
	oneRead  [1]msg.ReadReply
}

var _ runtime.Handler = (*kvBridge)(nil)

func newKVBridge(cfg client.Config, timeout time.Duration) *kvBridge {
	if cfg.Retry <= 0 {
		cfg.Retry = 250 * time.Millisecond
	}
	return &kvBridge{lane: client.New[chan kvResult](cfg), tracer: cfg.Tracer, timeout: timeout}
}

// Collect adds the bridge's counters to s: the proposed-batch occupancy
// ("batch."), how often the lane's two in-flight rings had to double
// ("bridge.*_ring_growths" — a count that keeps rising under steady
// load means a command is pinned outstanding while newer ones retire
// past it), and the lane's three slow paths. Safe from any goroutine.
func (b *kvBridge) Collect(s *obs.Snapshot) {
	s.Add("bridge.write_ring_growths", b.lane.WriteGrows.Load())
	s.Add("bridge.read_ring_growths", b.lane.ReadGrows.Load())
	b.mu.Lock()
	defer b.mu.Unlock()
	s.Add("bridge.retries", b.lane.Retries)
	s.Add("bridge.redirects", b.lane.Redirects)
	s.Add("bridge.timeouts", b.lane.Timeouts)
	s.AddBatchOccupancy("batch", &b.lane.Occ)
}

// enqueue appends the command to the write queue or — fast says so, for
// a Get under any ReadMode but Consensus — the lane's read queue, wakes
// the bridge node and waits for the result. The wait is a bare receive
// on a pooled one-shot channel: no caller-side timer, no allocation —
// the hottest per-op caller path does nothing but queue-append, channel
// receive, and channel recycle. The lock is held around nothing but the
// append: with 32 callers contending, holding it across one more call
// measured 5 % off the read-heavy mix.
func (b *kvBridge) enqueue(cmd msg.Command, fast bool) (string, error) {
	done := kvDonePool.Get().(chan kvResult)
	op := kvOp{Cmd: cmd, User: done}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		kvDonePool.Put(done)
		return "", errKVClosed
	}
	if fast {
		b.lane.QueueRead(op)
	} else {
		// Stamp the queue-entry clock only for ops the tracer will sample.
		// Seqs are handed out FIFO from the write queue, so under the lock
		// the op's future seq is the lane's next seq + the queue length —
		// exactly, unless a queued op ahead of it expires first (then the
		// span just loses its enqueue stamp and Begin substitutes propose
		// time). The predicate is an atomic load and a modulo; the clock
		// read it guards is a nanotime call per op, which is real money on
		// the hot path.
		// The Enabled test comes first so that, tracing off, the caller
		// never reads the lane's seq — a cache line the bridge node writes.
		if b.tracer.Enabled() && b.tracer.Sampled(b.lane.NextSeq()+uint64(len(b.queue))) {
			op.EnqWall = b.tracer.Clock()
		}
		b.queue = append(b.queue, op)
	}
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

// close fails every pending command on both lanes and every later one.
// The shard calls it after stopping its runtime: with the bridge node
// gone nothing else would ever deliver, and callers hold no timer of
// their own.
func (b *kvBridge) close() {
	b.mu.Lock()
	b.closed = true
	pending := append(b.lane.Drain(), b.queue...)
	b.queue = nil
	b.mu.Unlock()
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
// refilled by one full batch instead of one command at a time.
func (b *kvBridge) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case submitMsg:
		// One wakeup drains everything enqueued since it was sent;
		// callers arriving after this point inject a fresh one.
		b.mu.Lock()
		b.wakePending = false
		b.mu.Unlock()
		b.pumpReads(ctx)
		b.pump(ctx, false)
	case msg.ClientReply:
		b.oneReply[0] = mm
		b.finishBatch(ctx, b.oneReply[:])
	case msg.ClientReplyBatch:
		b.finishBatch(ctx, mm.Replies)
		// The batch's backing array came from the engine's reply pool
		// (transports deliver exactly once, and the bridge is the sole
		// receiver); hand it back now that every reply is consumed.
		msg.RecycleReplies(m)
	case msg.ReadReply:
		b.oneRead[0] = mm
		b.finishReads(ctx, b.oneRead[:])
	case msg.ReadReplyBatch:
		b.finishReads(ctx, mm.Replies)
		msg.RecycleReadReplies(m)
	}
}

// finishBatch retires a batch of write replies under one lock,
// delivering each result to its blocked caller, then refills the
// window. A redirected write is resent at once by a scan of the window.
func (b *kvBridge) finishBatch(ctx runtime.Context, replies []msg.ClientReply) {
	var traceNow time.Duration
	if b.tracer.Enabled() {
		traceNow = ctx.Now()
	}
	redirected := false
	b.mu.Lock()
	for i := range replies {
		switch done, _, _, st := b.lane.Retire(traceNow, &replies[i]); st {
		case client.Done:
			done <- kvResult{value: replies[i].Result}
		case client.Redirected:
			redirected = true
		}
	}
	b.mu.Unlock()
	if redirected {
		b.scan(ctx, false)
	} else {
		b.pump(ctx, false)
	}
}

// finishReads retires a batch of fast-path read replies under one lock;
// the pump then sends what pooled behind them or a redirect requeued.
func (b *kvBridge) finishReads(ctx runtime.Context, replies []msg.ReadReply) {
	type delivery struct {
		done  chan kvResult
		value string
	}
	var deliveries []delivery
	b.mu.Lock()
	for i := range replies {
		if done, _, st := b.lane.RetireRead(&replies[i]); st == client.Done {
			deliveries = append(deliveries, delivery{done, replies[i].Result})
		}
	}
	b.mu.Unlock()
	for _, d := range deliveries {
		d.done <- kvResult{value: d.value}
	}
	b.pumpReads(ctx)
}

// Timer implements runtime.Handler: the lane's three timers.
func (b *kvBridge) Timer(ctx runtime.Context, tag runtime.TimerTag) {
	switch tag.Kind {
	case client.TimerRetry:
		b.scan(ctx, true)
	case client.TimerFlush:
		b.pump(ctx, true) // the held-back partial batch is due: propose what is queued
	case client.TimerReadRetry:
		b.mu.Lock()
		expired, resend := b.lane.ScanReads(ctx.Now())
		b.mu.Unlock()
		b.timedOut(expired)
		b.lane.TransmitRead(ctx, resend)
		b.pumpReads(ctx) // expired requests may have freed read-window slots
	}
}

// scan runs the write lane's scan (see client.Lane.Scan) and expires
// the queued writes the saturated window has not admitted yet — they
// carry deadlines too (stamped by pump), so a caller's total wait is
// bounded by its own timeout no matter how long the window sits against
// an unresponsive cluster.
func (b *kvBridge) scan(ctx runtime.Context, tick bool) {
	now := ctx.Now()
	b.mu.Lock()
	expired, resend := b.lane.Scan(now, tick)
	kept := b.queue[:0]
	for _, op := range b.queue {
		if op.Deadline > 0 && now >= op.Deadline {
			expired = append(expired, op)
			b.lane.Timeouts++
			continue
		}
		kept = append(kept, op)
	}
	b.queue = kept
	b.mu.Unlock()
	b.timedOut(expired)
	b.lane.Transmit(ctx, resend)
	b.pump(ctx, false) // expired flights may have freed window slots
}

// stampDeadlines starts the timeout clock of the queued ops a pump has
// not seen yet: a timeout runs from when the bridge first sees the op,
// not from when a window slot frees up, so a saturated window cannot
// leave queued calls deadline-less (the scans sweep the queues too).
// Ops join a queue at its tail and every pump stamps all it finds, so
// the unseen ones are the trailing run without a deadline — the walk
// stops at the first stamped op instead of covering the whole backlog
// on every call.
func (b *kvBridge) stampDeadlines(queue []kvOp, now time.Duration) {
	if b.timeout <= 0 {
		return // no RequestTimeout: ops wait as long as it takes
	}
	for i := len(queue) - 1; i >= 0 && queue[i].Deadline == 0; i-- {
		queue[i].Deadline = now + b.timeout
	}
}

// pumpReads drains the read queue into ReadRequests, as many as the
// read lane's window admits.
func (b *kvBridge) pumpReads(ctx runtime.Context) {
	now := ctx.Now()
	for {
		b.mu.Lock()
		b.stampDeadlines(b.lane.QueuedReads(), now)
		send, ok := b.lane.PumpReads(now)
		b.mu.Unlock()
		if !ok {
			return
		}
		b.lane.TransmitRead(ctx, send)
	}
}

// pump moves queued commands into the pipeline window, one request —
// one consensus instance — per pass, as many as the lane's admission
// rule takes (see client.Lane.Admit); force says the flush timer fired.
func (b *kvBridge) pump(ctx runtime.Context, force bool) {
	now := ctx.Now()
	for {
		b.mu.Lock()
		b.stampDeadlines(b.queue, now)
		n, flush := b.lane.Admit(b.lane.Free(), len(b.queue), force)
		if n == 0 {
			b.mu.Unlock()
			if flush > 0 {
				b.lane.TransmitFlush(ctx, flush)
			}
			return
		}
		send := b.lane.Issue(now, b.queue[:n])
		b.queue = b.queue[n:]
		b.mu.Unlock()
		b.lane.Transmit(ctx, send)
	}
}
