package client

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/readpath"
	"consensusinside/internal/runtime"
	"consensusinside/internal/shard"
)

const retry = 10 * time.Millisecond

// front is the smallest front end a lane can have: a write queue, a
// list of what finished, and the calls every front end makes in the
// order every front end makes them. The scripts below drive it on a
// FakeContext; the two real front ends (the root package's bridge and
// internal/workload's load source) are tested on the same lane where
// they live.
type front struct {
	t     *testing.T
	l     *Lane[int]
	ctx   *runtime.FakeContext
	queue []Op[int]
	next  int      // id of the next op queued
	done  []string // "id=result" per completed op, "id!timeout" per expired one
}

func newFront(t *testing.T, cfg Config) *front {
	cfg.ID, cfg.Servers, cfg.Retry = 9, []msg.NodeID{0, 1, 2}, retry
	return &front{t: t, l: New[int](cfg), ctx: runtime.NewFakeContext(9, 4)}
}

func (f *front) op(kind msg.Op, deadline time.Duration) Op[int] {
	f.next++
	return Op[int]{Cmd: msg.Command{Op: kind, Key: fmt.Sprint("k", f.next), Val: fmt.Sprint("v", f.next)}, Deadline: deadline, User: f.next}
}

// put queues n writes and pumps; get queues n fast reads and pumps.
func (f *front) put(n int, deadline time.Duration) {
	for i := 0; i < n; i++ {
		f.queue = append(f.queue, f.op(msg.OpPut, deadline))
	}
	f.pump()
}

func (f *front) get(n int, deadline time.Duration) {
	for i := 0; i < n; i++ {
		f.l.QueueRead(f.op(msg.OpGet, deadline))
	}
	f.pumpReads()
}

func (f *front) pump() {
	for {
		n := f.l.Admit(f.l.Free(), len(f.queue))
		if n == 0 {
			return
		}
		f.l.Issue(f.ctx, f.ctx.Clock, f.queue[:n])
		f.queue = f.queue[n:]
	}
}

func (f *front) pumpReads() {
	for f.l.PumpReads(f.ctx, f.ctx.Clock) {
	}
}

func (f *front) expire(ops []Op[int]) {
	for _, op := range ops {
		f.done = append(f.done, fmt.Sprint(op.User, "!timeout"))
	}
}

func (f *front) scan(tick bool) {
	f.expire(f.l.Scan(f.ctx, f.ctx.Clock, tick))
	f.pump()
}

// reply answers write seqs (lane-local, 1-based) in one message.
func (f *front) reply(r ...msg.ClientReply) {
	redirected := false
	for i := range r {
		r[i].Seq = shard.TagSeq(f.l.shard, r[i].Seq)
		switch id, _, _, st := f.l.Retire(f.ctx.Clock, &r[i]); st {
		case Done:
			f.done = append(f.done, fmt.Sprint(id, "=", r[i].Result))
		case Redirected:
			redirected = true
		}
	}
	if redirected {
		f.scan(false)
	}
	f.pump()
}

func (f *front) replyRead(r ...msg.ReadReply) {
	for i := range r {
		r[i].Seq = shard.TagSeq(f.l.shard, r[i].Seq)
		if id, _, st := f.l.RetireRead(&r[i]); st == Done {
			f.done = append(f.done, fmt.Sprint(id, "=", r[i].Result))
		}
	}
	f.pumpReads()
}

// fire advances the clock to the pending timer of kind and runs it as a
// front end would.
func (f *front) fire(kind int) {
	f.t.Helper()
	var due *runtime.FakeTimer
	for i := range f.ctx.Timers {
		if tm := &f.ctx.Timers[i]; tm.Tag.Kind == kind && !tm.Cancelled && tm.Tag.Arg == int64(f.l.shard) {
			if due != nil {
				f.t.Fatalf("two timers of kind %d pending: %+v and %+v", kind, *due, *tm)
			}
			due = tm
		}
	}
	if due == nil {
		f.t.Fatalf("no timer of kind %d pending", kind)
	}
	due.Cancelled = true // consumed
	f.ctx.Clock = due.At
	switch kind {
	case TimerRetry:
		f.scan(true)
	case TimerReadRetry:
		f.expire(f.l.ScanReads(f.ctx, f.ctx.Clock))
		f.pumpReads()
	}
}

func (f *front) pending(kind int) bool {
	for _, tm := range f.ctx.Timers {
		if tm.Tag.Kind == kind && !tm.Cancelled {
			return true
		}
	}
	return false
}

// sent drains the captured sends as "to:seq,seq/ack" (writes) or
// "to:r seq,seq" (reads), seqs lane-local.
func (f *front) sent() []string {
	var out []string
	for _, s := range f.ctx.TakeSent() {
		line := fmt.Sprint(s.To, ":")
		switch m := s.M.(type) {
		case *msg.ClientRequest:
			if m.Client != 9 {
				f.t.Fatalf("request from client %d", m.Client)
			}
			v := msg.Value(*m)
			for i := range v.Len() {
				be := v.EntryAt(i)
				if shard.SeqShard(be.Seq) != f.l.shard {
					f.t.Fatalf("seq %d not tagged for shard %d", be.Seq, f.l.shard)
				}
				if i > 0 {
					line += ","
				}
				line += fmt.Sprint(be.Seq - shard.TagSeq(f.l.shard, 0))
			}
			line += fmt.Sprint("/", m.Ack-shard.TagSeq(f.l.shard, 0))
		case *msg.ReadRequest:
			if m.Mode != int(f.l.readMode) {
				f.t.Fatalf("read request carries mode %d, want %d", m.Mode, f.l.readMode)
			}
			line += "r "
			for i, be := range m.Entries {
				if i > 0 {
					line += ","
				}
				line += fmt.Sprint(be.Seq - shard.TagSeq(f.l.shard, 0))
			}
		default:
			f.t.Fatalf("lane sent a %T", s.M)
		}
		out = append(out, line)
	}
	return out
}

func (f *front) want(what string, got, want []string) {
	f.t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		f.t.Fatalf("%s = %q, want %q", what, got, want)
	}
}

func (f *front) wantSent(want ...string) { f.t.Helper(); f.want("sent", f.sent(), want) }
func (f *front) wantDone(want ...string) {
	f.t.Helper()
	f.want("finished", f.done, want)
	f.done = nil
}

func ok(seq uint64, result string) msg.ClientReply {
	return msg.ClientReply{Seq: seq, OK: true, Result: result}
}
func okRead(seq uint64, result string) msg.ReadReply {
	return msg.ReadReply{Seq: seq, OK: true, Result: result}
}

// TestLane is the one script both front ends rely on: each case drives
// a lane through the calls a front end makes and checks every message
// and every completion.
func TestLane(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		script func(t *testing.T, f *front)
	}{
		{"closed loop: one in flight, the reply admits the next", Config{Window: 1}, func(t *testing.T, f *front) {
			f.put(3, 0)
			f.wantSent("0:1/1")
			f.reply(ok(1, "a"))
			f.wantDone("1=a")
			f.wantSent("0:2/2")
		}},
		{"window fill: one pump fills the window, singles at batch 1", Config{Window: 4}, func(t *testing.T, f *front) {
			f.put(6, 0)
			f.wantSent("0:1/1", "0:2/1", "0:3/1", "0:4/1")
			if f.l.InFlight() != 4 || f.l.MaxInFlight.Load() != 4 || f.l.Free() != 0 {
				t.Fatalf("in flight %d, max %d, free %d", f.l.InFlight(), f.l.MaxInFlight.Load(), f.l.Free())
			}
			// Out-of-order replies retire independently; the ack floor is
			// the lowest seq still outstanding.
			f.reply(ok(2, "b"))
			f.wantSent("0:5/1")
			f.reply(ok(1, "a"))
			f.wantSent("0:6/3")
			f.wantDone("2=b", "1=a")
		}},
		{"batched: the window fills as full batches and a batched reply refills as one", Config{Window: 8, Adaptive: true}, func(t *testing.T, f *front) {
			f.put(20, 0)
			f.wantSent("0:1,2,3,4/1", "0:5,6,7,8/1")
			if got := &f.l.Occ; got.Batches() != 2 || got.Commands() != 8 {
				t.Fatalf("occupancy %d batches / %d commands, want 2 / 8", got.Batches(), got.Commands())
			}
			f.reply(ok(1, ""), ok(2, ""), ok(3, ""), ok(4, ""))
			f.wantSent("0:9,10,11,12/5")
		}},
		{"decision 2: a full batch pending and 3 free slots sends nothing and arms nothing", Config{Window: 8, Adaptive: true}, func(t *testing.T, f *front) {
			f.put(20, 0)
			f.sent()
			timers := len(f.ctx.Timers)
			f.reply(ok(1, ""))
			f.reply(ok(2, ""))
			f.reply(ok(3, ""))
			f.wantSent()
			if len(f.ctx.Timers) != timers {
				t.Fatalf("hold armed %+v", f.ctx.Timers[timers:])
			}
			f.reply(ok(4, ""))
			f.wantSent("0:9,10,11,12/5")
		}},
		{"adaptive: light load goes whole, saturation goes in half-windows, scarce slots hold", Config{Window: 8, Adaptive: true}, func(t *testing.T, f *front) {
			f.put(3, 0)
			f.wantSent("0:1,2,3/1")
			f.put(9, 0) // 5 free, 9 pending: 4 go, then 1 free < 5 pending holds
			f.wantSent("0:4,5,6,7/1")
			f.reply(ok(1, ""), ok(2, ""), ok(3, ""))
			f.wantSent("0:8,9,10,11/4")
			f.reply(ok(4, ""), ok(5, ""), ok(6, ""), ok(7, ""))
			f.wantSent("0:12/8") // the last one: demand no deeper than the free slots
		}},
		{"decision 1: a timed-out batch of 8 is resent as one request to one next server, seqs and commands kept", Config{Window: 16, Adaptive: true}, func(t *testing.T, f *front) {
			f.put(8, 0)
			first := f.ctx.Sent[0].M.(*msg.ClientRequest)
			f.wantSent("0:1,2,3,4,5,6,7,8/1")
			f.fire(TimerRetry)
			again := f.ctx.Sent[0].M.(*msg.ClientRequest)
			f.wantSent("1:1,2,3,4,5,6,7,8/1")
			if !reflect.DeepEqual(first.Batch, again.Batch) {
				t.Fatalf("resend changed the batch: %+v vs %+v", again.Batch, first.Batch)
			}
			if f.l.Retries.Load() != 8 {
				t.Fatalf("Retries = %d, want 8", f.l.Retries.Load())
			}
			// The original commits; the retry's own late answers are stale.
			f.reply(ok(1, "x"), ok(2, "x"))
			f.reply(ok(1, "dup"), ok(2, "dup"))
			f.wantDone("1=x", "2=x")
		}},
		{"decision 1: a flight sent at t is resent at t+retry, and the timer sleeps until the next-oldest is due", Config{Window: 4}, func(t *testing.T, f *front) {
			f.put(1, 0) // seq 1 at t=0
			f.ctx.Clock = 3 * time.Millisecond
			f.put(1, 0) // seq 2 at t=3ms
			f.ctx.Clock = 7 * time.Millisecond
			f.put(1, 0) // seq 3 at t=7ms
			f.sent()
			f.fire(TimerRetry)
			if f.ctx.Clock != retry {
				t.Fatalf("first tick at %v, want %v", f.ctx.Clock, retry)
			}
			f.wantSent("1:1/1")
			f.reply(ok(2, "")) // gone before it is due: its tick finds nothing and sleeps on
			f.fire(TimerRetry)
			f.wantSent()
			f.fire(TimerRetry)
			if f.ctx.Clock != 7*time.Millisecond+retry {
				t.Fatalf("second tick at %v, want seq 3's due time %v", f.ctx.Clock, 7*time.Millisecond+retry)
			}
			f.wantSent("2:3/1")
			// Idle lane: the timer dies, and the next issue re-arms it.
			f.reply(ok(1, ""), ok(3, ""))
			f.fire(TimerRetry)
			f.wantSent()
			if f.pending(TimerRetry) {
				t.Fatal("retry timer still armed on an idle lane")
			}
			f.put(1, 0)
			if !f.pending(TimerRetry) {
				t.Fatal("issue on an idle lane armed no retry timer")
			}
		}},
		{"decision 3: a refused write is resent to the replica the refusal names, under its seq, until its deadline", Config{Window: 4}, func(t *testing.T, f *front) {
			f.put(2, 25*time.Millisecond)
			f.sent()
			f.reply(msg.ClientReply{Seq: 1, Redirect: 2})
			f.wantSent("2:1/1")
			f.put(1, 0)
			f.wantSent("2:3/1") // the cursor stays where the redirect aimed it
			f.reply(msg.ClientReply{Seq: 2, Redirect: msg.Nobody})
			f.wantSent() // a refusal naming nobody is a lost reply
			f.reply(ok(1, "late"))
			f.wantDone("1=late")
			if f.l.Redirects.Load() != 1 || f.l.Retries.Load() != 0 {
				t.Fatalf("redirects %d, retries %d; want 1 and 0", f.l.Redirects.Load(), f.l.Retries.Load())
			}
			f.fire(TimerRetry)
			f.wantSent("0:2,3/2") // timeout: rotate on from server 2
			f.fire(TimerRetry)
			f.sent()
			f.fire(TimerRetry) // t=30ms: seq 2's deadline has passed
			f.wantDone("2!timeout")
			f.wantSent("2:3/3")
			if f.l.Timeouts.Load() != 1 {
				t.Fatalf("Timeouts = %d, want 1", f.l.Timeouts.Load())
			}
		}},
		{"ack floor and tags are the lane's own", Config{Window: 2, Shard: 5}, func(t *testing.T, f *front) {
			f.put(3, 0)
			f.wantSent("0:1/1", "0:2/1")
			f.reply(ok(1, ""))
			f.wantSent("0:3/2")
			f.fire(TimerRetry)
			f.wantSent("1:2,3/2")
		}},
		{"pinned write outlives its ring", Config{Window: 2}, func(t *testing.T, f *front) {
			f.put(2, 0)
			f.sent()
			for seq := uint64(2); seq < 40; seq++ {
				f.put(1, 0)
				f.reply(ok(seq, ""))
				f.wantSent(fmt.Sprintf("0:%d/1", seq+1))
			}
			if f.l.WriteGrows.Load() < 2 {
				t.Fatalf("write ring grew %d times across a span of 40 from 2 slots", f.l.WriteGrows.Load())
			}
			f.fire(TimerRetry)
			f.wantSent("1:1,40/1") // oldest first
			f.reply(ok(1, "late"))
			f.put(1, 0)
			f.wantSent("1:41/40") // the floor jumps to the newest flight
		}},
		{"reads coalesce, two requests at most, on their own seqs", Config{Window: 2, ReadMode: readpath.Lease}, func(t *testing.T, f *front) {
			f.put(2, 0)
			f.sent()
			f.get(1, 0)
			f.get(1, 0)
			f.wantSent("0:r 1", "0:r 2")
			f.get(3, 0) // the read window is full: these pool
			f.wantSent()
			if f.l.ReadsOutstanding() != 5 || f.l.Free() != 0 || f.l.InFlight() != 2 {
				t.Fatalf("reads outstanding %d, write slots free %d", f.l.ReadsOutstanding(), f.l.Free())
			}
			f.replyRead(okRead(1, "x"))
			f.wantDone("3=x")
			f.wantSent("0:r 3,4,5") // and leave as one request
			f.replyRead(okRead(1, "dup"))
			f.wantDone()
		}},
		{"follower reads rotate per request", Config{ReadMode: readpath.Follower}, func(t *testing.T, f *front) {
			f.get(1, 0)
			f.get(1, 0)
			f.wantSent("1:r 1", "2:r 2")
		}},
		{"a redirected read goes back to the front of the queue, re-aimed, deadline kept", Config{ReadMode: readpath.Index}, func(t *testing.T, f *front) {
			f.get(2, 25*time.Millisecond)
			f.get(1, 0)
			f.get(1, 0) // queued behind the two requests
			f.wantSent("0:r 1,2", "0:r 3")
			f.replyRead(msg.ReadReply{Seq: 1, Redirect: 1}, msg.ReadReply{Seq: 2, Redirect: 1})
			f.wantSent("1:r 4,5,6") // ops 1, 2 in reply order, then op 4
			f.replyRead(okRead(6, "four"), okRead(5, "two"))
			f.wantDone("4=four", "2=two")
			f.fire(TimerReadRetry) // t=10ms: both requests overdue, one rotation
			f.wantSent("2:r 3", "2:r 4")
			f.fire(TimerReadRetry)
			f.sent()
			f.fire(TimerReadRetry) // t=30ms: op 1's original deadline has passed
			f.wantDone("1!timeout")
			f.wantSent("1:r 3")
			if f.l.Redirects.Load() != 2 || f.l.Timeouts.Load() != 1 || f.l.Retries.Load() != 5 {
				t.Fatalf("redirects %d, timeouts %d, retries %d; want 2, 1, 5", f.l.Redirects.Load(), f.l.Timeouts.Load(), f.l.Retries.Load())
			}
		}},
		{"queued reads expire at their own deadline while the window is stuck", Config{ReadMode: readpath.Lease}, func(t *testing.T, f *front) {
			f.get(1, 0)
			f.get(1, 0)
			f.get(2, 15*time.Millisecond) // queued: the window is full
			f.sent()
			f.fire(TimerReadRetry)
			f.wantDone()
			f.fire(TimerReadRetry) // t=20ms
			f.wantDone("3!timeout", "4!timeout")
			if f.l.ReadsOutstanding() != 2 {
				t.Fatalf("%d reads outstanding, want the 2 in flight", f.l.ReadsOutstanding())
			}
			f.replyRead(okRead(1, ""), okRead(2, ""))
			f.fire(TimerReadRetry)
			if f.pending(TimerReadRetry) {
				t.Fatal("read retry timer still armed on an idle lane")
			}
		}},
		{"pinned read outlives its ring", Config{ReadMode: readpath.Lease}, func(t *testing.T, f *front) {
			f.get(1, 0)
			f.sent()
			for seq := uint64(2); seq < 3*MaxReadCoalesce*MaxReadRequests; seq++ {
				f.get(1, 0)
				f.wantSent(fmt.Sprintf("0:r %d", seq))
				f.replyRead(okRead(seq, ""))
			}
			if f.l.ReadGrows.Load() < 1 {
				t.Fatal("read ring never grew around the pinned read")
			}
			f.done = nil
			f.replyRead(okRead(1, "late"))
			f.wantDone("1=late")
		}},
		{"drain returns everything the lane holds", Config{Window: 2, ReadMode: readpath.Lease}, func(t *testing.T, f *front) {
			f.put(2, 0)
			f.get(1, 0)
			f.get(1, 0)
			f.get(1, 0)
			f.replyRead(msg.ReadReply{Seq: 1, Redirect: 2}) // ops 3 and 5 leave again as read seqs 3, 4
			f.get(1, 0)                                     // op 6 queues behind the two requests
			r := msg.ReadReply{Seq: 2, Redirect: 2}
			f.l.RetireRead(&r) // op 4 waits, requeued, for the next pump
			var ids []int
			for _, op := range f.l.Drain() {
				ids = append(ids, op.User)
			}
			if want := []int{1, 2, 4, 6, 3, 5}; !reflect.DeepEqual(ids, want) {
				t.Fatalf("drained ops %v, want %v (writes, requeued, queued, reads in flight)", ids, want)
			}
			if f.l.InFlight() != 0 || f.l.ReadsOutstanding() != 0 {
				t.Fatal("drain left ops behind")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFront(t, tc.cfg)
			tc.script(t, f)
		})
	}
}

// nullContext records nothing, so it adds no allocations of its own.
type nullContext struct{ *runtime.FakeContext }

func (nullContext) Send(msg.NodeID, msg.Message) {}
func (nullContext) After(time.Duration, runtime.TimerTag) runtime.CancelFunc {
	return func() {}
}

// TestLaneIdleScansAllocateNothing: with writes and read requests
// outstanding but none overdue, a tick of either timer walks its window
// in place — no seq slice, no sort, no resend buffers — and so does
// retiring a reply.
func TestLaneIdleScansAllocateNothing(t *testing.T) {
	f := newFront(t, Config{Window: 8, ReadMode: readpath.Lease})
	f.put(5, time.Minute)
	for i := 0; i < 5; i++ {
		f.get(1, time.Minute)
	}
	ctx := nullContext{f.ctx}
	if allocs := testing.AllocsPerRun(100, func() { f.l.Scan(ctx, f.ctx.Clock, true) }); allocs != 0 {
		t.Errorf("write scan allocates %.1f times per idle tick, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.l.ScanReads(ctx, f.ctx.Clock) }); allocs != 0 {
		t.Errorf("read scan allocates %.1f times per idle tick, want 0", allocs)
	}
	seq := uint64(0)
	if allocs := testing.AllocsPerRun(4, func() {
		seq++
		r := ok(shard.TagSeq(0, seq), "")
		if _, _, _, st := f.l.Retire(0, &r); st != Done {
			t.Fatalf("seq %d: status %d", seq, st)
		}
	}); allocs != 0 {
		t.Errorf("retiring a reply allocates %.1f times, want 0", allocs)
	}
}

// TestIssueOneOpAllocatesNothing: a single op's entry is folded into
// the request itself, and the request travels in a pooled box, so
// issuing it allocates nothing once the receiver has released the box
// it was sent before — the batch-1 client path.
func TestIssueOneOpAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled boxes at random")
	}
	f := newFront(t, Config{Window: 4})
	f.put(1, 0) // arms the retry timer, which stays armed below
	f.reply(msg.ClientReply{Seq: 1, OK: true})
	ops := []Op[int]{f.op(msg.OpPut, 0)}
	f.ctx.Sent = make([]runtime.FakeSend, 0, 1)
	var req *msg.ClientRequest
	allocs := testing.AllocsPerRun(100, func() {
		f.ctx.Sent = f.ctx.Sent[:0]
		f.l.Issue(f.ctx, f.ctx.Clock, ops)
		req = f.ctx.Sent[0].M.(*msg.ClientRequest)
		if req.Batch != nil || req.Cmd != ops[0].Cmd {
			t.Fatalf("the request is not the single form: %+v", req)
		}
		msg.Release(req) // what the receiving runtime does after delivery
		if _, _, _, st := f.l.Retire(f.ctx.Clock, &msg.ClientReply{Seq: f.l.seq, OK: true}); st != Done {
			t.Fatalf("the issued op did not retire: %v", st)
		}
	})
	if allocs != 0 {
		t.Fatalf("Issue of one op allocates %v times, want 0", allocs)
	}
}

// TestPumpReadsReusesTheQueue: the read queue is copied down as
// PumpReads takes from its front, so queue/pump/retire cycles keep one
// backing array, and the read request travels in a pooled box: after a
// warm-up, a cycle allocates nothing. Reslicing the queue from the
// front instead made every later QueueRead reallocate it.
func TestPumpReadsReusesTheQueue(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled boxes at random")
	}
	f := newFront(t, Config{Window: 4, ReadMode: readpath.Lease})
	ctx := f.ctx
	ctx.Sent = make([]runtime.FakeSend, 0, MaxReadRequests)
	get := f.op(msg.OpGet, 0)
	cycle := func() {
		for range 3 {
			f.l.QueueRead(get)
		}
		for f.l.PumpReads(ctx, ctx.Clock) {
		}
		for _, s := range ctx.Sent {
			req := s.M.(*msg.ReadRequest)
			for _, e := range req.Entries {
				if _, _, st := f.l.RetireRead(&msg.ReadReply{Seq: e.Seq, OK: true}); st != Done {
					t.Fatalf("read %d: status %d", e.Seq, st)
				}
			}
			msg.Release(req)
		}
		ctx.Sent = ctx.Sent[:0]
	}
	for range 8 {
		cycle()
	}
	before := cap(f.l.readQueue)
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("a queue/pump/retire cycle allocates %.1f times, want 0", allocs)
	}
	if after := cap(f.l.readQueue); after != before {
		t.Errorf("the read queue's array grew from %d to %d over repeated cycles", before, after)
	}
}
