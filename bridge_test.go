package consensusinside

import (
	"fmt"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"consensusinside/internal/client"
	"consensusinside/internal/msg"
	"consensusinside/internal/readpath"
	"consensusinside/internal/runtime"
)

const harnessRetry = 10 * time.Millisecond

// bridgeHarness drives a kvBridge by hand: the test plays the bridge
// node's goroutine (Receive/Timer on a FakeContext) and the replicas
// (it writes the replies), while real goroutines block in enqueue.
type bridgeHarness struct {
	t      *testing.T
	b      *kvBridge
	ctx    *runtime.FakeContext
	wakes  chan struct{}
	result chan string // one "key=value" or "key!error" per finished call
}

func newBridgeHarness(t *testing.T, window int, mode readpath.Mode) *bridgeHarness {
	h := &bridgeHarness{
		t: t,
		b: newKVBridge(client.Config{
			ID: 3, Servers: []msg.NodeID{0, 1, 2}, Retry: harnessRetry, Window: window, ReadMode: mode,
		}, time.Minute),
		ctx: runtime.NewFakeContext(3, 4),
		// Every caller of a test may be parked at once.
		wakes:  make(chan struct{}, 1024),
		result: make(chan string, 1024),
	}
	h.b.inject = func(msg.Message) { h.wakes <- struct{}{} }
	return h
}

// call starts one blocked caller and runs the bridge's wake-up for it,
// returning what the bridge sent.
func (h *bridgeHarness) call(op msg.Op, key string) []runtime.FakeSend {
	h.t.Helper()
	go func() {
		cmd := msg.Command{Op: op, Key: key, Val: key}
		res, err := h.b.enqueue(cmd)
		if err != nil {
			h.result <- key + "!" + err.Error()
			return
		}
		h.result <- key + "=" + res
	}()
	select {
	case <-h.wakes:
	case <-time.After(10 * time.Second):
		h.t.Fatal("caller never woke the bridge")
	}
	h.ctx.TakeSent()
	h.b.Receive(h.ctx, 3, submitMsg{})
	return h.ctx.TakeSent()
}

func (h *bridgeHarness) wantResult(want string) {
	h.t.Helper()
	select {
	case got := <-h.result:
		if got != want {
			h.t.Fatalf("caller finished with %q, want %q", got, want)
		}
	case <-time.After(10 * time.Second):
		h.t.Fatalf("no caller finished, want %q", want)
	}
}

// queueBurst is the one test hook into a live bridge: it runs n
// concurrent calls (each blocking in Put or Get on b's shard) while b's
// wake-ups are parked, so that all n are queued before the bridge's pump
// sees any of them, then lets the wake-up through and returns each
// call's error.
func queueBurst(b *kvBridge, n int, call func(i int) error) []error {
	inject := b.inject
	woken := make(chan msg.Message, 1)
	b.inject = func(m msg.Message) { woken <- m }
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call(i)
		}()
	}
	wake := <-woken // the first caller's; the rest see wakePending and send none
	for queued := 0; queued < n; {
		stdruntime.Gosched()
		b.mu.Lock()
		queued = len(b.handoff)
		b.mu.Unlock()
	}
	b.inject = inject
	inject(wake)
	wg.Wait()
	return errs
}

// TestBridgePinnedFlightOutlivesRing holds the first write outstanding
// while far more than a ring's worth of newer writes are admitted,
// answered and retired around it. The window must grow instead of
// losing the pinned flight: every newer result is delivered, every
// request's Ack floor stays on the pinned seq, the retry scan still
// resends it (oldest first), and its eventual reply still lands.
func TestBridgePinnedFlightOutlivesRing(t *testing.T) {
	const window = 4
	h := newBridgeHarness(t, window, readpath.Consensus)
	sent := h.call(msg.OpPut, "pinned")
	if len(sent) != 1 {
		t.Fatalf("first call sent %d messages, want 1", len(sent))
	}
	pinned := sent[0].M.(msg.ClientRequest).Seq

	for i := 0; i < 10*window; i++ {
		key := fmt.Sprintf("k%d", i)
		sent := h.call(msg.OpPut, key)
		if len(sent) != 1 {
			t.Fatalf("call %d sent %d messages, want 1", i, len(sent))
		}
		req := sent[0].M.(msg.ClientRequest)
		if req.Ack != pinned {
			t.Fatalf("request for seq %d carries ack %d, want the pinned seq %d", req.Seq, req.Ack, pinned)
		}
		h.b.Receive(h.ctx, 0, msg.ClientReply{Seq: req.Seq, OK: true, Result: key})
		h.wantResult(key + "=" + key)
	}
	if got := h.b.lane.WriteGrows.Load(); got < 2 {
		t.Fatalf("write ring grew %d times across a span of %d from %d slots, want at least 2", got, 10*window+1, window)
	}

	// One more stays outstanding next to the pinned one; the retry scan
	// must resend both in one request, oldest first.
	last := h.call(msg.OpPut, "last")[0].M.(msg.ClientRequest).Seq
	h.ctx.Clock += 20 * time.Millisecond
	h.b.Timer(h.ctx, runtime.TimerTag{Kind: client.TimerRetry})
	resent := h.ctx.TakeSent()
	if len(resent) != 1 {
		t.Fatalf("retry scan sent %d messages, want 1 batched resend", len(resent))
	}
	req := resent[0].M.(msg.ClientRequest)
	if len(req.Batch) != 2 || req.Batch[0].Seq != pinned || req.Batch[1].Seq != last || req.Ack != pinned {
		t.Fatalf("resend = %+v, want seqs [%d %d] with ack %d", req, pinned, last, pinned)
	}

	// The pinned flight finally completes; the floor moves up to the
	// only flight left.
	h.b.Receive(h.ctx, 1, msg.ClientReply{Seq: pinned, OK: true, Result: "late"})
	h.wantResult("pinned=late")
	if req := h.call(msg.OpPut, "next")[0].M.(msg.ClientRequest); req.Ack != last {
		t.Fatalf("ack floor = %d after the pinned flight retired, want %d", req.Ack, last)
	}
	h.b.Receive(h.ctx, 1, msg.ClientReply{Seq: last, OK: true, Result: "done"})
	h.wantResult("last=done")
	h.b.Receive(h.ctx, 1, msg.ClientReply{Seq: last + 1, OK: true, Result: "done"})
	h.wantResult("next=done")
	// A stale duplicate of a long-retired reply is ignored.
	h.b.Receive(h.ctx, 1, msg.ClientReply{Seq: pinned, OK: true, Result: "dup"})
	if h.b.lane.InFlight() != 0 {
		t.Fatalf("%d flights left in the window, want none", h.b.lane.InFlight())
	}
}

// nullContext is a runtime.Context that records nothing, so it adds no
// allocations of its own to the scan-timer measurements below.
type nullContext struct{ *runtime.FakeContext }

func (nullContext) Send(msg.NodeID, msg.Message) {}
func (nullContext) After(time.Duration, runtime.TimerTag) runtime.CancelFunc {
	return func() {}
}

// TestBridgeScanTimersAllocateNothingWhenIdle: with flights and read
// batches outstanding but none overdue, a scan tick walks its window in
// place — no seq slice, no sort, no resend buffers.
func TestBridgeScanTimersAllocateNothingWhenIdle(t *testing.T) {
	h := newBridgeHarness(t, 8, readpath.Lease)
	readRequests := 0
	for i := 0; i < 5; i++ {
		h.call(msg.OpPut, fmt.Sprintf("w%d", i))
		readRequests += len(h.call(msg.OpGet, fmt.Sprintf("r%d", i)))
	}
	// The read lane admits MaxReadRequests requests; the rest queue, and
	// the scan sweeps that queue too.
	if h.b.lane.InFlight() != 5 || h.b.lane.ReadsOutstanding() != 5 || readRequests != client.MaxReadRequests {
		t.Fatalf("set-up left %d writes in flight and %d reads outstanding in %d requests (the other reads queued)",
			h.b.lane.InFlight(), h.b.lane.ReadsOutstanding(), readRequests)
	}
	ctx := nullContext{h.ctx}
	for _, kind := range []int{client.TimerRetry, client.TimerReadRetry} {
		tag := runtime.TimerTag{Kind: kind}
		if allocs := testing.AllocsPerRun(100, func() { h.b.Timer(ctx, tag) }); allocs != 0 {
			t.Errorf("scan timer %d allocates %.1f times per idle tick, want 0", kind, allocs)
		}
	}
	h.b.close()
	for i := 0; i < 10; i++ {
		select {
		case <-h.result:
		case <-time.After(10 * time.Second):
			t.Fatal("close left a caller blocked")
		}
	}
}

// TestStampDeadlinesTouchesOnlyTheUnseenTail: every op a wake-up drains
// from the hand-off is new and carries now+timeout; ops already pending
// from an earlier wake-up keep the deadline they got then.
func TestStampDeadlinesTouchesOnlyTheUnseenTail(t *testing.T) {
	b := newKVBridge(client.Config{ID: 3, Servers: []msg.NodeID{0, 1, 2}, Window: 1, ReadMode: readpath.Lease}, 100)
	b.queue = []kvOp{{Deadline: 7}} // drained by an earlier wake-up
	b.handoff = []kvOp{{Cmd: msg.Command{Op: msg.OpPut}}, {Cmd: msg.Command{Op: msg.OpGet}}, {Cmd: msg.Command{Op: msg.OpPut}}}
	b.drain(1000)
	if len(b.handoff) != 0 || b.lane.ReadsOutstanding() != 1 {
		t.Fatalf("drain left %d ops in the hand-off and queued %d reads, want 0 and 1", len(b.handoff), b.lane.ReadsOutstanding())
	}
	want := []time.Duration{7, 1100, 1100}
	for i, op := range b.queue {
		if op.Deadline != want[i] {
			t.Errorf("queue[%d].Deadline = %d, want %d", i, op.Deadline, want[i])
		}
	}
	for _, op := range b.lane.Drain() {
		if op.Deadline != 1100 {
			t.Errorf("drained read carries deadline %d, want 1100", op.Deadline)
		}
	}
	// Without a RequestTimeout nothing is ever stamped.
	b.timeout = 0
	b.handoff = append(b.handoff, kvOp{})
	if b.drain(2000); b.queue[3].Deadline != 0 {
		t.Errorf("no timeout, yet the new op got deadline %d", b.queue[3].Deadline)
	}
}

// TestBridgeRetryIsDueOneTimeoutAfterTheSend is decision 1's guard on
// the blocking front end: the retry timer sleeps until the oldest
// outstanding transmission is due, so a Put sent at t is resent at
// t+retry — not at the next boundary of a fixed scan period, which
// could be almost two timeouts away.
func TestBridgeRetryIsDueOneTimeoutAfterTheSend(t *testing.T) {
	h := newBridgeHarness(t, 4, readpath.Consensus)
	first := h.call(msg.OpPut, "a")[0].M.(msg.ClientRequest).Seq
	h.ctx.Clock = 3 * time.Millisecond
	second := h.call(msg.OpPut, "b")[0].M.(msg.ClientRequest).Seq

	h.ctx.Clock = harnessRetry
	h.b.Timer(h.ctx, runtime.TimerTag{Kind: client.TimerRetry})
	resent := h.ctx.TakeSent()
	if len(resent) != 1 || resent[0].To != 1 || resent[0].M.(msg.ClientRequest).Seq != first || len(resent[0].M.(msg.ClientRequest).Batch) != 0 {
		t.Fatalf("tick at one timeout resent %+v, want only the first Put, bare, to server 1", resent)
	}
	next := h.ctx.Timers[len(h.ctx.Timers)-1]
	if next.Tag.Kind != client.TimerRetry || next.At != 3*time.Millisecond+harnessRetry {
		t.Fatalf("retry timer re-armed as %+v, want the second Put's due time %v", next, 3*time.Millisecond+harnessRetry)
	}
	h.ctx.Clock = next.At
	h.b.Timer(h.ctx, next.Tag)
	resent = h.ctx.TakeSent()
	if len(resent) != 1 || resent[0].To != 2 || resent[0].M.(msg.ClientRequest).Seq != second {
		t.Fatalf("tick at the second Put's due time resent %+v, want it alone to server 2", resent)
	}
	h.b.close()
	<-h.result
	<-h.result
}

// TestBridgeFollowsWriteRedirect is decision 3's guard: a Put a replica
// refuses with a redirect is resent at once to the replica it names,
// under its original seq, and the caller gets the eventual value — not
// a "request rejected" error.
func TestBridgeFollowsWriteRedirect(t *testing.T) {
	h := newBridgeHarness(t, 4, readpath.Consensus)
	sent := h.call(msg.OpPut, "k")
	if len(sent) != 1 || sent[0].To != 0 {
		t.Fatalf("first transmission %+v, want one request to server 0", sent)
	}
	req := sent[0].M.(msg.ClientRequest)
	h.b.Receive(h.ctx, 0, msg.ClientReply{Seq: req.Seq, OK: false, Redirect: 2})
	resent := h.ctx.TakeSent()
	if len(resent) != 1 || resent[0].To != 2 {
		t.Fatalf("after the redirect the bridge sent %+v, want one request to server 2", resent)
	}
	if again := resent[0].M.(msg.ClientRequest); again.Seq != req.Seq || again.Cmd != req.Cmd {
		t.Fatalf("resend = %+v, want the original seq and command of %+v", again, req)
	}
	select {
	case got := <-h.result:
		t.Fatalf("caller finished with %q on the redirect", got)
	default:
	}
	h.b.Receive(h.ctx, 2, msg.ClientReply{Seq: req.Seq, OK: true, Result: "stored"})
	h.wantResult("k=stored")
}
