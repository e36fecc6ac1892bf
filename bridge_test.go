package consensusinside

import (
	"fmt"
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/readpath"
	"consensusinside/internal/runtime"
)

// bridgeHarness drives a kvBridge by hand: the test plays the bridge
// node's goroutine (Receive/Timer on a FakeContext) and the replicas
// (it writes the replies), while real goroutines block in do/doRead.
type bridgeHarness struct {
	t      *testing.T
	b      *kvBridge
	ctx    *runtime.FakeContext
	wakes  chan struct{}
	result chan string // one "key=value" or "key!error" per finished call
}

func newBridgeHarness(t *testing.T, window int, mode readpath.Mode) *bridgeHarness {
	h := &bridgeHarness{
		t:   t,
		b:   newKVBridge(3, []msg.NodeID{0, 1, 2}, 10*time.Millisecond, window, 0, 1, 0, false, mode),
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
		var res string
		var err error
		if op == msg.OpGet {
			res, err = h.b.doRead(cmd, time.Minute)
		} else {
			res, err = h.b.do(cmd, time.Minute)
		}
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
	if got := h.b.writeGrows.Load(); got < 2 {
		t.Fatalf("write ring grew %d times across a span of %d from %d slots, want at least 2", got, 10*window+1, window)
	}

	// One more stays outstanding next to the pinned one; the retry scan
	// must resend both in one request, oldest first.
	last := h.call(msg.OpPut, "last")[0].M.(msg.ClientRequest).Seq
	h.ctx.Clock += 20 * time.Millisecond
	h.b.Timer(h.ctx, runtime.TimerTag{Kind: kvTimerRetry})
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
	if low := h.b.inflight.Low(); low != last {
		t.Fatalf("ack floor = %d after the pinned flight retired, want %d", low, last)
	}
	h.b.Receive(h.ctx, 1, msg.ClientReply{Seq: last, OK: true, Result: "done"})
	h.wantResult("last=done")
	// A stale duplicate of a long-retired reply is ignored.
	h.b.Receive(h.ctx, 1, msg.ClientReply{Seq: pinned, OK: true, Result: "dup"})
	if h.b.inflight.Len() != 0 {
		t.Fatalf("%d flights left in the window, want none", h.b.inflight.Len())
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
	for i := 0; i < 5; i++ {
		h.call(msg.OpPut, fmt.Sprintf("w%d", i))
		h.call(msg.OpGet, fmt.Sprintf("r%d", i))
	}
	// The read lane admits maxReadRequests requests; the rest queue, and
	// the scan sweeps that queue too.
	if h.b.inflight.Len() != 5 || h.b.readInflight.Len() != maxReadRequests || len(h.b.readQueue) != 5-maxReadRequests {
		t.Fatalf("set-up left %d writes in flight, %d reads in flight and %d queued",
			h.b.inflight.Len(), h.b.readInflight.Len(), len(h.b.readQueue))
	}
	ctx := nullContext{h.ctx}
	for _, kind := range []int{kvTimerRetry, kvTimerReadRetry} {
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

// TestStampDeadlinesTouchesOnlyTheUnseenTail: ops a pump already saw
// keep the deadline they got then; only the run appended since is
// stamped, ops without a timeout included in the walk but left alone.
func TestStampDeadlinesTouchesOnlyTheUnseenTail(t *testing.T) {
	queue := []kvOp{
		{deadline: 7},               // a redirect requeue, deadline carried over
		{timeout: 100, deadline: 5}, // stamped by an earlier pump
		{timeout: 100},              // new
		{},                          // new, no timeout
		{timeout: 200},              // new
	}
	stampDeadlines(queue, 1000)
	want := []time.Duration{7, 5, 1100, 0, 1200}
	for i, op := range queue {
		if op.deadline != want[i] {
			t.Errorf("queue[%d].deadline = %d, want %d", i, op.deadline, want[i])
		}
	}
}
