package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"consensusinside/internal/msg"
)

type echoMsg struct{ N int }

func (echoMsg) Kind() string { return "echo" }

func TestInProcDelivery(t *testing.T) {
	var got atomic.Int64
	done := make(chan struct{}, 1)
	const total = 100
	receiver := HandlerFunc{
		OnReceive: func(ctx Context, from msg.NodeID, m msg.Message) {
			if got.Add(1) == total {
				done <- struct{}{}
			}
		},
	}
	sender := HandlerFunc{
		OnStart: func(ctx Context) {
			for i := 0; i < total; i++ {
				ctx.Send(1, echoMsg{N: i})
			}
		},
	}
	c := NewInProcCluster([]Handler{sender, receiver})
	defer c.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out; received %d of %d", got.Load(), total)
	}
}

func TestInProcPairwiseFIFO(t *testing.T) {
	type rec struct {
		from msg.NodeID
		n    int
	}
	recCh := make(chan rec, 4000)
	receiver := HandlerFunc{
		OnReceive: func(ctx Context, from msg.NodeID, m msg.Message) {
			recCh <- rec{from: from, n: m.(echoMsg).N}
		},
	}
	mkSender := func() Handler {
		return HandlerFunc{
			OnStart: func(ctx Context) {
				for i := 0; i < 1000; i++ {
					ctx.Send(2, echoMsg{N: i})
				}
			},
		}
	}
	c := NewInProcCluster([]Handler{mkSender(), mkSender(), receiver})
	defer c.Stop()

	lastByFrom := map[msg.NodeID]int{0: -1, 1: -1}
	for i := 0; i < 2000; i++ {
		select {
		case r := <-recCh:
			if r.n != lastByFrom[r.from]+1 {
				t.Fatalf("from %d: got %d after %d (per-pair FIFO violated)", r.from, r.n, lastByFrom[r.from])
			}
			lastByFrom[r.from] = r.n
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d messages", i)
		}
	}
}

func TestFakeContext(t *testing.T) {
	f := NewFakeContext(3, 5)
	if f.ID() != 3 || f.N() != 5 {
		t.Fatalf("identity wrong: %d/%d", f.ID(), f.N())
	}
	f.Send(1, echoMsg{N: 1})
	f.Send(2, echoMsg{N: 2})
	f.Send(1, echoMsg{N: 3})
	if got := len(f.SentTo(1)); got != 2 {
		t.Fatalf("SentTo(1) = %d messages, want 2", got)
	}
	if f.LastSent().To != 1 {
		t.Fatal("LastSent wrong")
	}
	cancel := f.After(time.Second, TimerTag{Kind: 9})
	cancel()
	if !f.Timers[0].Cancelled {
		t.Fatal("cancel not recorded")
	}
	if len(f.TakeSent()) != 3 || len(f.Sent) != 0 {
		t.Fatal("TakeSent must drain")
	}
}

// TestInProcStopRestartNode covers the crash/restart lifecycle: a
// stopped node's traffic is discarded without blocking senders (the
// node loop keeps sweeping over a discarding handler), and a restarted
// node's fresh handler receives traffic again.
func TestInProcStopRestartNode(t *testing.T) {
	var first, second, floods atomic.Int64
	mkReceiver := func(n *atomic.Int64) Handler {
		return HandlerFunc{
			OnReceive: func(ctx Context, from msg.NodeID, m msg.Message) { n.Add(1) },
		}
	}
	// Node 0 answers each message with a burst to node 1 that is several
	// times what the bounded peer queue holds.
	flooder := HandlerFunc{
		OnReceive: func(ctx Context, from msg.NodeID, m msg.Message) {
			for i := 0; i < 5*queueCap; i++ {
				ctx.Send(1, echoMsg{N: i})
			}
			floods.Add(1)
		},
	}
	c := NewInProcCluster([]Handler{flooder, mkReceiver(&first)})
	defer c.Stop()

	c.Inject(0, 1, echoMsg{N: 0})
	waitFor(t, func() bool { return first.Load() == 1 })

	if err := c.StopNode(1); err != nil {
		t.Fatalf("StopNode: %v", err)
	}
	if err := c.StopNode(1); err == nil {
		t.Fatal("double StopNode succeeded")
	}
	if err := c.StopNode(99); err == nil {
		t.Fatal("StopNode(99) succeeded")
	}
	// Far more messages than the 0->1 queue holds: the stopped node must
	// keep discarding or node 0's sends would pile up behind the full
	// queue.
	c.Inject(msg.Nobody, 0, echoMsg{})
	waitFor(t, func() bool { return floods.Load() == 1 })
	for i := 0; i < 5000; i++ {
		c.Inject(0, 1, echoMsg{N: i})
	}
	if err := c.RestartNode(99, HandlerFunc{}); err == nil {
		t.Fatal("RestartNode(99) succeeded")
	}
	if err := c.RestartNode(1, mkReceiver(&second)); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	if err := c.RestartNode(1, HandlerFunc{}); err == nil {
		t.Fatal("RestartNode of a running node succeeded")
	}
	c.Inject(0, 1, echoMsg{N: 1})
	waitFor(t, func() bool { return second.Load() >= 1 })
	// A peer burst sent after the restart reaches the new handler whole:
	// what the queue has no room for waits at the sender, it is not
	// dropped.
	before := second.Load()
	c.Inject(msg.Nobody, 0, echoMsg{})
	waitFor(t, func() bool { return second.Load() >= before+5*queueCap })
	if got := first.Load(); got != 1 {
		t.Errorf("old handler received %d messages, want 1 (none after the stop)", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}
