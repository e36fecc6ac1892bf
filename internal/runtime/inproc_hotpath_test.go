package runtime

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"consensusinside/internal/msg"
)

// TestInProcTimerFloodOnStalledNode is the regression test for the
// stalled-node timer hazard: 1000 zero-delay timers fire against a node
// whose handler is wedged inside Receive. Every fire must land in the
// node's unbounded mailbox and its callback goroutine must exit — none
// may block on the stalled node, so the goroutine count stays flat — and
// every fire must be delivered once the node moves again.
func TestInProcTimerFloodOnStalledNode(t *testing.T) {
	const floods = 1000
	var fired atomic.Int64
	allFired := make(chan struct{})
	stall := make(chan struct{})
	stalled := make(chan struct{}, 1)
	ctxCh := make(chan Context, 1)
	h := HandlerFunc{
		OnStart: func(ctx Context) { ctxCh <- ctx },
		OnReceive: func(ctx Context, from msg.NodeID, m msg.Message) {
			stalled <- struct{}{}
			<-stall // wedge the node goroutine mid-callback
		},
		OnTimer: func(ctx Context, tag TimerTag) {
			if fired.Add(1) == floods {
				close(allFired)
			}
		},
	}
	c := NewInProcCluster([]Handler{h})
	defer c.Stop()
	ctx := <-ctxCh

	c.Inject(msg.Nobody, 0, echoMsg{})
	<-stalled // the node is now wedged; nothing drains its mailbox
	before := goruntime.NumGoroutine()

	for i := 0; i < floods; i++ {
		ctx.After(0, TimerTag{Kind: 1, Arg: int64(i)})
	}
	// Every fire must reach the mailbox and its callback goroutine exit;
	// with a bounded timer channel and a blocking fallback this is where
	// 900+ callback goroutines would pile up.
	node := c.nodes[0]
	deadline := time.After(10 * time.Second)
	for {
		node.mu.Lock()
		posted := len(node.inbox)
		node.mu.Unlock()
		if posted == floods && goruntime.NumGoroutine() <= before {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("stalled node: %d of %d fires in the mailbox, %d goroutines (was %d before the flood)",
				posted, floods, goruntime.NumGoroutine(), before)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	close(stall) // un-wedge; every flooded timer must now be delivered
	select {
	case <-allFired:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d of %d flooded timers delivered", fired.Load(), floods)
	}
}

// TestInProcSelfRingOverflowKeepsFIFO pushes a burst of self-sends far
// past a peer queue's depth in one callback: the self-send slice has no
// bound to overflow, and must deliver the burst in FIFO order.
func TestInProcSelfRingOverflowKeepsFIFO(t *testing.T) {
	const burst = 3000 // well past the 1024 slots of a peer queue
	var next atomic.Int64
	done := make(chan struct{})
	h := HandlerFunc{
		OnStart: func(ctx Context) {
			for i := 0; i < burst; i++ {
				ctx.Send(ctx.ID(), echoMsg{N: i})
			}
		},
		OnReceive: func(ctx Context, from msg.NodeID, m msg.Message) {
			n := int64(m.(echoMsg).N)
			if next.Load() != n {
				t.Errorf("self-send order: got %d, want %d", n, next.Load())
			}
			if next.Add(1) == burst {
				close(done)
			}
		},
	}
	c := NewInProcCluster([]Handler{h})
	defer c.Stop()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("delivered %d of %d self-sends", next.Load(), burst)
	}
}

// TestInProcBatchBurstFairness pushes bursts from two senders at one
// receiver: batched sweeps must deliver everything, and per-pair FIFO
// must hold through the batch path.
func TestInProcBatchBurstFairness(t *testing.T) {
	const perSender = 5000
	type rec struct {
		from msg.NodeID
		n    int
	}
	recCh := make(chan rec, 2*perSender)
	receiver := HandlerFunc{
		OnReceive: func(ctx Context, from msg.NodeID, m msg.Message) {
			recCh <- rec{from: from, n: m.(echoMsg).N}
		},
	}
	mkSender := func() Handler {
		return HandlerFunc{
			OnStart: func(ctx Context) {
				for i := 0; i < perSender; i++ {
					ctx.Send(2, echoMsg{N: i})
				}
			},
		}
	}
	c := NewInProcCluster([]Handler{mkSender(), mkSender(), receiver})
	defer c.Stop()
	lastByFrom := map[msg.NodeID]int{0: -1, 1: -1}
	for i := 0; i < 2*perSender; i++ {
		select {
		case r := <-recCh:
			if r.n != lastByFrom[r.from]+1 {
				t.Fatalf("from %d: got %d after %d (FIFO broken in batched sweep)", r.from, r.n, lastByFrom[r.from])
			}
			lastByFrom[r.from] = r.n
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d messages", i)
		}
	}
}
