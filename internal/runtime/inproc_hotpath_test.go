package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"consensusinside/internal/msg"
)

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
