package runtime_test

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/runtime"
	"consensusinside/internal/transport"
)

// The node contract, checked on both real runtimes: each test below
// runs once per row — in-process with a core per node, in-process with
// every node on one core, and over loopback TCP.

// cluster is a started runtime as a test drives it.
type cluster struct {
	inject func(from, to msg.NodeID, m msg.Message)
	stop   func()
}

var runtimes = []struct {
	name  string
	start func(t *testing.T, handlers []runtime.Handler) cluster
}{
	{"inproc", func(t *testing.T, handlers []runtime.Handler) cluster {
		c := runtime.NewInProcCluster(handlers)
		return cluster{inject: c.Inject, stop: c.Stop}
	}},
	{"inproc-cohosted", func(t *testing.T, handlers []runtime.Handler) cluster {
		c := runtime.NewInProcGroups([][]runtime.Handler{handlers}, 1)
		return cluster{inject: c.Inject, stop: c.Stop}
	}},
	{"tcp", func(t *testing.T, handlers []runtime.Handler) cluster {
		nodes, err := transport.BuildLocalCluster(handlers)
		if err != nil {
			t.Fatal(err)
		}
		return cluster{
			inject: func(from, to msg.NodeID, m msg.Message) { nodes[to].Inject(from, m) },
			stop: func() {
				for _, n := range nodes {
					n.Close()
				}
			},
		}
	}},
}

// eachRuntime runs test once per runtime, as a subtest named after it.
func eachRuntime(t *testing.T, test func(t *testing.T, start func([]runtime.Handler) cluster)) {
	for _, rt := range runtimes {
		t.Run(rt.name, func(t *testing.T) {
			test(t, func(handlers []runtime.Handler) cluster { return rt.start(t, handlers) })
		})
	}
}

// wedge is a handler that blocks inside its first Receive until release
// is called, so a test can pile input up behind a stalled actor.
type wedge struct {
	stalled chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func newWedge() *wedge {
	return &wedge{stalled: make(chan struct{}), gate: make(chan struct{})}
}

// hold is called from Receive; only the first call blocks.
func (w *wedge) hold() {
	select {
	case <-w.stalled:
	default:
		close(w.stalled)
		<-w.gate
	}
}

func (w *wedge) release() { w.once.Do(func() { close(w.gate) }) }

func TestInProcSelfSend(t *testing.T) {
	eachRuntime(t, func(t *testing.T, start func([]runtime.Handler) cluster) {
		done := make(chan msg.NodeID, 1)
		h := runtime.HandlerFunc{
			OnStart: func(ctx runtime.Context) { ctx.Send(ctx.ID(), msg.ClientRequest{}) },
			OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
				done <- from
			},
		}
		c := start([]runtime.Handler{h})
		defer c.stop()
		select {
		case from := <-done:
			if from != 0 {
				t.Fatalf("self send reported from %d", from)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("self send never delivered")
		}
	})
}

func TestInProcTimers(t *testing.T) {
	eachRuntime(t, func(t *testing.T, start func([]runtime.Handler) cluster) {
		fired := make(chan runtime.TimerTag, 2)
		h := runtime.HandlerFunc{
			OnStart: func(ctx runtime.Context) {
				ctx.After(time.Millisecond, runtime.TimerTag{Kind: 1, Arg: 42})
				cancel := ctx.After(100*time.Millisecond, runtime.TimerTag{Kind: 2})
				cancel() // must never fire
			},
			OnTimer: func(ctx runtime.Context, tag runtime.TimerTag) { fired <- tag },
		}
		c := start([]runtime.Handler{h})
		defer c.stop()
		select {
		case tag := <-fired:
			if tag.Kind != 1 || tag.Arg != 42 {
				t.Fatalf("wrong tag %+v", tag)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timer never fired")
		}
		select {
		case tag := <-fired:
			t.Fatalf("cancelled timer fired: %+v", tag)
		case <-time.After(200 * time.Millisecond):
		}
	})
}

// TestInProcInject posts far more messages than any runtime queue holds
// at a node wedged inside Receive: every Inject must return while the
// node is stalled, and every message must then be delivered, in order.
func TestInProcInject(t *testing.T) {
	const injected = 3000 // well past a peer queue's 1024 slots
	eachRuntime(t, func(t *testing.T, start func([]runtime.Handler) cluster) {
		w := newWedge()
		var next atomic.Int64
		done := make(chan struct{})
		h := runtime.HandlerFunc{
			OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
				w.hold()
				n := next.Add(1) - 1
				if seq := m.(msg.ClientRequest).Seq; seq != uint64(n) || from != msg.Nobody {
					t.Errorf("delivery %d: seq %d from %d", n, seq, from)
				}
				if n+1 == injected {
					close(done)
				}
			},
		}
		c := start([]runtime.Handler{h})
		defer c.stop()
		defer w.release()

		c.inject(msg.Nobody, 0, msg.ClientRequest{Seq: 0})
		<-w.stalled
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			for i := 1; i < injected; i++ {
				c.inject(msg.Nobody, 0, msg.ClientRequest{Seq: uint64(i)})
			}
		}()
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatal("Inject blocked on a stalled node")
		}
		w.release()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("delivered %d of %d injected messages", next.Load(), injected)
		}
	})
}

func TestInProcStopIsClean(t *testing.T) {
	eachRuntime(t, func(t *testing.T, start func([]runtime.Handler) cluster) {
		sizes := make(chan int, 2)
		h := runtime.HandlerFunc{
			OnStart: func(ctx runtime.Context) {
				sizes <- ctx.N()
				ctx.After(time.Hour, runtime.TimerTag{Kind: 1}) // pending at stop
			},
		}
		c := start([]runtime.Handler{h, h})
		for range 2 {
			if n := <-sizes; n != 2 {
				t.Errorf("N = %d, want 2", n)
			}
		}
		stopped := make(chan struct{})
		go func() {
			c.stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatal("stop hung with a pending timer")
		}
	})
}

// TestInProcTimerFloodOnStalledNode is the regression test for the
// stalled-node timer hazard: 1000 zero-delay timers fire against a node
// whose handler is wedged inside Receive. Every fire must land in the
// node's unbounded mailbox and its callback goroutine must exit — none
// may block on the stalled node, so the goroutine count returns to where
// it was — and every fire must be delivered once the node moves again.
func TestInProcTimerFloodOnStalledNode(t *testing.T) {
	const floods = 1000
	eachRuntime(t, func(t *testing.T, start func([]runtime.Handler) cluster) {
		w := newWedge()
		var fired atomic.Int64
		allFired := make(chan struct{})
		ctxCh := make(chan runtime.Context, 1)
		h := runtime.HandlerFunc{
			OnStart:   func(ctx runtime.Context) { ctxCh <- ctx },
			OnReceive: func(runtime.Context, msg.NodeID, msg.Message) { w.hold() },
			OnTimer: func(ctx runtime.Context, tag runtime.TimerTag) {
				if fired.Add(1) == floods {
					close(allFired)
				}
			},
		}
		c := start([]runtime.Handler{h})
		defer c.stop()
		defer w.release()
		ctx := <-ctxCh

		c.inject(msg.Nobody, 0, msg.ClientRequest{})
		<-w.stalled // the node is now wedged; nothing drains its input
		before := goruntime.NumGoroutine()
		armed := time.Now()
		for i := 0; i < floods; i++ {
			ctx.After(0, runtime.TimerTag{Kind: 1, Arg: int64(i)})
		}
		// The fires' callback goroutines come and go within a few
		// milliseconds; one that blocks on the stalled node stays. So the
		// count must be back to its baseline once they have run.
		deadline := armed.Add(10 * time.Second)
		for time.Since(armed) < 100*time.Millisecond || goruntime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("stalled node: %d goroutines, %d before the flood: timer callbacks are blocked on it",
					goruntime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}

		w.release() // every flooded timer must now be delivered
		select {
		case <-allFired:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d flooded timers delivered", fired.Load(), floods)
		}
	})
}
