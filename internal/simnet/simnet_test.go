package simnet

import (
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/runtime"
	"consensusinside/internal/topology"
)

type ping struct{ Hop int }

func (ping) Kind() string { return "ping" }

// collector records every receipt with its virtual time.
type collector struct {
	got []receipt
}

type receipt struct {
	from msg.NodeID
	m    msg.Message
	at   time.Duration
}

func (c *collector) Start(runtime.Context) {}
func (c *collector) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	c.got = append(c.got, receipt{from: from, m: m, at: ctx.Now()})
}
func (c *collector) Timer(runtime.Context, runtime.TimerTag) {}

func flatCost() CostModel {
	return CostModel{
		Send:        500 * time.Nanosecond,
		Recv:        500 * time.Nanosecond,
		Handler:     1000 * time.Nanosecond,
		SelfHandler: 200 * time.Nanosecond,
	}
}

func TestOneHopTiming(t *testing.T) {
	m := topology.Uniform(2, 550*time.Nanosecond)
	net := New(m, flatCost(), 1)
	sink := &collector{}
	sender := runtime.HandlerFunc{
		OnStart: func(ctx runtime.Context) { ctx.Send(1, ping{}) },
	}
	net.AddNode(sender)
	net.AddNode(sink)
	net.Start()
	net.RunFor(time.Millisecond)

	if len(sink.got) != 1 {
		t.Fatalf("sink received %d messages, want 1", len(sink.got))
	}
	// Start handler cost (1000) + send (500) -> departs at 1500;
	// arrival 1500+550 = 2050; receive cost 500+1000 -> handler sees
	// cursor 3550ns.
	want := 3550 * time.Nanosecond
	if got := sink.got[0].at; got != want {
		t.Fatalf("delivery cursor = %v, want %v", got, want)
	}
}

func TestPerPairFIFO(t *testing.T) {
	m := topology.Uniform(2, time.Microsecond)
	net := New(m, flatCost(), 1)
	sink := &collector{}
	sender := runtime.HandlerFunc{
		OnStart: func(ctx runtime.Context) {
			for i := 0; i < 20; i++ {
				ctx.Send(1, ping{Hop: i})
			}
		},
	}
	net.AddNode(sender)
	net.AddNode(sink)
	net.Start()
	net.RunFor(time.Millisecond)
	if len(sink.got) != 20 {
		t.Fatalf("received %d, want 20", len(sink.got))
	}
	for i, r := range sink.got {
		if r.m.(ping).Hop != i {
			t.Fatalf("message %d out of order: got hop %d", i, r.m.(ping).Hop)
		}
	}
}

func TestSlowCoreScalesCosts(t *testing.T) {
	run := func(slow float64) time.Duration {
		m := topology.Uniform(2, 550*time.Nanosecond)
		net := New(m, flatCost(), 1)
		sink := &collector{}
		net.AddNode(runtime.HandlerFunc{
			OnStart: func(ctx runtime.Context) { ctx.Send(1, ping{}) },
		})
		net.AddNode(sink)
		net.SetSlow(1, slow)
		net.Start()
		net.RunFor(time.Millisecond)
		if len(sink.got) != 1 {
			t.Fatalf("received %d, want 1", len(sink.got))
		}
		return sink.got[0].at
	}
	fast, slow := run(1), run(9)
	// Fast: arrival 2.05µs (start 1µs + send 0.5 + prop 0.55), receiver
	// idle after its 1µs Start, so delivery cursor = 2.05 + 1.5 = 3.55µs.
	if want := 3550 * time.Nanosecond; fast != want {
		t.Fatalf("fast delivery = %v, want %v", fast, want)
	}
	// Slow (9x): receiver's Start costs 9µs, so processing begins at 9µs
	// (after the 2.05µs arrival) and the receive costs 13.5µs: 22.5µs.
	if want := 22500 * time.Nanosecond; slow != want {
		t.Fatalf("slow delivery = %v, want %v", slow, want)
	}
}

func TestCrashDropsMessages(t *testing.T) {
	m := topology.Uniform(2, time.Microsecond)
	net := New(m, flatCost(), 1)
	sink := &collector{}
	net.AddNode(runtime.HandlerFunc{
		OnStart: func(ctx runtime.Context) { ctx.Send(1, ping{}) },
	})
	net.AddNode(sink)
	net.Crash(1)
	net.Start()
	net.RunFor(time.Millisecond)
	if len(sink.got) != 0 {
		t.Fatalf("crashed core received %d messages", len(sink.got))
	}
	if st := net.Stats(1); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	if !net.Crashed(1) {
		t.Fatal("Crashed(1) should be true")
	}
}

func TestRecoverDeliversNewMessages(t *testing.T) {
	m := topology.Uniform(2, time.Microsecond)
	net := New(m, flatCost(), 1)
	sink := &collector{}
	sender := runtime.HandlerFunc{
		OnStart: func(ctx runtime.Context) {
			ctx.After(10*time.Microsecond, runtime.TimerTag{Kind: 1})
		},
		OnTimer: func(ctx runtime.Context, _ runtime.TimerTag) {
			ctx.Send(1, ping{})
		},
	}
	net.AddNode(sender)
	net.AddNode(sink)
	net.Crash(1)
	net.Start()
	net.At(5*time.Microsecond, func() { net.Recover(1) })
	net.RunFor(time.Millisecond)
	if len(sink.got) != 1 {
		t.Fatalf("recovered core received %d, want 1", len(sink.got))
	}
}

// TestCrashKeepsTimers: a paused core keeps its timers. The ones that
// come due meanwhile fire once each at Recover, in deadline order; a
// cancelled one never fires, whether it was cancelled before the pause
// or by a handler that ran at Recover; messages are still dropped.
func TestCrashKeepsTimers(t *testing.T) {
	m := topology.Uniform(2, time.Microsecond)
	net := New(m, flatCost(), 1)
	type fire struct {
		kind int
		at   time.Duration
	}
	var fired []fire
	var cancelC runtime.CancelFunc
	net.AddNode(runtime.HandlerFunc{
		OnStart: func(ctx runtime.Context) {
			ctx.After(30*time.Microsecond, runtime.TimerTag{Kind: 3})
			ctx.After(20*time.Microsecond, runtime.TimerTag{Kind: 1})
			cancelC = ctx.After(25*time.Microsecond, runtime.TimerTag{Kind: 2})
			ctx.After(15*time.Microsecond, runtime.TimerTag{Kind: 4})()
		},
		OnTimer: func(ctx runtime.Context, tag runtime.TimerTag) {
			fired = append(fired, fire{tag.Kind, ctx.Now()})
			if tag.Kind == 1 {
				cancelC()
			}
		},
	})
	net.AddNode(&collector{})
	net.Start()
	net.At(10*time.Microsecond, func() { net.Crash(0) })
	net.At(50*time.Microsecond, func() { net.Inject(1, 0, ping{}) })
	net.At(100*time.Microsecond, func() { net.Recover(0) })
	net.RunFor(time.Millisecond)

	if len(fired) != 2 || fired[0].kind != 1 || fired[1].kind != 3 {
		t.Fatalf("fired %+v, want kinds 1 then 3", fired)
	}
	for _, f := range fired {
		if f.at < 100*time.Microsecond {
			t.Fatalf("timer %d fired at %v, while its core was paused", f.kind, f.at)
		}
	}
	st := net.Stats(0)
	if st.Timers != 2 || st.Received != 0 || st.Dropped != 1 {
		t.Fatalf("Timers %d, Received %d, Dropped %d; want 2, 0, 1", st.Timers, st.Received, st.Dropped)
	}
}

func TestSelfSendCrossesNoBoundary(t *testing.T) {
	m := topology.Uniform(1, time.Microsecond)
	net := New(m, flatCost(), 1)
	var selfAt time.Duration
	h := runtime.HandlerFunc{}
	h.OnStart = func(ctx runtime.Context) { ctx.Send(0, ping{}) }
	h.OnReceive = func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
		selfAt = ctx.Now()
	}
	net.AddNode(h)
	net.Start()
	net.RunFor(time.Millisecond)
	st := net.Stats(0)
	if st.Sent != 0 || st.Received != 0 {
		t.Fatalf("self send must not count as boundary crossing: %+v", st)
	}
	if st.SelfMsgs != 1 {
		t.Fatalf("SelfMsgs = %d, want 1", st.SelfMsgs)
	}
	// Start cost 1000ns; self delivery processes at cursor + SelfHandler:
	// 1000 + 200 = 1200ns.
	if want := 1200 * time.Nanosecond; selfAt != want {
		t.Fatalf("self delivery at %v, want %v", selfAt, want)
	}
}

func TestTimerFiresAndCancelWorks(t *testing.T) {
	m := topology.Uniform(1, time.Microsecond)
	net := New(m, flatCost(), 1)
	var fired []runtime.TimerTag
	var cancel runtime.CancelFunc
	h := runtime.HandlerFunc{
		OnStart: func(ctx runtime.Context) {
			ctx.After(10*time.Microsecond, runtime.TimerTag{Kind: 1, Arg: 7})
			cancel = ctx.After(20*time.Microsecond, runtime.TimerTag{Kind: 2})
		},
		OnTimer: func(ctx runtime.Context, tag runtime.TimerTag) {
			fired = append(fired, tag)
			if tag.Kind == 1 {
				cancel()
			}
		},
	}
	net.AddNode(h)
	net.Start()
	net.RunFor(time.Millisecond)
	if len(fired) != 1 || fired[0].Kind != 1 || fired[0].Arg != 7 {
		t.Fatalf("fired = %+v, want only kind-1 arg-7", fired)
	}
	if st := net.Stats(0); st.Timers != 1 {
		t.Fatalf("Timers = %d, want 1", st.Timers)
	}
}

func TestBusyCoreSerializesWork(t *testing.T) {
	// Two senders hit one sink simultaneously; deliveries must be spaced
	// by at least the sink's per-message cost.
	m := topology.Uniform(3, time.Microsecond)
	net := New(m, flatCost(), 1)
	mk := func() runtime.Handler {
		return runtime.HandlerFunc{
			OnStart: func(ctx runtime.Context) { ctx.Send(2, ping{}) },
		}
	}
	sink := &collector{}
	net.AddNode(mk())
	net.AddNode(mk())
	net.AddNode(sink)
	net.Start()
	net.RunFor(time.Millisecond)
	if len(sink.got) != 2 {
		t.Fatalf("received %d, want 2", len(sink.got))
	}
	gap := sink.got[1].at - sink.got[0].at
	if perMsg := 1500 * time.Nanosecond; gap < perMsg {
		t.Fatalf("deliveries %v apart; sink per-message cost is %v", gap, perMsg)
	}
}

func TestStatsCountMessages(t *testing.T) {
	m := topology.Uniform(2, time.Microsecond)
	net := New(m, flatCost(), 1)
	sink := &collector{}
	net.AddNode(runtime.HandlerFunc{
		OnStart: func(ctx runtime.Context) {
			ctx.Send(1, ping{})
			ctx.Send(1, ping{})
		},
	})
	net.AddNode(sink)
	net.Start()
	net.RunFor(time.Millisecond)
	if got := net.Stats(0).Sent; got != 2 {
		t.Fatalf("sender Sent = %d, want 2", got)
	}
	if got := net.Stats(1).Received; got != 2 {
		t.Fatalf("receiver Received = %d, want 2", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []receipt {
		m := topology.Opteron8()
		net := New(m, ManyCore(), seed)
		sink := &collector{}
		for i := 0; i < 4; i++ {
			i := i
			net.AddNode(runtime.HandlerFunc{
				OnStart: func(ctx runtime.Context) {
					d := time.Duration(ctx.Rand().Intn(1000)) * time.Nanosecond
					ctx.After(d, runtime.TimerTag{Kind: i})
				},
				OnTimer: func(ctx runtime.Context, _ runtime.TimerTag) {
					ctx.Send(4, ping{Hop: i})
				},
			})
		}
		net.AddNode(sink)
		net.Start()
		net.RunFor(time.Millisecond)
		return sink.got
	}
	a, b := run(3), run(3)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAddNodeBeyondMachinePanics(t *testing.T) {
	m := topology.Uniform(1, time.Microsecond)
	net := New(m, flatCost(), 1)
	net.AddNode(&collector{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic adding node beyond machine size")
		}
	}()
	net.AddNode(&collector{})
}

func TestManyCoreCostModelMatchesPaperTransmission(t *testing.T) {
	// Section 3: transmission delay 0.5µs on the 48-core machine.
	if got := ManyCore().Send; got != 500*time.Nanosecond {
		t.Fatalf("ManyCore Send = %v, want 500ns", got)
	}
	if got := LAN().Send; got != 2*time.Microsecond {
		t.Fatalf("LAN Send = %v, want 2µs", got)
	}
}
