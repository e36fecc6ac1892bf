package snapshot

// Tests for the Manager's one stall watchdog, driven on a FakeContext
// over a log with a hole: which goal it chases, what a tick does, and
// what a tick a paused core delivers late does.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/obs"
	"consensusinside/internal/rsm"
	"consensusinside/internal/runtime"
)

const watchRetry = 10 * time.Millisecond

// newWatched builds replica 1 of {0, 1, 2} with an empty log; peers are
// asked in the order 0, 2, 0, ...
func newWatched(t *testing.T, recover bool) (*Manager, *rsm.Log, *runtime.FakeContext, *obs.EventLog) {
	t.Helper()
	events := obs.NewEventLog(0)
	m, log, _, _ := buildServer(t, Config{ID: 1, Replicas: []msg.NodeID{0, 1, 2}, Recover: recover,
		RetryTimeout: watchRetry, Events: events}, 0)
	return m, log, runtime.NewFakeContext(1, 3), events
}

func decided(instances ...int64) []msg.Decided {
	out := make([]msg.Decided, len(instances))
	for i, in := range instances {
		out[i] = msg.Decided{Instance: in, Value: msg.Value{Client: 2, Seq: uint64(in + 1),
			Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: fmt.Sprint(in)}}}
	}
	return out
}

func learn(log *rsm.Log, instances ...int64) {
	for _, d := range decided(instances...) {
		log.Learn(d.Instance, d.Value)
	}
}

// withHole is instances 0-4 and 6-9: applies stop at 5, the learned
// frontier is 10.
var withHole = []int64{0, 1, 2, 3, 4, 6, 7, 8, 9}

// live returns the armed catch-up timers the Manager has not cancelled
// and the test has not fired; the watchdog keeps at most one.
func live(t *testing.T, ctx *runtime.FakeContext) []*runtime.FakeTimer {
	t.Helper()
	var out []*runtime.FakeTimer
	for i := range ctx.Timers {
		if tm := &ctx.Timers[i]; !tm.Cancelled && tm.Tag.Kind == timerCatchup {
			out = append(out, tm)
		}
	}
	if len(out) > 1 {
		t.Fatalf("%d catch-up timers armed at once", len(out))
	}
	return out
}

// fire advances the clock to the armed timer and delivers it.
func fire(t *testing.T, ctx *runtime.FakeContext, m *Manager) {
	t.Helper()
	armed := live(t, ctx)
	if len(armed) == 0 {
		t.Fatal("no catch-up timer armed")
	}
	armed[0].Cancelled = true // consumed
	ctx.Clock = armed[0].At
	m.HandleTimer(ctx, armed[0].Tag)
}

// requests returns the catch-up requests sent since the last call, as
// "to:from" pairs.
func requests(ctx *runtime.FakeContext) []string {
	var out []string
	for _, s := range ctx.TakeSent() {
		if r, ok := s.M.(msg.CatchupRequest); ok {
			out = append(out, fmt.Sprintf("%d:%d", s.To, r.From))
		}
	}
	return out
}

// toConvergence starts a recovering replica and ends its transfer with
// the hole still open: the goal is the learned frontier then, 10.
func toConvergence(t *testing.T) (*Manager, *rsm.Log, *runtime.FakeContext, *obs.EventLog) {
	t.Helper()
	m, log, ctx, events := newWatched(t, true)
	m.Start(ctx)
	m.Handle(ctx, 0, msg.CatchupEntries{Entries: decided(withHole...), Done: true})
	if m.CatchingUp() || m.Recovered() || log.NextToApply() != 5 || len(live(t, ctx)) != 1 {
		t.Fatalf("after the transfer: catching up %v, recovered %v, next %d, timers %d; want false, false, 5, 1",
			m.CatchingUp(), m.Recovered(), log.NextToApply(), len(live(t, ctx)))
	}
	ctx.TakeSent()
	return m, log, ctx, events
}

// toGap arms a recovered replica's watchdog on the hole at 5.
func toGap(t *testing.T) (*Manager, *rsm.Log, *runtime.FakeContext) {
	t.Helper()
	m, log, ctx, _ := newWatched(t, false)
	learn(log, withHole...)
	m.WatchGap(ctx)
	if len(live(t, ctx)) != 1 {
		t.Fatal("WatchGap armed no timer below a hole")
	}
	return m, log, ctx
}

// TestWatchdogGoal: with the hole at 5 filled, applies reach 11 while
// the learned frontier has moved on to 16 (a new hole at 11). A
// recovering replica's goal stayed at 10, the frontier when its transfer
// finished, so it has converged; a recovered replica's goal followed the
// frontier, so it keeps watching.
func TestWatchdogGoal(t *testing.T) {
	t.Run("recovering goal stays fixed", func(t *testing.T) {
		m, log, ctx, events := toConvergence(t)
		learn(log, 10, 12, 13, 14, 15)
		learn(log, 5)
		if log.NextToApply() != 11 || log.LearnedFrontier() != 16 {
			t.Fatalf("setup: next %d, learned %d", log.NextToApply(), log.LearnedFrontier())
		}
		fire(t, ctx, m)
		if !m.Recovered() || len(live(t, ctx)) != 0 {
			t.Fatalf("recovered %v with %d timers armed: the goal moved past 10", m.Recovered(), len(live(t, ctx)))
		}
		tail := events.Tail(0)
		if last := tail[len(tail)-1]; last.Kind != "recovery" || !strings.HasPrefix(last.Detail, "recovery converged at instance 10") {
			t.Errorf("last event %q %q, want recovery converged at instance 10", last.Kind, last.Detail)
		}
	})
	t.Run("recovered goal follows the learned frontier", func(t *testing.T) {
		m, log, ctx := toGap(t)
		learn(log, 10, 12, 13, 14, 15)
		learn(log, 5)
		fire(t, ctx, m)
		if len(live(t, ctx)) != 1 || len(requests(ctx)) != 0 {
			t.Fatal("the watchdog stopped at its first goal instead of following the learned frontier")
		}
	})
}

// TestWatchdogTick: a full RetryTimeout with no applies asks the next
// peer, applies re-arm without asking, and reaching the goal disarms.
func TestWatchdogTick(t *testing.T) {
	m, log, ctx := toGap(t)
	fire(t, ctx, m)
	if got := requests(ctx); len(got) != 1 || got[0] != "0:5" || len(live(t, ctx)) != 1 {
		t.Fatalf("stalled tick sent %v (want [0:5]) and left %d timers", got, len(live(t, ctx)))
	}
	fire(t, ctx, m)
	if got := requests(ctx); len(got) != 1 || got[0] != "2:5" {
		t.Fatalf("second stalled tick sent %v, want the next peer [2:5]", got)
	}
	learn(log, 5, 10, 12)
	fire(t, ctx, m)
	if got := requests(ctx); len(got) != 0 || len(live(t, ctx)) != 1 {
		t.Fatalf("a tick after progress sent %v and left %d timers, want none and 1", got, len(live(t, ctx)))
	}
	learn(log, 11)
	fire(t, ctx, m)
	if got := requests(ctx); len(got) != 0 || len(live(t, ctx)) != 0 || m.goal != 0 {
		t.Fatalf("at the goal: sent %v, %d timers, goal %d; want nothing armed and the watchdog off",
			got, len(live(t, ctx)), m.goal)
	}
}

// TestWatchdogLateTick: a paused core (simnet's Crash, then Recover)
// keeps its timers and fires the ones that came due at Recover, long
// after their deadline. Such a tick is one watchdog step in each of the
// watchdog's three states — the transfer, the convergence watch and the
// gap watch: it asks the next peer once and re-arms a full RetryTimeout
// from when it ran.
func TestWatchdogLateTick(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) (*Manager, *runtime.FakeContext)
		ask   string // the late tick's request, "to:from"
	}{
		{"transfer", func(t *testing.T) (*Manager, *runtime.FakeContext) {
			m, _, ctx, _ := newWatched(t, true)
			m.Start(ctx)
			ctx.TakeSent()
			return m, ctx
		}, "2:0"},
		{"convergence", func(t *testing.T) (*Manager, *runtime.FakeContext) {
			m, _, ctx, _ := toConvergence(t)
			return m, ctx
		}, "2:5"},
		{"gap", func(t *testing.T) (*Manager, *runtime.FakeContext) {
			m, _, ctx := toGap(t)
			return m, ctx
		}, "0:5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, ctx := tc.setup(t)
			late := live(t, ctx)[0]
			late.Cancelled = true // consumed
			ctx.Clock = late.At + 50*watchRetry
			m.HandleTimer(ctx, late.Tag)
			if got := requests(ctx); len(got) != 1 || got[0] != tc.ask {
				t.Fatalf("the late tick sent %v, want [%s]", got, tc.ask)
			}
			if armed := live(t, ctx); len(armed) != 1 || armed[0].At != ctx.Clock+watchRetry {
				t.Fatalf("the late tick armed %+v, want one timer a RetryTimeout after it ran", armed)
			}
		})
	}
}
