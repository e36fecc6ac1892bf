package replica_test

import (
	"slices"
	"testing"
	"time"

	"consensusinside/internal/replica"
	"consensusinside/internal/runtime"
)

const (
	deadlineKind = 1
	timeout      = 400 * time.Microsecond
)

// deadline drives one Outstanding on a fake context: it delivers the
// timers the set arms, in order, and answers learned from a set.
type deadline struct {
	o       *replica.Outstanding
	ctx     *runtime.FakeContext
	fired   int // timers delivered so far
	learned map[int64]bool
}

func newDeadline() *deadline {
	return &deadline{
		o:       replica.NewOutstanding(deadlineKind, timeout),
		ctx:     runtime.NewFakeContext(0, 3),
		learned: map[int64]bool{},
	}
}

func (d *deadline) sent(at time.Duration, in int64) {
	d.ctx.Clock = at
	d.o.Sent(d.ctx, in)
}

// fire delivers the next armed timer at its deadline plus late (the time
// it waited behind other input) and returns what Expire reports overdue.
func (d *deadline) fire(t *testing.T, late time.Duration) []int64 {
	t.Helper()
	if d.fired >= len(d.ctx.Timers) {
		t.Fatal("no timer armed")
	}
	tm := d.ctx.Timers[d.fired]
	d.fired++
	if tm.Tag.Kind != deadlineKind {
		t.Fatalf("timer kind %d, want %d", tm.Tag.Kind, deadlineKind)
	}
	d.ctx.Clock = tm.At + late
	return slices.Clone(d.o.Expire(d.ctx, func(in int64) bool { return d.learned[in] }))
}

// armed reports how many timers are pending: armed and not delivered.
func (d *deadline) armed() int { return len(d.ctx.Timers) - d.fired }

// TestOutstandingArmsOneTimer is the revert guard against a timer per
// instance: any number of accepts in flight share one pending timer.
func TestOutstandingArmsOneTimer(t *testing.T) {
	d := newDeadline()
	for in := int64(0); in < 16; in++ {
		d.sent(time.Duration(in)*time.Microsecond, in)
	}
	if n := len(d.ctx.Timers); n != 1 {
		t.Fatalf("16 accepts armed %d timers, want 1", n)
	}
	if at := d.ctx.Timers[0].At; at != timeout {
		t.Fatalf("the timer is due at %v, want %v (the first accept's deadline)", at, timeout)
	}
}

// TestOutstandingOverdueAtTimeoutNotBefore: an accept is overdue when
// the oldest unlearned one is Timeout old — the timer sleeps until then
// after its predecessor was learned, and an early fire reports nothing.
func TestOutstandingOverdueAtTimeoutNotBefore(t *testing.T) {
	d := newDeadline()
	d.sent(0, 1)
	d.sent(300*time.Microsecond, 2)
	d.o.Done(1) // learned at 350µs
	if got := d.fire(t, 0); len(got) != 0 {
		t.Fatalf("at 400µs the oldest outstanding accept is 100µs old, got overdue %v", got)
	}
	if at := d.ctx.Timers[d.fired].At; at != 700*time.Microsecond {
		t.Fatalf("re-armed for %v, want 700µs (instance 2's deadline)", at)
	}
	d.ctx.Clock = 699 * time.Microsecond
	if got := d.o.Expire(d.ctx, func(int64) bool { return false }); len(got) != 0 {
		t.Fatalf("a fire before the deadline reported %v overdue", got)
	}
	if got := d.fire(t, 0); !slices.Equal(got, []int64{2}) {
		t.Fatalf("at 700µs overdue = %v, want [2]", got)
	}
}

// TestOutstandingResendRestartsAge: re-sending an accept restarts its
// age, so the deadline moves with it.
func TestOutstandingResendRestartsAge(t *testing.T) {
	d := newDeadline()
	d.sent(0, 1)
	d.sent(300*time.Microsecond, 1)
	if got := d.fire(t, 0); len(got) != 0 {
		t.Fatalf("a re-sent accept is overdue %v at 400µs", got)
	}
	if got := d.fire(t, 0); !slices.Equal(got, []int64{1}) || d.ctx.Clock != 700*time.Microsecond {
		t.Fatalf("overdue %v at %v, want [1] at 700µs", got, d.ctx.Clock)
	}
}

// TestOutstandingLearnedNeverOverdue: an instance the log learned — by
// a learn, or a catch-up transfer the engine never saw — is never
// reported, and with nothing else outstanding the timer dies.
func TestOutstandingLearnedNeverOverdue(t *testing.T) {
	d := newDeadline()
	d.sent(0, 1)
	d.learned[1] = true
	if got := d.fire(t, 0); len(got) != 0 {
		t.Fatalf("a learned instance was reported overdue: %v", got)
	}
	if n := d.armed(); n != 0 {
		t.Fatalf("%d timers armed with nothing outstanding", n)
	}
}

// TestOutstandingDiesWhenIdle: no timer stays armed once nothing is
// outstanding, and the next accept arms a fresh one.
func TestOutstandingDiesWhenIdle(t *testing.T) {
	d := newDeadline()
	d.sent(0, 1)
	d.sent(10*time.Microsecond, 2)
	d.o.Done(1)
	d.o.Clear()
	d.fire(t, 0)
	if n := d.armed(); n != 0 {
		t.Fatalf("%d timers armed with nothing outstanding", n)
	}
	d.sent(time.Millisecond, 3)
	if n := d.armed(); n != 1 || d.ctx.Timers[d.fired].At != time.Millisecond+timeout {
		t.Fatalf("an accept after idling armed %d timers, want one due at %v", n, time.Millisecond+timeout)
	}
}

// TestOutstandingRecheckAfterSuspicion: an overdue accept that is not
// re-sent (1Paxos suspects the acceptor instead) is reported again one
// Timeout later, not on every fire in between.
func TestOutstandingRecheckAfterSuspicion(t *testing.T) {
	d := newDeadline()
	d.sent(0, 1)
	if got := d.fire(t, 0); !slices.Equal(got, []int64{1}) {
		t.Fatalf("overdue %v, want [1]", got)
	}
	if got := d.fire(t, 0); !slices.Equal(got, []int64{1}) || d.ctx.Clock != 2*timeout {
		t.Fatalf("overdue %v at %v, want [1] again at %v", got, d.ctx.Clock, 2*timeout)
	}
}

// TestOutstandingLateFire: a fire that waited behind other input reports
// only what was overdue when it came due. An accept that came due while
// it waited may have its learn in that input, so it is judged by a fire
// queued behind it — at once, not a Timeout later.
func TestOutstandingLateFire(t *testing.T) {
	d := newDeadline()
	d.sent(0, 1)
	d.sent(100*time.Microsecond, 2)
	if got := d.fire(t, 150*time.Microsecond); !slices.Equal(got, []int64{1}) {
		t.Fatalf("a fire due at 400µs, run at 550µs, reported %v, want [1]", got)
	}
	if at := d.ctx.Timers[d.fired].At; at != 550*time.Microsecond {
		t.Fatalf("re-armed for %v, want at once (550µs)", at)
	}
	if got := d.fire(t, 0); !slices.Equal(got, []int64{1, 2}) {
		t.Fatalf("the re-armed fire reported %v, want [1 2]", got)
	}
}
