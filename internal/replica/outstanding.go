package replica

import (
	"slices"
	"time"

	"consensusinside/internal/runtime"
)

// Outstanding is a leader's accepts awaiting their learn, under one
// failure-detector timer for all of them — the shape of the client
// lane's retry timer (DESIGN.md, "Retry (`Scan`)"). Each instance
// records when its accept was last sent; the timer sleeps until the
// oldest of them is Timeout old, and dies when nothing is outstanding.
// A timer per instance would cost the real runtimes a time.AfterFunc and
// its closures on every commit, and a timer-heap insert and delete.
type Outstanding struct {
	timeout time.Duration
	tag     runtime.TimerTag
	sentAt  map[int64]time.Duration
	armed   bool          // the timer is pending
	due     time.Duration // when the pending timer was set to fire
	overdue []int64       // Expire's result, reused
}

// NewOutstanding returns an empty set whose timer fires with tag kind
// once an accept has gone timeout without its learn.
func NewOutstanding(kind int, timeout time.Duration) *Outstanding {
	return &Outstanding{timeout: timeout, tag: runtime.TimerTag{Kind: kind}, sentAt: make(map[int64]time.Duration)}
}

// Sent records that instance in's accept went out now — a re-send
// restarts its age — and arms the timer unless it is pending.
func (o *Outstanding) Sent(ctx runtime.Context, in int64) {
	now := ctx.Now()
	o.sentAt[in] = now
	if !o.armed {
		o.arm(ctx, now, now+o.timeout)
	}
}

func (o *Outstanding) arm(ctx runtime.Context, now, due time.Duration) {
	o.armed, o.due = true, due
	ctx.After(max(due-now, 0), o.tag)
}

// Done drops instance in: learned, applied or given up.
func (o *Outstanding) Done(in int64) { delete(o.sentAt, in) }

// Clear drops every instance; a pending timer finds nothing and dies.
func (o *Outstanding) Clear() { clear(o.sentAt) }

// Expire is the timer's fire. It drops the instances learned reports
// decided and returns those that were Timeout old when the timer came
// due, in ascending order; the slice is reused by the next call. An
// instance that came due only while the fire waited behind other input
// is left to a re-armed fire queued behind that input — its learn may be
// there — as a timer of its own would have been. The timer is re-armed
// for when the oldest of the others comes due, at the latest Timeout
// from now, which is when the overdue ones are looked at again if the
// caller's answer to them (a suspicion) does not re-send them; it dies
// when nothing is outstanding.
func (o *Outstanding) Expire(ctx runtime.Context, learned func(int64) bool) []int64 {
	o.overdue = o.overdue[:0]
	now := ctx.Now()
	if now < o.due {
		// A fire armed by an earlier incarnation of this node (a restart
		// builds a new engine; the runtime keeps the old timers): the
		// pending one is still to come.
		return o.overdue
	}
	o.armed = false
	next := now + o.timeout
	for in, at := range o.sentAt {
		switch {
		case learned(in):
			delete(o.sentAt, in)
		case at+o.timeout <= o.due:
			o.overdue = append(o.overdue, in)
		default:
			next = min(next, at+o.timeout)
		}
	}
	slices.Sort(o.overdue)
	if len(o.sentAt) > 0 {
		o.arm(ctx, now, next)
	}
	return o.overdue
}
