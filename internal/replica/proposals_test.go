package replica_test

import (
	"maps"
	"slices"
	"testing"

	"consensusinside/internal/msg"
	"consensusinside/internal/replica"
	"consensusinside/internal/runtime"
)

// book drives one leader book on a fake context: the shell of replica 0
// with an accept hook that records which instance went out with what.
type book struct {
	s       *replica.Shell
	ctx     *runtime.FakeContext
	accepts map[int64]msg.Value
	overdue [][]int64
}

func newBook(t *testing.T, majority bool) *book {
	t.Helper()
	b := &book{accepts: map[int64]msg.Value{}}
	b.s, b.ctx = newShell(t, nil, replica.Agreement{
		Accept:         func(in int64, v msg.Value) { b.accepts[in] = v },
		Overdue:        func(ins []int64) { b.overdue = append(b.overdue, slices.Clone(ins)) },
		MajorityAccept: majority,
	})
	return b
}

var noop = msg.Value{Client: msg.Nobody, Cmd: msg.Command{Op: msg.OpNoop}}

func value(seq uint64) msg.Value {
	return msg.Value{Client: testClient, Seq: seq, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
}

// take returns the accepts sent so far, by instance, and forgets them.
func (b *book) take() map[int64]msg.Value {
	out := b.accepts
	b.accepts = map[int64]msg.Value{}
	return out
}

func sameAccepts(got, want map[int64]msg.Value) bool {
	return maps.EqualFunc(got, want, msg.Value.Equal)
}

// TestLeadFillsGapsAboveFloorAndResends: taking leadership registers
// the carried proposals, fills every gap from the no-op floor up to the
// next free instance with a no-op, skips what is learned, sends every
// one of them under one accept deadline, and then proposes the queue.
func TestLeadFillsGapsAboveFloorAndResends(t *testing.T) {
	b := newBook(t, false)
	b.s.Log().Learn(3, value(30)) // decided, learn in hand: neither filled nor sent
	b.s.Book.Queue(testClient, 0, b.s.Admit(put(1)))
	carried := value(50)
	b.s.Book.Lead(2, []msg.Proposal{{Instance: 5, Value: carried}})
	want := map[int64]msg.Value{2: noop, 4: noop, 5: carried, 6: msg.NewValue(testClient, 0, []msg.BatchEntry{{Seq: 1, Cmd: put(1).Cmd}})}
	if got := b.take(); !sameAccepts(got, want) {
		t.Fatalf("accepts = %+v, want %+v (0 and 1 are below the floor)", got, want)
	}
	if n := len(b.ctx.Timers); n != 1 || b.ctx.Timers[0].Tag.Kind != replica.TimerAcceptDeadline {
		t.Fatalf("armed %+v, want one accept deadline", b.ctx.Timers)
	}
	// The deadline re-sends nothing itself: it reports what is overdue.
	b.ctx.Clock = b.ctx.Timers[0].At
	b.s.RouteTimer(b.ctx, b.ctx.Timers[0].Tag)
	if len(b.overdue) != 1 || !slices.Equal(b.overdue[0], []int64{2, 4, 5, 6}) {
		t.Fatalf("overdue = %v, want [[2 4 5 6]]", b.overdue)
	}
}

// TestInstallDropsLeftoversBelowFrontier: a regime frontier drops every
// local proposal below it except the ones the regime carries, keeps the
// ones above it, and moves the next free instance to it.
func TestInstallDropsLeftoversBelowFrontier(t *testing.T) {
	b := newBook(t, false)
	for seq := uint64(1); seq <= 3; seq++ {
		b.s.Book.Propose(value(seq)) // instances 0, 1, 2
	}
	carried := value(9)
	b.s.Book.Install(2, []msg.Proposal{{Instance: 1, Value: carried}})
	got := map[int64]msg.Value{}
	for _, p := range b.s.Book.Unlearned(7) {
		if p.PN != 7 {
			t.Fatalf("proposal %+v listed under pn %d, want 7", p, p.PN)
		}
		got[p.Instance] = p.Value
	}
	if want := map[int64]msg.Value{1: carried, 2: value(3)}; !sameAccepts(got, want) {
		t.Fatalf("unlearned = %+v, want %+v", got, want)
	}
	b.s.Book.Install(6, nil)
	b.take()
	b.s.Book.Propose(value(4))
	if got := b.take(); len(got) != 1 || !got[6].Equal(value(4)) {
		t.Fatalf("a proposal after frontier 6 went out as %+v, want instance 6", got)
	}
}

// TestForwardQueueAndDeposeReleaseMarks: queued requests handed to the
// leader take their origin marks with them, and a deposed leader gives
// up the marks of what it proposed — in both cases the client's retry
// is admitted again here instead of being dropped as a duplicate.
func TestForwardQueueAndDeposeReleaseMarks(t *testing.T) {
	b := newBook(t, true)
	b.s.Book.Queue(testClient, 0, b.s.Admit(put(1)))
	if got := b.s.Admit(put(1)); len(got) != 0 {
		t.Fatalf("a retry of a queued request was admitted: %v", got)
	}
	b.s.Book.ForwardQueue(0) // this node: nothing moves
	if b.s.Book.Queued() != 1 || len(b.ctx.SentTo(2)) != 0 {
		t.Fatal("forwarding to this node moved the queue")
	}
	b.s.Book.ForwardQueue(2)
	if sent := b.ctx.SentTo(2); b.s.Book.Queued() != 0 || len(sent) != 1 || sent[0].(msg.ClientRequest).Seq != 1 {
		t.Fatalf("forwarded %+v (queued %d), want the one request", sent, b.s.Book.Queued())
	}
	if got := b.s.Admit(put(1)); len(got) != 1 {
		t.Fatalf("after forwarding, the retry admitted %v, want its entry", got)
	}

	b.s.Book.Propose(msg.NewValue(testClient, 0, b.s.Admit(put(2))))
	b.s.Book.Depose()
	if got := b.s.Admit(put(2)); len(got) != 1 {
		t.Fatalf("after deposition, the retry admitted %v, want its entry", got)
	}
	if got := b.s.Book.Unlearned(0); len(got) != 0 {
		t.Fatalf("a deposed book still holds %+v", got)
	}
}

// TestProposeRulePerEngine: under MajorityAccept (Multi-Paxos) a
// proposal skips an instance a rival already decided here; a 1Paxos
// book proposes there and the accept is never sent.
func TestProposeRulePerEngine(t *testing.T) {
	for _, tc := range []struct {
		majority bool
		want     map[int64]msg.Value
	}{
		{false, map[int64]msg.Value{}},
		{true, map[int64]msg.Value{1: value(1)}},
	} {
		b := newBook(t, tc.majority)
		b.s.Log().Learn(0, msg.Value{Client: 8, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "r"}})
		b.s.Book.Propose(value(1))
		if got := b.take(); !sameAccepts(got, tc.want) {
			t.Errorf("majority %v: accepts = %+v, want %+v", tc.majority, got, tc.want)
		}
	}
}

// TestLeadRulePerEngine: with instance 2 learned above a gap, a 1Paxos
// leader resumes at the learned frontier — no-ops fill the gap and the
// queued request goes above it — while a Multi-Paxos leader resumes at
// the apply frontier and proposes the request into the gap.
func TestLeadRulePerEngine(t *testing.T) {
	req := msg.NewValue(testClient, 0, []msg.BatchEntry{{Seq: 1, Cmd: put(1).Cmd}})
	for _, tc := range []struct {
		majority bool
		want     map[int64]msg.Value
	}{
		{false, map[int64]msg.Value{0: noop, 1: noop, 3: req}},
		{true, map[int64]msg.Value{0: req}},
	} {
		b := newBook(t, tc.majority)
		b.s.Log().Learn(2, value(20))
		b.s.Book.Queue(testClient, 0, b.s.Admit(put(1)))
		b.s.Book.Lead(0, nil)
		if got := b.take(); !sameAccepts(got, tc.want) {
			t.Errorf("majority %v: accepts = %+v, want %+v", tc.majority, got, tc.want)
		}
	}
}
