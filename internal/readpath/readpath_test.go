package readpath

import (
	"math/rand"
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/runtime"
)

// fakeCtx is a minimal runtime.Context for driving a Server directly:
// it records sends and timers instead of delivering them.
type fakeCtx struct {
	id     msg.NodeID
	n      int
	now    time.Duration
	sent   []sentMsg
	timers []runtime.TimerTag
	rng    *rand.Rand
}

type sentMsg struct {
	to msg.NodeID
	m  msg.Message
}

func (c *fakeCtx) ID() msg.NodeID     { return c.id }
func (c *fakeCtx) N() int             { return c.n }
func (c *fakeCtx) Now() time.Duration { return c.now }
func (c *fakeCtx) Rand() *rand.Rand   { return c.rng }
func (c *fakeCtx) Send(to msg.NodeID, m msg.Message) {
	c.sent = append(c.sent, sentMsg{to, m})
}
func (c *fakeCtx) After(d time.Duration, tag runtime.TimerTag) runtime.CancelFunc {
	c.timers = append(c.timers, tag)
	return func() {}
}

// indexServer builds a leaderful Index-mode server with three external
// confirmers and NeedAcks 2 (a 5-replica majority minus self), wired to
// count Establish calls. The state machine is a single caught-up key.
func indexServer(establishes *int) (*Server, *fakeCtx) {
	ctx := &fakeCtx{id: 0, n: 4, rng: rand.New(rand.NewSource(1))}
	s := New(Config{
		ID:         0,
		Replicas:   []msg.NodeID{0, 1, 2, 3},
		Mode:       Index,
		HasLeader:  true,
		IsLeader:   func() bool { return true },
		Leader:     func() msg.NodeID { return 0 },
		Confirmers: func() []msg.NodeID { return []msg.NodeID{1, 2, 3} },
		NeedAcks:   2,
		Establish:  func() { *establishes++ },
		Frontier:   func() int64 { return 7 },
		Applied:    func() int64 { return 7 },
		Read:       func(key string) (string, bool) { return "v", true },
	})
	s.Start(ctx)
	return s, ctx
}

func sendRead(s *Server, ctx *fakeCtx, client msg.NodeID, seq uint64) {
	s.Handle(ctx, client, &msg.ReadRequest{
		Client:  client,
		Entries: []msg.BatchEntry{{Seq: seq, Cmd: msg.Command{Op: msg.OpGet, Key: "k"}}},
	})
}

// served returns the ReadReply delivered to client, if any.
func served(ctx *fakeCtx, client msg.NodeID) (msg.ReadReply, bool) {
	for _, sm := range ctx.sent {
		if sm.to != client {
			continue
		}
		if r, ok := sm.m.(*msg.ReadReplyBatch); ok {
			return r.Replies[0], true
		}
	}
	return msg.ReadReply{}, false
}

// TestRoundToleratesMinorityRefusal pins the refusal accounting in
// onAck: one confirmer answering !OK (a peer with a stale leader view)
// must not abort a round that the remaining confirmers can still
// confirm — NeedAcks 2 of 3 is reachable after a single refusal, so the
// round must wait for the other two and serve, without an Establish
// no-op or a redirect.
func TestRoundToleratesMinorityRefusal(t *testing.T) {
	establishes := 0
	s, ctx := indexServer(&establishes)
	sendRead(s, ctx, 9, 1)

	s.Handle(ctx, 1, msg.ReadIndexAck{Round: 1, OK: false})
	if establishes != 0 {
		t.Fatalf("single refusal with NeedAcks still reachable triggered Establish")
	}
	if r, ok := served(ctx, 9); ok {
		t.Fatalf("reply sent before the round confirmed: %+v", r)
	}

	s.Handle(ctx, 2, msg.ReadIndexAck{Round: 1, OK: true, Frontier: 7})
	s.Handle(ctx, 3, msg.ReadIndexAck{Round: 1, OK: true, Frontier: 7})
	r, ok := served(ctx, 9)
	if !ok || !r.OK || r.Result != "v" {
		t.Fatalf("round did not serve after 2/3 confirmations: reply=%+v ok=%v", r, ok)
	}
	if establishes != 0 {
		t.Fatalf("Establish fired %d times on a confirmable round", establishes)
	}
}

// TestRoundFallsBackWhenAcksUnreachable is the complement: once enough
// confirmers have refused that NeedAcks can no longer be gathered (2 of
// 3 refused, 1 left, need 2), the round must fall back — exactly one
// Establish — rather than wait forever.
func TestRoundFallsBackWhenAcksUnreachable(t *testing.T) {
	establishes := 0
	s, ctx := indexServer(&establishes)
	sendRead(s, ctx, 9, 1)

	s.Handle(ctx, 1, msg.ReadIndexAck{Round: 1, OK: false})
	s.Handle(ctx, 2, msg.ReadIndexAck{Round: 1, OK: false})
	if establishes != 1 {
		t.Fatalf("Establish fired %d times, want exactly 1 once 2/3 confirmers refused", establishes)
	}
	if r, ok := served(ctx, 9); ok {
		t.Fatalf("refused round served a read: %+v", r)
	}
	// A straggling third refusal lands after the round failed: no
	// second fallback.
	s.Handle(ctx, 3, msg.ReadIndexAck{Round: 1, OK: false})
	if establishes != 1 {
		t.Fatalf("stale ack after the fallback re-fired Establish (%d times)", establishes)
	}
}

// TestRefusalFlippedByResend covers the resend path: a confirmer that
// refused round N may grant it after a retransmit (it has since learned
// the leader). The flipped grant must count toward NeedAcks and clear
// the standing refusal.
func TestRefusalFlippedByResend(t *testing.T) {
	establishes := 0
	s, ctx := indexServer(&establishes)
	sendRead(s, ctx, 9, 1)

	s.Handle(ctx, 1, msg.ReadIndexAck{Round: 1, OK: false})
	s.Handle(ctx, 1, msg.ReadIndexAck{Round: 1, OK: true, Frontier: 7})
	s.Handle(ctx, 2, msg.ReadIndexAck{Round: 1, OK: true, Frontier: 7})
	r, ok := served(ctx, 9)
	if !ok || !r.OK || r.Result != "v" {
		t.Fatalf("flipped refusal did not count toward the quorum: reply=%+v ok=%v", r, ok)
	}
	if establishes != 0 {
		t.Fatalf("Establish fired %d times", establishes)
	}
}

// TestLeaseHolderLaggingFrontier pins how the read path counts reads
// that wait for applies. The read that acquires the lease rides a
// confirmation round (a fallback), and waiting for applies after that
// round leaves it a round-served read. A later read under the held
// lease, arriving while the holder's applies trail its frontier, waits
// locally: it is an apply wait, not a fallback, and AfterApply serves
// it as a local read.
func TestLeaseHolderLaggingFrontier(t *testing.T) {
	frontier, applied := int64(6), int64(5)
	ctx := &fakeCtx{id: 0, n: 3, rng: rand.New(rand.NewSource(1))}
	s := New(Config{
		ID:           0,
		Replicas:     []msg.NodeID{0, 1, 2},
		Mode:         Lease,
		HasLeader:    true,
		LeaseCapable: true,
		IsLeader:     func() bool { return true },
		Leader:       func() msg.NodeID { return 0 },
		Confirmers:   func() []msg.NodeID { return []msg.NodeID{1} },
		NeedAcks:     1,
		Frontier:     func() int64 { return frontier },
		Applied:      func() int64 { return applied },
		Read:         func(key string) (string, bool) { return "v", true },
	})
	s.Start(ctx)
	counters := func() Counters {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.stats
	}

	sendRead(s, ctx, 8, 1)
	s.Handle(ctx, 1, msg.ReadIndexAck{Round: 1, OK: true, Frontier: frontier})
	if _, ok := served(ctx, 8); ok {
		t.Fatal("the lease round served a read its applies do not cover")
	}
	applied = frontier
	s.AfterApply()
	if _, ok := served(ctx, 8); !ok {
		t.Fatal("the lease round's read was not served once applies covered it")
	}
	if c := counters(); c.Fallbacks != 1 || c.IndexReads != 1 || c.LocalReads != 0 || c.ApplyWaits != 0 {
		t.Fatalf("after the lease round: %+v, want 1 fallback, 1 index read, no local read or apply wait", c)
	}

	frontier = 8 // writes committed that the holder has not applied yet
	sendRead(s, ctx, 9, 2)
	if _, ok := served(ctx, 9); ok {
		t.Fatal("the holder served a read ahead of its own applies")
	}
	if c := counters(); c.ApplyWaits != 1 || c.Fallbacks != 1 || c.LocalReads != 0 {
		t.Fatalf("lagging holder: %+v, want 1 apply wait and no new fallback", c)
	}
	applied = frontier
	s.AfterApply()
	if r, ok := served(ctx, 9); !ok || !r.OK || r.Result != "v" {
		t.Fatalf("the waiting read was not served once applies caught up: reply=%+v ok=%v", r, ok)
	}
	if c := counters(); c.LocalReads != 1 || c.IndexReads != 1 || c.Fallbacks != 1 {
		t.Fatalf("after the wait: %+v, want 1 local read and the round's counts unchanged", c)
	}
	if n := len(ctx.sent); n != 3 { // one confirmation, two replies: no round for the lagging read
		t.Fatalf("%d sends, want 3: %+v", n, ctx.sent)
	}
}
