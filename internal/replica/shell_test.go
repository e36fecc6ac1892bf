package replica_test

import (
	"testing"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/readpath"
	"consensusinside/internal/replica"
	"consensusinside/internal/runtime"
)

const testClient = msg.NodeID(9)

// newShell builds a bare shell for replica 0 of a three-node group — no
// engine above it; the tests play the agreement core by calling
// Log().Learn — and starts it on a fake context.
func newShell(t *testing.T, tweak func(*protocol.Config), a replica.Agreement) (*replica.Shell, *runtime.FakeContext) {
	t.Helper()
	cfg := protocol.Config{ID: 0, Replicas: []msg.NodeID{0, 1, 2}}
	if tweak != nil {
		tweak(&cfg)
	}
	if a.Frontier == nil {
		a.Frontier = func() int64 { return 0 }
	}
	s := new(replica.Shell)
	s.Init(cfg, a)
	ctx := runtime.NewFakeContext(0, 10)
	s.Start(ctx)
	return s, ctx
}

func put(seq uint64) *msg.ClientRequest {
	return &msg.ClientRequest{Client: testClient, Seq: seq, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
}

// commit admits req and learns it at instance in, as an engine would.
func commit(t *testing.T, s *replica.Shell, in int64, req *msg.ClientRequest) {
	t.Helper()
	entries := s.Admit(req)
	if len(entries) == 0 {
		t.Fatalf("fresh request %+v was not admitted", req)
	}
	s.Log().Learn(in, msg.NewValue(req.Client, req.Ack, entries))
}

func clientReplies(ctx *runtime.FakeContext) []msg.ClientReply {
	var out []msg.ClientReply
	for _, m := range ctx.SentTo(testClient) {
		switch r := m.(type) {
		case msg.ClientReply:
			out = append(out, r)
		case *msg.ClientReplyBatch:
			out = append(out, r.Replies...)
		}
	}
	return out
}

func TestAdmitDropsWhileCatchingUp(t *testing.T) {
	s, ctx := newShell(t, func(c *protocol.Config) { c.Recover = true }, replica.Agreement{})
	if !s.Snap.CatchingUp() || s.Recovered() {
		t.Fatal("a replica built with Recover must start out catching up")
	}
	if got := s.Admit(put(1)); len(got) != 0 {
		t.Errorf("admitted %v while catching up", got)
	}
	if got := ctx.SentTo(testClient); len(got) != 0 {
		t.Errorf("answered the client while catching up: %v", got)
	}
	// Nothing was marked either: once caught up, the retry is fresh.
	s.Route(ctx, 1, msg.CatchupEntries{Done: true})
	if s.Snap.CatchingUp() {
		t.Fatal("transfer finished but still catching up")
	}
	if got := s.Admit(put(1)); len(got) != 1 {
		t.Errorf("retry after catch-up admitted %v, want the one entry", got)
	}
}

func TestAdmitAnswersCommittedRetryFromTable(t *testing.T) {
	s, ctx := newShell(t, nil, replica.Agreement{})
	commit(t, s, 0, put(1))
	if got := clientReplies(ctx); len(got) != 1 || got[0].Seq != 1 || !got[0].OK {
		t.Fatalf("commit replies = %+v, want one OK for seq 1", got)
	}
	ctx.TakeSent()
	if got := s.Admit(put(1)); len(got) != 0 {
		t.Errorf("a committed retry reached the engine: %v", got)
	}
	got := clientReplies(ctx)
	if len(got) != 1 || got[0].Seq != 1 || !got[0].OK || got[0].Instance != 0 {
		t.Errorf("retry replies = %+v, want the stored reply for seq 1 at instance 0", got)
	}
}

func TestAdmitPrunedSeqAnsweredByScreen(t *testing.T) {
	s, ctx := newShell(t, nil, replica.Agreement{})
	commit(t, s, 0, put(1))
	commit(t, s, 1, put(2))
	// Ack 3: the client holds replies 1 and 2, so their slots are pruned.
	third := put(3)
	third.Ack = 3
	commit(t, s, 2, third)
	ctx.TakeSent()
	if got := s.Admit(put(1)); len(got) != 0 {
		t.Errorf("a retry below the prune frontier reached the engine: %v", got)
	}
	got := clientReplies(ctx)
	if len(got) != 1 || got[0].Seq != 1 || !got[0].OK || got[0].Result != "" {
		t.Errorf("pruned retry replies = %+v, want one empty OK for seq 1", got)
	}
}

func TestAdmitDropsSecondCopyAndDisownClearsTheMark(t *testing.T) {
	s, ctx := newShell(t, nil, replica.Agreement{})
	first := s.Admit(put(1))
	if len(first) != 1 {
		t.Fatalf("first copy admitted %v, want one entry", first)
	}
	if got := s.Admit(put(1)); len(got) != 0 {
		t.Errorf("second copy of a marked entry admitted: %v", got)
	}
	if got := ctx.SentTo(testClient); len(got) != 0 {
		t.Errorf("an uncommitted retry was answered: %v", got)
	}
	s.Disown(msg.NewValue(testClient, 0, first))
	if got := s.Admit(put(1)); len(got) != 1 {
		t.Errorf("after Disown the entry must be admissible again, got %v", got)
	}
}

func TestApplyAnswersBatchWithOneMessage(t *testing.T) {
	s, ctx := newShell(t, nil, replica.Agreement{})
	entries := []msg.BatchEntry{
		{Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "a", Val: "1"}},
		{Seq: 2, Cmd: msg.Command{Op: msg.OpGet, Key: "a"}},
		{Seq: 3, Cmd: msg.Command{Op: msg.OpPut, Key: "b", Val: "2"}},
	}
	commit(t, s, 0, msg.BoxRequest(msg.NewRequest(testClient, 0, entries)))
	sent := ctx.SentTo(testClient)
	if len(sent) != 1 {
		t.Fatalf("a batched value sent %d messages, want 1", len(sent))
	}
	batch, ok := sent[0].(*msg.ClientReplyBatch)
	if !ok || len(batch.Replies) != 3 {
		t.Fatalf("reply = %+v, want a ClientReplyBatch of 3", sent[0])
	}
	// The box is the receiver's until it is released: whatever the pool
	// hands out meanwhile must not alias it.
	next := msg.DrawReplies()
	next.Replies = append(next.Replies, msg.ClientReply{Seq: 77}, msg.ClientReply{Seq: 78}, msg.ClientReply{Seq: 79})
	for i, rep := range batch.Replies {
		if rep.Seq != uint64(i+1) || !rep.OK {
			t.Errorf("reply %d = %+v after the pool was used again", i, rep)
		}
	}
	if batch.Replies[1].Result != "1" {
		t.Errorf("batched Get result = %q, want %q", batch.Replies[1].Result, "1")
	}
	msg.Release(next)
	msg.Release(batch)

	// A single command is answered with a bare reply (the box went back
	// to the pool; the reply was copied out of it).
	ctx.TakeSent()
	commit(t, s, 1, put(4))
	sent = ctx.SentTo(testClient)
	if rep, ok := sent[0].(msg.ClientReply); len(sent) != 1 || !ok || rep.Seq != 4 || !rep.OK {
		t.Fatalf("single-command reply = %+v, want one bare OK for seq 4", sent)
	}
	if s.Commits() != 2 {
		t.Errorf("Commits = %d, want 2", s.Commits())
	}
}

// A backup or the acceptor applies a batch it never admitted, so it
// holds no origin marks: the commit step records every command and the
// client hears nothing from this replica. A retry of one of those seqs
// is then answered from the table, with the recorded result.
func TestApplyWithoutOriginMarksRecordsAndSendsNothing(t *testing.T) {
	s, ctx := newShell(t, nil, replica.Agreement{})
	get := msg.Command{Op: msg.OpGet, Key: "a"}
	s.Log().Learn(0, msg.NewValue(testClient, 0, []msg.BatchEntry{
		{Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "a", Val: "1"}},
		{Seq: 2, Cmd: get},
		{Seq: 3, Cmd: msg.Command{Op: msg.OpPut, Key: "b", Val: "2"}},
	}))
	if got := ctx.SentTo(testClient); len(got) != 0 {
		t.Fatalf("a replica without origin marks answered the client: %+v", got)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if !s.Sessions.Seen(testClient, seq) {
			t.Errorf("seq %d was not recorded", seq)
		}
	}
	if v, _ := s.Store.Get("b"); v != "2" || s.Commits() != 1 {
		t.Errorf("b = %q after %d commits, want the batch applied once", v, s.Commits())
	}

	if got := s.Admit(&msg.ClientRequest{Client: testClient, Seq: 2, Cmd: get}); len(got) != 0 {
		t.Errorf("a retry of a recorded seq reached the engine: %v", got)
	}
	got := clientReplies(ctx)
	if len(got) != 1 || got[0].Seq != 2 || !got[0].OK || got[0].Instance != 0 || got[0].Result != "1" {
		t.Errorf("retry replies = %+v, want the recorded result %q for seq 2 at instance 0", got, "1")
	}
}

// A gap-filling no-op sends nothing to any client, but it is a commit
// like any other for the hooks behind the apply: the compaction cadence
// advances and a confirmed read waiting on the instance is served.
func TestApplyNoopSendsNothingButRunsBothHooks(t *testing.T) {
	ticks := 0
	s, ctx := newShell(t, func(c *protocol.Config) {
		c.SnapshotInterval = 1
		c.ReadMode = readpath.Index
	}, replica.Agreement{
		Frontier:  func() int64 { return 1 }, // instance 0 is in flight
		OnCompact: func(int64) { ticks++ },
	})
	const reader = msg.NodeID(8)
	s.Route(ctx, reader, &msg.ReadRequest{Client: reader, Entries: []msg.BatchEntry{{Seq: 1, Cmd: msg.Command{Op: msg.OpGet, Key: "k"}}}})
	s.Route(ctx, 1, msg.ReadIndexAck{Round: 1, OK: true, Frontier: 1})
	if got := ctx.SentTo(reader); len(got) != 0 {
		t.Fatalf("read served before instance 0 applied: %v", got)
	}
	ctx.TakeSent()

	s.Log().Learn(0, msg.Value{Client: msg.Nobody, Cmd: msg.Command{Op: msg.OpNoop}})
	for _, sent := range ctx.Sent {
		switch sent.M.(type) {
		case msg.ClientReply, *msg.ClientReplyBatch:
			t.Errorf("a no-op was answered: %+v", sent)
		}
	}
	if got := ctx.SentTo(reader); len(got) != 1 {
		t.Errorf("read path hook did not run: %d read replies after the apply, want 1", len(got))
	}
	if ticks != 1 {
		t.Errorf("compaction hook did not run: %d ticks at interval 1, want 1", ticks)
	}
	if s.Commits() != 1 {
		t.Errorf("Commits = %d, want 1 (no-ops count)", s.Commits())
	}
}
