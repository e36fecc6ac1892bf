package onepaxos

import (
	"testing"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/runtime"
)

// The origin mark decides which replica answers a client: the one that
// took the request. These tests pin its three hand-offs — a duplicate
// of a request already proposed here, a request forwarded to the leader,
// and a queued request given away when another node wins leadership.

func putReq(client msg.NodeID, seq uint64) msg.ClientRequest {
	return msg.ClientRequest{Client: client, Seq: seq, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
}

func countTo[M msg.Message](ctx *runtime.FakeContext, to msg.NodeID) int {
	n := 0
	for _, m := range ctx.SentTo(to) {
		if _, ok := m.(M); ok {
			n++
		}
	}
	return n
}

func TestOriginDuplicateRequestProposedAndAnsweredOnce(t *testing.T) {
	r, ctx := newReplica(t, 0, 3)
	r.Start(ctx)
	pn := ctx.SentTo(2)[0].(msg.PrepareRequest).PN
	r.Receive(ctx, 2, msg.Promise{From: 2, PN: pn})
	ctx.TakeSent()

	// The client's retry arrives before the first copy commits: one
	// proposal, not two.
	r.Receive(ctx, 5, putReq(5, 1))
	r.Receive(ctx, 5, putReq(5, 1))
	if got := countTo[msg.Accept](ctx, 2); got != 1 {
		t.Fatalf("duplicate request produced %d accepts, want 1", got)
	}
	ar := ctx.SentTo(2)[0].(msg.Accept)
	ctx.TakeSent()

	// The commit answers once; a second decision of the same command
	// (the retry committed through another leader) is deduplicated and
	// finds the mark already taken.
	r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: 0, PN: pn, Value: ar.Value}}})
	r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: 1, PN: pn, Value: ar.Value}}})
	if got := countTo[msg.ClientReply](ctx, 5); got != 1 {
		t.Fatalf("client got %d replies for one command, want 1", got)
	}
}

func TestOriginForwardToLeaderLeavesNoMark(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3), ForwardToLeader: true})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)

	// Forwarded, twice: a forward leaves no mark behind, so the retry is
	// not mistaken for a duplicate of something queued here.
	r.Receive(ctx, 5, putReq(5, 1))
	r.Receive(ctx, 5, putReq(5, 1))
	if got := countTo[msg.ClientRequest](ctx, 0); got != 2 {
		t.Fatalf("forwarded %d requests to the leader, want 2", got)
	}
	ctx.TakeSent()

	// The leader answers; this replica learns the value and stays quiet.
	v := msg.Value{Client: 5, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
	r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: 0, PN: 1, Value: v}}})
	if r.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1", r.Commits())
	}
	if got := len(ctx.SentTo(5)); got != 0 {
		t.Fatalf("forwarding replica sent the client %d messages, want none", got)
	}
}

func TestOriginForwardPendingGivesMarksAway(t *testing.T) {
	r, ctx := newReplica(t, 1, 3)
	r.Start(ctx)

	// A non-leader queues the request (and starts a takeover); a retry
	// meanwhile is a duplicate of the queued copy.
	r.Receive(ctx, 5, putReq(5, 1))
	r.Receive(ctx, 5, putReq(5, 1))
	if r.Book.Queued() != 1 {
		t.Fatalf("queued %d requests, want 1", r.Book.Queued())
	}
	ctx.TakeSent()

	// Node 2 wins leadership: the queue is handed over, marks included.
	r.onUtilCommit(0, msg.UtilEntry{Type: msg.EntryLeaderChange, Leader: 2, Acceptor: 0})
	if got := countTo[msg.ClientRequest](ctx, 2); got != 1 || r.Book.Queued() != 0 {
		t.Fatalf("handed %d requests to the new leader (still pending %d), want 1 and 0", got, r.Book.Queued())
	}
	ctx.TakeSent()

	// The new leader answers: this replica applies the command silently.
	v := msg.Value{Client: 5, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
	r.Receive(ctx, 0, msg.Learn{Entries: []msg.Proposal{{Instance: 0, PN: 1, Value: v}}})
	if r.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1", r.Commits())
	}
	if got := len(ctx.SentTo(5)); got != 0 {
		t.Fatalf("replica answered a command it had given away (%d messages)", got)
	}
}
