package multipaxos

import (
	"testing"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/runtime"
)

// The origin mark (rsm.Sessions.MarkOrigin) decides which replica
// answers a client: the one that took the request.

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

// learn delivers a majority of accepted votes for (instance, v).
func learn(r *Replica, ctx *runtime.FakeContext, instance int64, pn uint64, v msg.Value) {
	for _, from := range []msg.NodeID{0, 1} {
		r.Receive(ctx, from, msg.Accepted{Instance: instance, PN: pn, Value: v, From: from})
	}
}

func TestOriginDuplicateRequestProposedAndAnsweredOnce(t *testing.T) {
	r := New(protocol.Config{ID: 0, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(0, 3)
	r.Start(ctx)
	pn := ctx.SentTo(1)[0].(msg.MPPrepare).PN
	r.Receive(ctx, 0, msg.Promise{From: 0, PN: pn})
	r.Receive(ctx, 1, msg.Promise{From: 1, PN: pn})
	ctx.TakeSent()

	// The client's retry arrives before the first copy commits: one
	// proposal, not two.
	r.Receive(ctx, 7, putReq(7, 1))
	r.Receive(ctx, 7, putReq(7, 1))
	if got := countTo[msg.Accept](ctx, 1); got != 1 {
		t.Fatalf("duplicate request produced %d accepts per acceptor, want 1", got)
	}
	v := ctx.SentTo(1)[0].(msg.Accept).Value
	ctx.TakeSent()

	// The commit answers once; a second decision of the same command
	// finds the mark already taken.
	learn(r, ctx, 0, pn, v)
	learn(r, ctx, 1, pn, v)
	if got := countTo[msg.ClientReply](ctx, 7); got != 1 {
		t.Fatalf("client got %d replies for one command, want 1", got)
	}
}

func TestOriginForwardToLeaderLeavesNoMark(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3), ForwardToLeader: true})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)

	// Forwarded, twice: a forward leaves no mark behind, so the retry is
	// not mistaken for a duplicate of something queued here.
	r.Receive(ctx, 7, putReq(7, 1))
	r.Receive(ctx, 7, putReq(7, 1))
	if got := countTo[msg.ClientRequest](ctx, 0); got != 2 {
		t.Fatalf("forwarded %d requests to the leader, want 2", got)
	}
	ctx.TakeSent()

	// The leader answers; this replica learns the value and stays quiet.
	learn(r, ctx, 0, 1, msg.Value{Client: 7, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}})
	if r.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1", r.Commits())
	}
	if got := len(ctx.SentTo(7)); got != 0 {
		t.Fatalf("forwarding replica sent the client %d messages, want none", got)
	}
}
