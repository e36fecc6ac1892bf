package mencius

import (
	"testing"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/runtime"
)

// TestOriginDuplicateRequestProposedAndAnsweredOnce: the origin mark
// (rsm.Sessions.MarkOrigin) makes a retry of a command this replica
// already proposed a no-op, and makes the commit answer exactly once —
// even when the same command is decided a second time elsewhere.
func TestOriginDuplicateRequestProposedAndAnsweredOnce(t *testing.T) {
	r := New(protocol.Config{ID: 0, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(0, 3)
	r.Start(ctx)
	ctx.TakeSent()

	req := msg.ClientRequest{Client: 7, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
	r.Receive(ctx, 7, req)
	r.Receive(ctx, 7, req)
	accepts := ctx.SentTo(1)
	if len(accepts) != 1 {
		t.Fatalf("duplicate request produced %d accepts per acceptor, want 1", len(accepts))
	}
	acc := accepts[0].(msg.Accept)
	ctx.TakeSent()

	for _, in := range []int64{acc.Instance, acc.Instance + 1} {
		for _, from := range []msg.NodeID{0, 1} {
			r.Receive(ctx, from, msg.Accepted{Instance: in, PN: acc.PN, Value: acc.Value, From: from})
		}
	}
	if r.Commits() != 2 {
		t.Fatalf("Commits = %d, want both decisions applied", r.Commits())
	}
	replies := 0
	for _, m := range ctx.SentTo(7) {
		if _, ok := m.(msg.ClientReply); ok {
			replies++
		}
	}
	if replies != 1 {
		t.Fatalf("client got %d replies for one command, want 1", replies)
	}
}
