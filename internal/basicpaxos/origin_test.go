package basicpaxos

import (
	"testing"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/runtime"
)

// TestOriginDuplicateRequestProposedAndAnsweredOnce: the origin mark
// (rsm.Sessions.MarkOrigin) makes a retry of a command this replica is
// already driving a no-op, and makes the commit answer exactly once —
// even when the same command is decided a second time elsewhere.
func TestOriginDuplicateRequestProposedAndAnsweredOnce(t *testing.T) {
	ids := []msg.NodeID{0, 1, 2}
	r := NewReplica(protocol.Config{ID: 0, Replicas: ids})
	ctx := runtime.NewFakeContext(0, 3)
	r.Start(ctx)
	ctx.TakeSent()

	req := msg.ClientRequest{Client: 7, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
	r.Receive(ctx, 7, req)
	r.Receive(ctx, 7, req)
	prepares := ctx.SentTo(1)
	if len(prepares) != 1 {
		t.Fatalf("duplicate request started %d Synod rounds, want 1", len(prepares))
	}
	in := prepares[0].(msg.SlotPrepare).Slot
	ctx.TakeSent()

	v := msg.Value{Client: 7, Seq: 1, Cmd: req.Cmd}
	for _, instance := range []int64{in, in + 1} {
		for _, from := range []msg.NodeID{1, 2} {
			r.Receive(ctx, from, msg.Accepted{Instance: instance, PN: 9, Value: v, From: from})
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
