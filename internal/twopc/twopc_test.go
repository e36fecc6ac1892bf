package twopc

import (
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/runtime"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

func replicaIDs(n int) []msg.NodeID {
	out := make([]msg.NodeID, n)
	for i := range out {
		out[i] = msg.NodeID(i)
	}
	return out
}

func put(client msg.NodeID, seq uint64, key, val string) msg.ClientRequest {
	return msg.ClientRequest{Client: client, Seq: seq, Cmd: msg.Command{Op: msg.OpPut, Key: key, Val: val}}
}

func TestCoordinatorRunsTwoPhases(t *testing.T) {
	r := New(protocol.Config{ID: 0, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(0, 3)
	r.Start(ctx)
	r.Receive(ctx, 9, put(9, 1, "k", "v"))
	// Phase 1: prepares to both participants; the local copy locks
	// directly.
	prepares := 0
	for _, s := range ctx.TakeSent() {
		if _, ok := s.M.(msg.TPCPrepare); ok {
			prepares++
		}
	}
	if prepares != 2 {
		t.Fatalf("sent %d prepares, want 2", prepares)
	}
	// One ack is not enough: the protocol blocks on ALL of them.
	r.Receive(ctx, 1, msg.TPCAck{TxID: 0, From: 1, OK: true})
	if len(ctx.Sent) != 0 {
		t.Fatalf("commit must wait for all acks; sent %+v", ctx.Sent)
	}
	r.Receive(ctx, 2, msg.TPCAck{TxID: 0, From: 2, OK: true})
	commits, replies := 0, 0
	for _, s := range ctx.Sent {
		switch s.M.(type) {
		case msg.TPCCommit:
			commits++
		case msg.ClientReply:
			replies++
		}
	}
	if commits != 2 || replies != 1 {
		t.Fatalf("after all acks: %d commits, %d replies; want 2,1", commits, replies)
	}
	if r.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1", r.Commits())
	}
}

func TestParticipantLocksAndApplies(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	v := msg.Value{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
	r.Receive(ctx, 0, msg.TPCPrepare{TxID: 0, Value: v})
	ack, ok := ctx.LastSent().M.(msg.TPCAck)
	if !ok || !ack.OK {
		t.Fatalf("want ok ack, got %+v", ctx.LastSent().M)
	}
	ctx.TakeSent()
	r.Receive(ctx, 0, msg.TPCCommit{TxID: 0, Value: v})
	if _, ok := ctx.LastSent().M.(msg.TPCCommitAck); !ok {
		t.Fatalf("want commit ack, got %+v", ctx.LastSent().M)
	}
	if r.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1", r.Commits())
	}
	if got, _ := r.Store.Get("k"); got != "v" {
		t.Fatalf("kv[k] = %q, want v", got)
	}
}

func TestConflictingPrepareWaitsForLock(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	v1 := msg.Value{Client: 8, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "a"}}
	v2 := msg.Value{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "b"}}
	r.Receive(ctx, 0, msg.TPCPrepare{TxID: 0, Value: v1})
	ctx.TakeSent()
	// Same key: the second prepare's ack is deferred, not refused.
	r.Receive(ctx, 0, msg.TPCPrepare{TxID: 1, Value: v2})
	if len(ctx.Sent) != 0 {
		t.Fatalf("conflicting prepare must wait, sent %+v", ctx.Sent)
	}
	// Committing the first releases the lock and acks the second.
	r.Receive(ctx, 0, msg.TPCCommit{TxID: 0, Value: v1})
	foundAck := false
	for _, s := range ctx.Sent {
		if a, ok := s.M.(msg.TPCAck); ok && a.TxID == 1 && a.OK {
			foundAck = true
		}
	}
	if !foundAck {
		t.Fatalf("deferred ack missing after unlock: %+v", ctx.Sent)
	}
}

func TestDistinctKeysDoNotConflict(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	r.Receive(ctx, 0, msg.TPCPrepare{TxID: 0, Value: msg.Value{Client: 8, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "a"}}})
	r.Receive(ctx, 0, msg.TPCPrepare{TxID: 1, Value: msg.Value{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "b"}}})
	acks := 0
	for _, s := range ctx.Sent {
		if a, ok := s.M.(msg.TPCAck); ok && a.OK {
			acks++
		}
	}
	if acks != 2 {
		t.Fatalf("independent keys must both ack; got %d", acks)
	}
}

func TestRollbackReleasesLock(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	v := msg.Value{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
	r.Receive(ctx, 0, msg.TPCPrepare{TxID: 0, Value: v})
	r.Receive(ctx, 0, msg.TPCRollback{TxID: 0})
	if r.Commits() != 0 {
		t.Fatal("rolled-back tx must not apply")
	}
	ctx.TakeSent()
	// The key must be free again.
	r.Receive(ctx, 0, msg.TPCPrepare{TxID: 1, Value: v})
	if a, ok := ctx.LastSent().M.(msg.TPCAck); !ok || !a.OK {
		t.Fatalf("lock not released by rollback: %+v", ctx.LastSent().M)
	}
}

func TestParticipantForwardsToCoordinator(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	r.Receive(ctx, 9, put(9, 1, "k", "v"))
	if s := ctx.LastSent(); s == nil || s.To != 0 {
		t.Fatalf("update must be forwarded to the coordinator, got %+v", s)
	}
}

func TestLocalReadServedWhenUnlocked(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3), LocalReads: true})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	// Seed the local copy through a committed write.
	v := msg.Value{Client: 8, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
	r.Receive(ctx, 0, msg.TPCPrepare{TxID: 0, Value: v})
	r.Receive(ctx, 0, msg.TPCCommit{TxID: 0, Value: v})
	ctx.TakeSent()

	read := msg.ClientRequest{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpGet, Key: "k"}}
	r.Receive(ctx, 9, read)
	rep, ok := ctx.LastSent().M.(msg.ClientReply)
	if !ok || !rep.OK || rep.Result != "v" {
		t.Fatalf("local read reply = %+v", ctx.LastSent().M)
	}
	if r.LocalReads() != 1 {
		t.Fatalf("LocalReads = %d, want 1", r.LocalReads())
	}
}

func TestLocalReadDeferredWhileLocked(t *testing.T) {
	// "A client can locally service the read requests if it is not
	// received in the gap between two phases of 2PC" — while locked, the
	// read goes through the coordinator instead.
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3), LocalReads: true})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	v := msg.Value{Client: 8, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
	r.Receive(ctx, 0, msg.TPCPrepare{TxID: 0, Value: v}) // lock held, no commit yet
	ctx.TakeSent()
	read := msg.ClientRequest{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpGet, Key: "k"}}
	r.Receive(ctx, 9, read)
	if s := ctx.LastSent(); s == nil || s.To != 0 {
		t.Fatalf("locked read must be forwarded to the coordinator, got %+v", s)
	}
	if r.LocalReads() != 0 {
		t.Fatal("locked read must not count as local")
	}
}

func TestSessionDedup(t *testing.T) {
	r := New(protocol.Config{ID: 0, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(0, 3)
	r.Start(ctx)
	req := put(9, 1, "k", "v")
	r.Receive(ctx, 9, req)
	r.Receive(ctx, 1, msg.TPCAck{TxID: 0, From: 1, OK: true})
	r.Receive(ctx, 2, msg.TPCAck{TxID: 0, From: 2, OK: true})
	ctx.TakeSent()
	r.Receive(ctx, 9, req) // retry after commit
	rep, ok := ctx.LastSent().M.(msg.ClientReply)
	if !ok || !rep.OK {
		t.Fatalf("retry must be answered from sessions, got %+v", ctx.LastSent().M)
	}
	if r.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1 (no re-execution)", r.Commits())
	}
}

// --- Scenario tests ---

type recordingClient struct{ replies []msg.ClientReply }

func (c *recordingClient) Start(runtime.Context) {}
func (c *recordingClient) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	if rep, ok := m.(msg.ClientReply); ok {
		c.replies = append(c.replies, rep)
	}
}
func (c *recordingClient) Timer(runtime.Context, runtime.TimerTag) {}

func TestScenarioBlocksOnAnySlowReplica(t *testing.T) {
	// The defining 2PC weakness (Section 2.2): ANY unresponsive replica
	// blocks every update, because the coordinator needs all acks. The
	// fault is a deep slowdown — the paper's model of a loaded core; the
	// queued prepare is eventually processed once the core speeds up.
	machine := topology.Uniform(4, time.Microsecond)
	net := simnet.New(machine, simnet.ManyCore(), 1)
	ids := replicaIDs(3)
	var replicas []*Replica
	for i := 0; i < 3; i++ {
		r := New(protocol.Config{ID: msg.NodeID(i), Replicas: ids})
		replicas = append(replicas, r)
		net.AddNode(r)
	}
	client := &recordingClient{}
	clientID := net.AddNode(client)
	net.Start()
	// Slow participant 2 after its (cheap) Start work: handling the
	// prepare will occupy it for ~85ms of virtual time, so the update is
	// stalled at the 50ms mark and completes only once the slice is paid.
	net.At(50*time.Microsecond, func() { net.SetSlow(2, 30_000) })
	net.At(100*time.Microsecond, func() {
		net.Inject(clientID, 0, put(clientID, 1, "k", "v"))
	})
	net.RunFor(50 * time.Millisecond)
	if len(client.replies) != 0 {
		t.Fatalf("2PC must block with a participant stalled; got %d replies", len(client.replies))
	}
	net.RunFor(300 * time.Millisecond)
	if len(client.replies) != 1 {
		t.Fatalf("2PC must complete once the slow core pays its slice; got %d replies", len(client.replies))
	}
}

func TestScenarioAllReplicasApply(t *testing.T) {
	machine := topology.Uniform(4, time.Microsecond)
	net := simnet.New(machine, simnet.ManyCore(), 2)
	ids := replicaIDs(3)
	var replicas []*Replica
	for i := 0; i < 3; i++ {
		r := New(protocol.Config{ID: msg.NodeID(i), Replicas: ids})
		replicas = append(replicas, r)
		net.AddNode(r)
	}
	client := &recordingClient{}
	clientID := net.AddNode(client)
	net.Start()
	for i := uint64(1); i <= 10; i++ {
		seq := i
		net.At(time.Duration(i)*100*time.Microsecond, func() {
			net.Inject(clientID, 0, put(clientID, seq, "k", "v"))
		})
	}
	net.RunFor(50 * time.Millisecond)
	if len(client.replies) != 10 {
		t.Fatalf("client got %d replies, want 10", len(client.replies))
	}
	for i, r := range replicas {
		if r.Commits() != 10 {
			t.Errorf("replica %d applied %d, want 10", i, r.Commits())
		}
	}
}
