package replica_test

import (
	"fmt"
	"testing"
	"time"

	"consensusinside"
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/replica"
	"consensusinside/internal/runtime"
)

// sequencer is a sixth engine written only here, to prove what the
// shell leaves for an engine to write: a fixed-leader sequencer (no
// fault tolerance — Replicas[0] decides alone and tells everyone). It
// has no snapshot, read-path, trace or stats code of its own.
type sequencer struct {
	replica.Shell
	next int64 // the leader's next free instance
}

// decided is the protocol's only message: the leader's decision.
type decided struct {
	Instance int64
	Value    msg.Value
}

func (decided) Kind() string { return "seq_decided" }

func newSequencer(cfg protocol.Config) *sequencer {
	r := &sequencer{}
	leader := cfg.Replicas[0]
	r.Init(cfg, replica.Agreement{
		Boot:         replica.Regime{Leader: leader, Acceptor: msg.Nobody},
		LeaseCapable: true, // the leader is never deposed, so no prepare to hold
		Grant:        func(from msg.NodeID) bool { return from == leader },
		Frontier:     func() int64 { return r.next },
		OnRestore: func(last int64) {
			if r.next < last+1 {
				r.next = last + 1
			}
		},
	})
	r.SetLeading(r.Me == leader)
	return r
}

func (r *sequencer) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	if r.Route(ctx, from, m) {
		return
	}
	switch mm := m.(type) {
	case msg.ClientRequest:
		entries := r.Admit(mm)
		if len(entries) == 0 {
			return
		}
		if leader := r.Replicas[0]; r.Me != leader {
			r.Forward(leader, mm, entries)
			return
		}
		d := decided{Instance: r.next, Value: msg.NewValue(mm.Client, mm.Ack, entries)}
		r.next++
		for _, id := range r.Replicas {
			ctx.Send(id, d)
		}
	case decided:
		r.Log().Learn(mm.Instance, mm.Value)
		r.Snap.WatchGap(ctx)
	}
}

const sequencerID = protocol.ID(100)

func init() {
	protocol.Register(sequencerID, protocol.Info{
		Name:        "Sequencer",
		MinReplicas: 2,
		New:         func(cfg protocol.Config) protocol.Engine { return newSequencer(cfg) },
	})
}

// TestSixthEngineDuplicateSuppression drives one sequencer leader by
// hand: a retry of a request in flight is dropped, the commit answers
// once, and a retry after the commit is answered from the session table
// without another decision.
func TestSixthEngineDuplicateSuppression(t *testing.T) {
	ids := []msg.NodeID{0, 1, 2}
	r := newSequencer(protocol.Config{ID: 0, Replicas: ids})
	ctx := runtime.NewFakeContext(0, 4)
	r.Start(ctx)
	const client = msg.NodeID(3)
	req := msg.ClientRequest{Client: client, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}

	r.Receive(ctx, client, req)
	r.Receive(ctx, client, req) // retry while in flight
	var decisions []decided
	for _, s := range ctx.TakeSent() {
		if d, ok := s.M.(decided); ok && s.To == 0 {
			decisions = append(decisions, d)
		}
	}
	if len(decisions) != 1 {
		t.Fatalf("leader decided %d times for one command sent twice, want 1", len(decisions))
	}
	r.Receive(ctx, 0, decisions[0])
	replies := ctx.SentTo(client)
	if len(replies) != 1 {
		t.Fatalf("commit sent %d replies, want 1", len(replies))
	}
	if rep, ok := replies[0].(msg.ClientReply); !ok || !rep.OK || rep.Seq != 1 {
		t.Fatalf("reply = %+v, want OK for seq 1", replies[0])
	}
	ctx.TakeSent()

	r.Receive(ctx, client, req) // retry after the commit
	sent := ctx.TakeSent()
	if len(sent) != 1 || sent[0].To != client {
		t.Fatalf("retry of a committed command sent %+v, want one reply to the client", sent)
	}
	if r.Commits() != 1 {
		t.Errorf("Commits = %d, want 1", r.Commits())
	}
}

// TestSixthEngineEndToEnd runs the sequencer behind the public KV on
// the goroutine runtime: put/get, lease reads served locally, and a
// crashed follower that rejoins by installing a peer snapshot — none of
// which the engine implements.
func TestSixthEngineEndToEnd(t *testing.T) {
	kv, err := consensusinside.StartKV(consensusinside.KVConfig{
		Protocol:         sequencerID,
		SnapshotInterval: 8,
		ReadMode:         consensusinside.ReadLease,
		LeaseDuration:    200 * time.Millisecond,
		RequestTimeout:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	put := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := kv.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
	}
	put(0, 40) // past two compaction intervals: every replica compacts its log
	for i := 0; i < 40; i += 13 {
		if got, err := kv.Get(fmt.Sprintf("k%d", i)); err != nil || got != fmt.Sprintf("v%d", i) {
			t.Fatalf("get k%d = %q, %v", i, got, err)
		}
	}
	o := kv.Obs().Counters
	if o["read.local_reads"] == 0 {
		t.Errorf("no read was served under the lease: %v", o)
	}
	if o["snap.entries_truncated"] == 0 {
		t.Fatalf("no compaction after 40 commits at interval 8: %v", o)
	}

	const victim = 1 // a follower: the leader decides alone
	if err := kv.CrashReplica(victim); err != nil {
		t.Fatal(err)
	}
	put(40, 60)
	if err := kv.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for kv.Obs().Counters["snap.restores"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never restored a snapshot: %v", kv.Obs().Counters)
		}
		time.Sleep(5 * time.Millisecond)
	}
	put(60, 70)
	if got, err := kv.Get("k69"); err != nil || got != "v69" {
		t.Fatalf("get after rejoin = %q, %v", got, err)
	}
}
