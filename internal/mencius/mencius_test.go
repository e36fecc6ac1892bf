package mencius

import (
	"slices"
	"testing"
	"time"

	"consensusinside/internal/cluster"
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/protocol/enginetest"
	"consensusinside/internal/runtime"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

func TestConformance(t *testing.T) { enginetest.Run(t, protocol.Mencius) }

func replicaIDs(n int) []msg.NodeID {
	out := make([]msg.NodeID, n)
	for i := range out {
		out[i] = msg.NodeID(i)
	}
	return out
}

func TestOwnershipPartition(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	r.Receive(ctx, 9, msg.ClientRequest{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "a"}})
	var accepts []msg.Accept
	for _, s := range ctx.Sent {
		if a, ok := s.M.(*msg.Accept); ok {
			accepts = append(accepts, *a)
		}
	}
	// Replica 1 of 3 owns instances 1, 4, 7, ...
	if len(accepts) != 3 || accepts[0].Instance != 1 {
		t.Fatalf("accepts = %+v, want 3 copies at instance 1", accepts)
	}
	ctx.TakeSent()
	r.Receive(ctx, 9, msg.ClientRequest{Client: 9, Seq: 2, Cmd: msg.Command{Op: msg.OpPut, Key: "b"}})
	for _, s := range ctx.Sent {
		if a, ok := s.M.(*msg.Accept); ok && a.Instance != 4 {
			t.Fatalf("second proposal at %d, want owned instance 4", a.Instance)
		}
	}
}

func TestSkipRuleFillsForeignGaps(t *testing.T) {
	// Replica 0 (owner of 0,3,6...) observes an accept at instance 7: it
	// must give up 0, 3 and 6 so the log can advance.
	r := New(protocol.Config{ID: 0, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(0, 3)
	r.Start(ctx)
	r.Receive(ctx, 1, &msg.Accept{Instance: 7, PN: 1, Value: msg.Value{Client: 9, Seq: 1}})
	var skips []msg.MencSkip
	for _, s := range ctx.Sent {
		if sk, ok := s.M.(msg.MencSkip); ok && s.To == 1 {
			skips = append(skips, sk)
		}
	}
	if len(skips) != 1 || skips[0].FromInstance != 0 || skips[0].ToInstance != 7 {
		t.Fatalf("skips = %+v, want [0,7)", skips)
	}
	if r.Skips() != 3 {
		t.Fatalf("Skips = %d, want 3 (instances 0,3,6)", r.Skips())
	}
}

// --- Scenarios on the simulator harness ---

// simulate starts three replicas and clients on the simulator harness,
// each client issuing requests commands back to back. With spread,
// client k is pinned to replica k mod 3: its requests to any other
// replica are lost, so its first retries walk it there. Otherwise every
// client sends to replica 0.
func simulate(t *testing.T, clients, requests int, spread bool) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Build(cluster.Spec{
		Protocol: protocol.Mencius, Machine: topology.Uniform(3+clients, time.Microsecond), Cost: simnet.ManyCore(),
		Seed: 1, Replicas: 3, Clients: clients, RequestsPerClient: requests, RetryTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spread {
		home := map[msg.NodeID]msg.NodeID{}
		for k, id := range c.ClientIDs {
			home[id] = msg.NodeID(k % 3)
		}
		c.Net.SetPerturb(func(from, to msg.NodeID, m msg.Message) (time.Duration, bool) {
			_, ok := m.(*msg.ClientRequest)
			h, fromClient := home[from]
			return 0, ok && fromClient && to != h
		})
	}
	c.Start()
	return c
}

func TestScenarioMultiLeaderCommit(t *testing.T) {
	// Three clients, one per replica: every replica is a leader.
	c := simulate(t, 3, 3, true)
	c.RunFor(20 * time.Millisecond)
	if got := c.ClientStats().Completed; got != 9 {
		t.Fatalf("clients completed %d commands, want 9", got)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Every replica must have applied the same nine real commands, and
	// every owner must have proposed some of them.
	for i, srv := range c.Servers {
		real, owners := 0, map[int64]bool{}
		for _, e := range srv.Log().History() {
			if slices.Contains(c.ClientIDs, e.Value.Client) {
				real++
				owners[e.Instance%3] = true
			}
		}
		if real != 9 || len(owners) != 3 {
			t.Errorf("replica %d applied %d real commands from %d owners, want 9 from 3", i, real, len(owners))
		}
	}
}

func TestScenarioSingleLeaderTrafficSkips(t *testing.T) {
	// All traffic at replica 0: replicas 1 and 2 must skip their shares.
	c := simulate(t, 1, 5, false)
	c.RunFor(20 * time.Millisecond)
	if got := c.Clients[0].Completed(); got != 5 {
		t.Fatalf("client completed %d commands, want 5", got)
	}
	for _, i := range []int{1, 2} {
		if skips := c.Servers[i].(*Replica).Skips(); skips == 0 {
			t.Errorf("idle owner %d never skipped", i)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioAggregateThroughputScalesAcrossLeaders(t *testing.T) {
	// The Mencius claim: spreading clients across leaders raises
	// aggregate throughput versus funnelling everything through one.
	run := func(spread bool) int {
		c := simulate(t, 6, 100_000, spread)
		c.RunFor(50 * time.Millisecond)
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		return c.ClientStats().Completed
	}
	funnel, spread := run(false), run(true)
	if spread < funnel {
		t.Errorf("spread-leader commits %d < single-leader %d", spread, funnel)
	}
}
