package mencius

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

type recordingClient struct{ replies []msg.ClientReply }

func (c *recordingClient) Start(runtime.Context) {}
func (c *recordingClient) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	if rep, ok := m.(msg.ClientReply); ok {
		c.replies = append(c.replies, rep)
	}
}
func (c *recordingClient) Timer(runtime.Context, runtime.TimerTag) {}

type scenario struct {
	net      *simnet.Network
	replicas []*Replica
	client   *recordingClient
	clientID msg.NodeID
}

func newScenario(n int, seed int64) *scenario {
	machine := topology.Uniform(n+1, time.Microsecond)
	net := simnet.New(machine, simnet.ManyCore(), seed)
	ids := replicaIDs(n)
	s := &scenario{net: net}
	for i := 0; i < n; i++ {
		r := New(protocol.Config{ID: msg.NodeID(i), Replicas: ids})
		s.replicas = append(s.replicas, r)
		net.AddNode(r)
	}
	s.client = &recordingClient{}
	s.clientID = net.AddNode(s.client)
	net.Start()
	return s
}

func (s *scenario) send(at time.Duration, to msg.NodeID, seq uint64) {
	s.net.At(at, func() {
		s.net.Inject(s.clientID, to, msg.ClientRequest{
			Client: s.clientID, Seq: seq,
			Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"},
		})
	})
}

func (s *scenario) checkAgreement(t *testing.T) {
	t.Helper()
	chosen := make(map[int64]msg.Value)
	for i, r := range s.replicas {
		for _, e := range r.Log().History() {
			if prev, ok := chosen[e.Instance]; ok && !prev.Equal(e.Value) {
				t.Fatalf("replica %d: instance %d %+v vs %+v", i, e.Instance, e.Value, prev)
			} else if !ok {
				chosen[e.Instance] = e.Value
			}
		}
	}
}

func TestOwnershipPartition(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	r.Receive(ctx, 9, msg.ClientRequest{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "a"}})
	var accepts []msg.Accept
	for _, s := range ctx.Sent {
		if a, ok := s.M.(msg.Accept); ok {
			accepts = append(accepts, a)
		}
	}
	// Replica 1 of 3 owns instances 1, 4, 7, ...
	if len(accepts) != 3 || accepts[0].Instance != 1 {
		t.Fatalf("accepts = %+v, want 3 copies at instance 1", accepts)
	}
	ctx.TakeSent()
	r.Receive(ctx, 9, msg.ClientRequest{Client: 9, Seq: 2, Cmd: msg.Command{Op: msg.OpPut, Key: "b"}})
	for _, s := range ctx.Sent {
		if a, ok := s.M.(msg.Accept); ok && a.Instance != 4 {
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
	r.Receive(ctx, 1, msg.Accept{Instance: 7, PN: 1, Value: msg.Value{Client: 9, Seq: 1}})
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

func TestScenarioMultiLeaderCommit(t *testing.T) {
	s := newScenario(3, 1)
	// Spread requests across ALL replicas: every one is a leader.
	for i := uint64(1); i <= 9; i++ {
		s.send(time.Duration(i)*100*time.Microsecond, msg.NodeID((i-1)%3), i)
	}
	s.net.RunFor(20 * time.Millisecond)
	if len(s.client.replies) != 9 {
		t.Fatalf("client got %d replies, want 9", len(s.client.replies))
	}
	s.checkAgreement(t)
	// Every replica must have applied the same prefix of real commands.
	for i, r := range s.replicas {
		real := 0
		for _, e := range r.Log().History() {
			if e.Value.Client == s.clientID {
				real++
			}
		}
		if real != 9 {
			t.Errorf("replica %d applied %d real commands, want 9", i, real)
		}
	}
}

func TestScenarioSingleLeaderTrafficSkips(t *testing.T) {
	// All traffic at replica 0: replicas 1 and 2 must skip their shares.
	s := newScenario(3, 2)
	for i := uint64(1); i <= 5; i++ {
		s.send(time.Duration(i)*100*time.Microsecond, 0, i)
	}
	s.net.RunFor(20 * time.Millisecond)
	if len(s.client.replies) != 5 {
		t.Fatalf("client got %d replies, want 5", len(s.client.replies))
	}
	if s.replicas[1].Skips() == 0 || s.replicas[2].Skips() == 0 {
		t.Errorf("idle owners must skip: %d, %d", s.replicas[1].Skips(), s.replicas[2].Skips())
	}
	s.checkAgreement(t)
}

func TestScenarioAggregateThroughputScalesAcrossLeaders(t *testing.T) {
	// The Mencius claim: spreading clients across leaders raises
	// aggregate throughput versus funnelling everything through one.
	run := func(spread bool) int {
		s := newScenario(3, 3)
		seq := uint64(0)
		for i := 0; i < 300; i++ {
			seq++
			to := msg.NodeID(0)
			if spread {
				to = msg.NodeID(i % 3)
			}
			s.send(time.Duration(i)*20*time.Microsecond, to, seq)
		}
		s.net.RunFor(50 * time.Millisecond)
		return len(s.client.replies)
	}
	funnel, spread := run(false), run(true)
	if spread < funnel {
		t.Errorf("spread-leader commits %d < single-leader %d", spread, funnel)
	}
}
