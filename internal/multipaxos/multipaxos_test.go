package multipaxos

import (
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/replica"
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

// TestNewValidation: a malformed group is rejected where engines are
// built (protocol.Build), the one validator every deployment goes
// through.
func TestNewValidation(t *testing.T) {
	if _, err := protocol.Build(protocol.MultiPaxos, protocol.Config{ID: 0, Replicas: replicaIDs(2)}); err == nil {
		t.Error("two replicas must be rejected")
	}
	if _, err := protocol.Build(protocol.MultiPaxos, protocol.Config{ID: 9, Replicas: replicaIDs(3)}); err == nil {
		t.Error("non-member id must be rejected")
	}
	if _, err := protocol.Build(protocol.MultiPaxos, protocol.Config{ID: 0, Replicas: replicaIDs(3)}); err != nil {
		t.Errorf("a well-formed group must build: %v", err)
	}
}

func TestLeaderWinsPhaseOneThenProposes(t *testing.T) {
	r := New(protocol.Config{ID: 0, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(0, 3)
	r.Start(ctx)
	// Phase 1 must go to every acceptor, self included.
	prepares := 0
	var pn uint64
	for _, s := range ctx.TakeSent() {
		if p, ok := s.M.(msg.MPPrepare); ok {
			prepares++
			pn = p.PN
		}
	}
	if prepares != 3 {
		t.Fatalf("sent %d prepares, want 3", prepares)
	}
	// A minority of promises is not enough.
	r.Receive(ctx, 0, msg.Promise{From: 0, PN: pn})
	if r.IsLeader() {
		t.Fatal("one promise of three must not elect")
	}
	if got, want := r.Regime(), (replica.Regime{Leader: 0, Acceptor: msg.Nobody}); got != want {
		t.Fatalf("before the election the regime is %+v, want the boot rule %+v", got, want)
	}
	r.Receive(ctx, 1, msg.Promise{From: 1, PN: pn})
	if !r.IsLeader() {
		t.Fatal("majority of promises must elect")
	}
	if got, want := r.Regime(), (replica.Regime{Leader: 0, Acceptor: msg.Nobody, Ballot: pn}); got != want {
		t.Fatalf("the won ballot installed %+v, want %+v", got, want)
	}
	// A client request broadcasts one accept per replica.
	ctx.TakeSent()
	r.Receive(ctx, 7, msg.ClientRequest{Client: 7, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k"}})
	accepts := 0
	for _, s := range ctx.Sent {
		if _, ok := s.M.(msg.Accept); ok {
			accepts++
		}
	}
	if accepts != 3 {
		t.Fatalf("sent %d accepts, want 3 (one per acceptor)", accepts)
	}
}

func TestPromiseCarriesAcceptedTail(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	val := msg.Value{Client: 7, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k"}}
	r.Receive(ctx, 0, msg.Accept{Instance: 0, PN: 1, Value: val})
	ctx.TakeSent()
	r.Receive(ctx, 2, msg.MPPrepare{PN: 100, FromInstance: 0})
	prom, ok := ctx.LastSent().M.(msg.Promise)
	if !ok {
		t.Fatalf("want promise, got %+v", ctx.LastSent().M)
	}
	if len(prom.Accepted) != 1 || !prom.Accepted[0].Value.Equal(val) {
		t.Fatalf("promise must carry the accepted tail, got %+v", prom.Accepted)
	}
}

func TestPromiseIncludesAppliedSuffix(t *testing.T) {
	// Even after the acceptor applied (and pruned) an instance, a lagging
	// proposer's prepare must still see its value.
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	val := msg.Value{Client: 7, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k"}}
	// Learn from a majority so instance 0 applies locally.
	r.Receive(ctx, 0, msg.Accepted{Instance: 0, PN: 1, Value: val, From: 0})
	r.Receive(ctx, 2, msg.Accepted{Instance: 0, PN: 1, Value: val, From: 2})
	if r.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1", r.Commits())
	}
	// Force pruning via a later accept.
	r.Receive(ctx, 0, msg.Accept{Instance: 1, PN: 1, Value: val})
	ctx.TakeSent()
	r.Receive(ctx, 2, msg.MPPrepare{PN: 100, FromInstance: 0})
	prom := ctx.LastSent().M.(msg.Promise)
	found := false
	for _, p := range prom.Accepted {
		if p.Instance == 0 && p.Value.Equal(val) {
			found = true
		}
	}
	if !found {
		t.Fatalf("applied instance missing from promise: %+v", prom.Accepted)
	}
}

func TestAcceptorNacksStalePN(t *testing.T) {
	r := New(protocol.Config{ID: 1, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(1, 3)
	r.Start(ctx)
	r.Receive(ctx, 0, msg.MPPrepare{PN: 50, FromInstance: 0})
	ctx.TakeSent()
	r.Receive(ctx, 2, msg.MPPrepare{PN: 10, FromInstance: 0})
	if _, ok := ctx.LastSent().M.(msg.MPNack); !ok {
		t.Fatalf("stale prepare must be nacked, got %+v", ctx.LastSent().M)
	}
	ctx.TakeSent()
	r.Receive(ctx, 2, msg.Accept{Instance: 0, PN: 10, Value: msg.Value{Client: 1, Seq: 1}})
	if _, ok := ctx.LastSent().M.(msg.MPNack); !ok {
		t.Fatalf("stale accept must be nacked, got %+v", ctx.LastSent().M)
	}
}

func TestLearnerNeedsMajority(t *testing.T) {
	r := New(protocol.Config{ID: 2, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(2, 3)
	r.Start(ctx)
	val := msg.Value{Client: 7, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k"}}
	r.Receive(ctx, 0, msg.Accepted{Instance: 0, PN: 1, Value: val, From: 0})
	if r.Commits() != 0 {
		t.Fatal("one acceptor's learn must not commit")
	}
	// A learn with a different pn from another acceptor does not count
	// toward the same majority.
	r.Receive(ctx, 1, msg.Accepted{Instance: 0, PN: 2, Value: val, From: 1})
	if r.Commits() != 0 {
		t.Fatal("mixed-pn learns must not commit")
	}
	r.Receive(ctx, 1, msg.Accepted{Instance: 0, PN: 1, Value: val, From: 1})
	if r.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1 after matching majority", r.Commits())
	}
}

// TestNackDeposesLeader: a leader steps down on evidence of a higher
// ballot, a nack or another proposer's accept — whose own accepts may
// never be nacked — and releases the reply duty for what it proposed,
// so the client's retry starts a new prepare instead of being dropped
// as a duplicate of a proposal nobody drives.
func TestNackDeposesLeader(t *testing.T) {
	put := msg.ClientRequest{Client: 7, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k"}}
	for _, tc := range []struct {
		name     string
		evidence func(pn uint64) msg.Message
	}{
		{"nack", func(pn uint64) msg.Message { return msg.MPNack{PN: pn + 100} }},
		{"accept", func(pn uint64) msg.Message {
			return msg.Accept{Instance: 0, PN: pn + 100, Value: msg.Value{Client: 8, Seq: 1}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(protocol.Config{ID: 0, Replicas: replicaIDs(3)})
			ctx := runtime.NewFakeContext(0, 3)
			r.Start(ctx)
			pn := ctx.Sent[0].M.(msg.MPPrepare).PN
			r.Receive(ctx, 0, msg.Promise{From: 0, PN: pn})
			r.Receive(ctx, 1, msg.Promise{From: 1, PN: pn})
			if !r.IsLeader() {
				t.Fatal("setup: leader election failed")
			}
			r.Receive(ctx, 7, put)
			r.Receive(ctx, 2, tc.evidence(pn))
			if r.IsLeader() {
				t.Fatalf("a higher-pn %s must depose the leader", tc.name)
			}
			// Stepping down keeps the regime; only an accept shows a new one.
			want := replica.Regime{Leader: 0, Acceptor: msg.Nobody, Ballot: pn}
			if _, ok := tc.evidence(pn).(msg.Accept); ok {
				want = replica.Regime{Leader: 2, Acceptor: msg.Nobody, Ballot: pn + 100}
			}
			if got := r.Regime(); got != want {
				t.Fatalf("after the %s the regime is %+v, want %+v", tc.name, got, want)
			}
			ctx.TakeSent()
			r.Receive(ctx, 7, put)
			prepares := 0
			for _, s := range ctx.Sent {
				if _, ok := s.M.(msg.MPPrepare); ok {
					prepares++
				}
			}
			if prepares != 3 {
				t.Fatalf("the client's retry sent %d prepares, want 3: the deposed leader kept its reply duty", prepares)
			}
		})
	}
}

// electedLeader returns replica 0 of a three-group after it won phase 1,
// with the election traffic cleared.
func electedLeader(t *testing.T) (*Replica, *runtime.FakeContext, uint64) {
	t.Helper()
	r := New(protocol.Config{ID: 0, Replicas: replicaIDs(3)})
	ctx := runtime.NewFakeContext(0, 3)
	r.Start(ctx)
	pn := ctx.Sent[0].M.(msg.MPPrepare).PN
	r.Receive(ctx, 0, msg.Promise{From: 0, PN: pn})
	r.Receive(ctx, 1, msg.Promise{From: 1, PN: pn})
	if !r.IsLeader() {
		t.Fatal("setup: leader election failed")
	}
	ctx.TakeSent()
	return r, ctx, pn
}

// acceptsFor counts the accepts sent for instance in.
func acceptsFor(ctx *runtime.FakeContext, in int64) int {
	n := 0
	for _, s := range ctx.Sent {
		if a, ok := s.M.(msg.Accept); ok && a.Instance == in {
			n++
		}
	}
	return n
}

// TestOneRetransmitDeadlinePerLeader: the accepts in flight share one
// retransmit deadline, which resends every accept still unlearned when
// it fires — and only those.
func TestOneRetransmitDeadlinePerLeader(t *testing.T) {
	r, ctx, pn := electedLeader(t)
	for seq := uint64(1); seq <= 4; seq++ {
		r.Receive(ctx, 7, msg.ClientRequest{Client: 7, Seq: seq, Cmd: msg.Command{Op: msg.OpPut, Key: "k"}})
	}
	if n := len(ctx.Timers); n != 1 {
		t.Fatalf("4 accepts in flight armed %d timers, want 1", n)
	}
	// Instance 1 is learned; 0, 2 and 3 are not.
	for _, from := range []msg.NodeID{1, 2} {
		r.Receive(ctx, from, msg.Accepted{Instance: 1, PN: pn, Value: msg.Value{Client: 7, Seq: 2, Cmd: msg.Command{Op: msg.OpPut, Key: "k"}}, From: from})
	}
	ctx.TakeSent()
	ctx.Clock = ctx.Timers[0].At
	r.Timer(ctx, ctx.Timers[0].Tag)
	for in, want := range []int{3, 0, 3, 3} {
		if got := acceptsFor(ctx, int64(in)); got != want {
			t.Errorf("instance %d: %d accepts resent, want %d", in, got, want)
		}
	}
}

// TestProposalSkipsInstanceDecidedByRival: a leader whose next instance
// was already decided by a rival leader's accepts proposes above it. A
// proposal there would be dropped unsent, and the client's retries with
// it as duplicates of a proposal nobody drives.
func TestProposalSkipsInstanceDecidedByRival(t *testing.T) {
	r, ctx, pn := electedLeader(t)
	rival := msg.Value{Client: 8, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "r"}}
	for _, from := range []msg.NodeID{1, 2} {
		r.Receive(ctx, from, msg.Accepted{Instance: 0, PN: pn - 1, Value: rival, From: from})
	}
	if !r.Log().Learned(0) {
		t.Fatal("setup: instance 0 was not learned")
	}
	r.Receive(ctx, 7, msg.ClientRequest{Client: 7, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k"}})
	if got := acceptsFor(ctx, 1); got != 3 {
		t.Fatalf("the request went out in %d accepts for instance 1, want 3 (instance 0 is decided)", got)
	}
}

// --- Scenario tests on the simulator ---

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

func TestScenarioCommit(t *testing.T) {
	s := newScenario(3, 1)
	for i := uint64(1); i <= 5; i++ {
		s.send(time.Duration(i)*100*time.Microsecond, 0, i)
	}
	s.net.RunFor(10 * time.Millisecond)
	if len(s.client.replies) != 5 {
		t.Fatalf("client got %d replies, want 5", len(s.client.replies))
	}
	s.checkAgreement(t)
}

func TestScenarioProgressWithMinorityCrashed(t *testing.T) {
	// Multi-Paxos needs only a majority: with replica 1 crashed, commits
	// must still flow (the non-blocking property 2PC lacks).
	s := newScenario(3, 2)
	s.net.Crash(1)
	for i := uint64(1); i <= 5; i++ {
		s.send(time.Duration(i)*100*time.Microsecond, 0, i)
	}
	s.net.RunFor(20 * time.Millisecond)
	if len(s.client.replies) != 5 {
		t.Fatalf("client got %d replies with a minority down, want 5", len(s.client.replies))
	}
	s.checkAgreement(t)
}

func TestScenarioLeaderCrashTakeover(t *testing.T) {
	s := newScenario(3, 3)
	s.send(100*time.Microsecond, 0, 1)
	s.net.At(2*time.Millisecond, func() { s.net.Crash(0) })
	s.send(3*time.Millisecond, 1, 2)
	s.net.RunFor(30 * time.Millisecond)
	if len(s.client.replies) != 2 {
		t.Fatalf("client got %d replies, want 2", len(s.client.replies))
	}
	if !s.replicas[1].IsLeader() {
		t.Error("replica 1 must lead after the crash")
	}
	for _, i := range []int{1, 2} {
		if g := s.replicas[i].Regime(); g.Leader != 1 || g.Ballot == 0 {
			t.Errorf("replica %d's regime is %+v, want replica 1's won ballot", i, g)
		}
	}
	s.checkAgreement(t)
}

func TestScenarioStallsWithoutMajority(t *testing.T) {
	s := newScenario(3, 4)
	s.net.Crash(1)
	s.net.Crash(2)
	s.send(100*time.Microsecond, 0, 1)
	s.net.RunFor(20 * time.Millisecond)
	if len(s.client.replies) != 0 {
		t.Fatalf("no commit may happen without a majority; got %d replies", len(s.client.replies))
	}
}

func TestScenarioRandomSlowdownSafety(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		s := newScenario(5, 200+seed)
		rng := s.net.Engine().Rand()
		seq := uint64(0)
		for i := 0; i < 30; i++ {
			at := time.Duration(rng.Intn(40_000)) * time.Microsecond
			if rng.Intn(5) == 0 {
				node := msg.NodeID(rng.Intn(5))
				factor := float64(rng.Intn(300) + 50)
				s.net.At(at, func() { s.net.SetSlow(node, factor) })
				s.net.At(at+10*time.Millisecond, func() { s.net.SetSlow(node, 1) })
			} else {
				seq++
				s.send(at, msg.NodeID(rng.Intn(5)), seq)
			}
		}
		s.net.RunFor(200 * time.Millisecond)
		s.checkAgreement(t)
	}
}
