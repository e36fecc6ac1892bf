package onepaxos

import (
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/readpath"
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

// bootRegime is a 3-group's regime before any utility entry commits:
// Replicas[0] leads at the last replica.
var bootRegime = replica.Regime{Leader: 0, Acceptor: 2}

func newReplica(t *testing.T, id msg.NodeID, n int) (*Replica, *runtime.FakeContext) {
	t.Helper()
	r := New(protocol.Config{ID: id, Replicas: replicaIDs(n)})
	ctx := runtime.NewFakeContext(id, n)
	return r, ctx
}

// --- Handler-level tests (Appendix A mechanics) ---

// TestNewValidation: a malformed group is rejected where engines are
// built (protocol.Build), the one validator every deployment goes
// through.
func TestNewValidation(t *testing.T) {
	if _, err := protocol.Build(protocol.OnePaxos, protocol.Config{ID: 0, Replicas: replicaIDs(2)}); err == nil {
		t.Error("two replicas must be rejected")
	}
	if _, err := protocol.Build(protocol.OnePaxos, protocol.Config{ID: 9, Replicas: replicaIDs(3)}); err == nil {
		t.Error("non-member id must be rejected")
	}
	if _, err := protocol.Build(protocol.OnePaxos, protocol.Config{ID: 0, Replicas: replicaIDs(3)}); err != nil {
		t.Errorf("a well-formed group must build: %v", err)
	}
}

func TestBootLeaderSendsFreshPrepare(t *testing.T) {
	r, ctx := newReplica(t, 0, 3)
	r.Start(ctx)
	sent := ctx.SentTo(2) // the boot acceptor is the last replica
	if len(sent) != 1 {
		t.Fatalf("boot leader sent %d messages to acceptor, want 1", len(sent))
	}
	pr, ok := sent[0].(msg.PrepareRequest)
	if !ok || !pr.MustBeFresh {
		t.Fatalf("boot prepare = %+v, want MustBeFresh", sent[0])
	}
	if got := r.Regime(); got != bootRegime {
		t.Fatalf("boot regime = %+v, want %+v", got, bootRegime)
	}
}

func TestNonLeaderNodesStayQuietAtBoot(t *testing.T) {
	for _, id := range []msg.NodeID{1, 2} {
		r, ctx := newReplica(t, id, 3)
		r.Start(ctx)
		if len(ctx.Sent) != 0 {
			t.Errorf("replica %d sent %d messages at boot, want 0", id, len(ctx.Sent))
		}
	}
}

func TestAcceptorFreshnessHandshake(t *testing.T) {
	// A fresh acceptor must reject a prepare that expects an adopted one.
	r, ctx := newReplica(t, 2, 3)
	r.Start(ctx)
	r.Receive(ctx, 1, msg.PrepareRequest{PN: 10, MustBeFresh: false})
	ab, ok := ctx.LastSent().M.(msg.Abandon)
	if !ok || !ab.FreshMismatch || !ab.IamFresh {
		t.Fatalf("want freshness-mismatch abandon, got %+v", ctx.LastSent().M)
	}
	// The matching expectation succeeds and un-freshens the acceptor.
	ctx.TakeSent()
	r.Receive(ctx, 1, msg.PrepareRequest{PN: 10, MustBeFresh: true})
	pr, ok := ctx.LastSent().M.(msg.Promise)
	if !ok || pr.PN != 10 || pr.From != 2 {
		t.Fatalf("want promise, got %+v", ctx.LastSent().M)
	}
	// Now adopted: a later MustBeFresh prepare must be rejected.
	ctx.TakeSent()
	r.Receive(ctx, 0, msg.PrepareRequest{PN: 20, MustBeFresh: true})
	ab, ok = ctx.LastSent().M.(msg.Abandon)
	if !ok || !ab.FreshMismatch || ab.IamFresh {
		t.Fatalf("adopted acceptor must reject MustBeFresh, got %+v", ctx.LastSent().M)
	}
}

func TestAcceptorRejectsLowerPN(t *testing.T) {
	r, ctx := newReplica(t, 2, 3)
	r.Start(ctx)
	r.Receive(ctx, 0, msg.PrepareRequest{PN: 50, MustBeFresh: true})
	ctx.TakeSent()
	r.Receive(ctx, 1, msg.PrepareRequest{PN: 49, MustBeFresh: false})
	ab, ok := ctx.LastSent().M.(msg.Abandon)
	if !ok || ab.HPN != 50 || ab.FreshMismatch {
		t.Fatalf("want plain abandon with hpn=50, got %+v", ctx.LastSent().M)
	}
}

func TestAcceptRequestFlow(t *testing.T) {
	r, ctx := newReplica(t, 2, 3)
	r.Start(ctx)
	r.Receive(ctx, 0, msg.PrepareRequest{PN: 10, MustBeFresh: true})
	ctx.TakeSent()

	val := msg.Value{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
	r.Receive(ctx, 0, msg.Accept{Instance: 0, PN: 10, Value: val})
	// Learn must be multicast to all three learners.
	learns := 0
	for _, s := range ctx.Sent {
		if l, ok := s.M.(msg.Learn); ok {
			learns++
			if len(l.Entries) != 1 || !l.Entries[0].Value.Equal(val) {
				t.Fatalf("learn carries %+v", l.Entries)
			}
		}
	}
	if learns != 3 {
		t.Fatalf("learn multicast to %d nodes, want 3", learns)
	}

	// Wrong pn is abandoned.
	ctx.TakeSent()
	r.Receive(ctx, 1, msg.Accept{Instance: 1, PN: 9, Value: val})
	if _, ok := ctx.LastSent().M.(msg.Abandon); !ok {
		t.Fatalf("stale-pn accept must be abandoned, got %+v", ctx.LastSent().M)
	}

	// A duplicate accept re-multicasts the original learn.
	ctx.TakeSent()
	r.Receive(ctx, 0, msg.Accept{Instance: 0, PN: 10, Value: val})
	if len(ctx.Sent) != 3 {
		t.Fatalf("duplicate accept re-sent %d learns, want 3", len(ctx.Sent))
	}
}

func TestPrepareResponseCarriesAcceptedProposals(t *testing.T) {
	// Lemma 2b: the promise must piggyback every accepted
	// proposal so the next leader re-proposes them.
	r, ctx := newReplica(t, 2, 3)
	r.Start(ctx)
	r.Receive(ctx, 0, msg.PrepareRequest{PN: 10, MustBeFresh: true})
	val := msg.Value{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k"}}
	r.Receive(ctx, 0, msg.Accept{Instance: 0, PN: 10, Value: val})
	ctx.TakeSent()

	r.Receive(ctx, 1, msg.PrepareRequest{PN: 20, MustBeFresh: false})
	pr, ok := ctx.LastSent().M.(msg.Promise)
	if !ok {
		t.Fatalf("want promise, got %+v", ctx.LastSent().M)
	}
	if len(pr.Accepted) != 1 || !pr.Accepted[0].Value.Equal(val) {
		t.Fatalf("accepted proposals not carried: %+v", pr.Accepted)
	}
}

func TestLeaderFastPath(t *testing.T) {
	r, ctx := newReplica(t, 0, 3)
	r.Start(ctx)
	// Adopt: acceptor 2 responds to the boot prepare.
	pn := ctx.SentTo(2)[0].(msg.PrepareRequest).PN
	ctx.TakeSent()
	r.Receive(ctx, 2, msg.Promise{From: 2, PN: pn})
	if !r.IsLeader() {
		t.Fatal("promise must make the proposer leader")
	}
	// A client request becomes a single accept to the acceptor.
	r.Receive(ctx, 5, msg.ClientRequest{Client: 5, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "a", Val: "1"}})
	accepts := ctx.SentTo(2)
	if len(accepts) != 1 {
		t.Fatalf("leader sent %d messages to acceptor, want 1", len(accepts))
	}
	ar, ok := accepts[0].(msg.Accept)
	if !ok || ar.Instance != 0 || ar.PN != pn {
		t.Fatalf("accept = %+v", accepts[0])
	}
	// Learning the instance answers the client.
	ctx.TakeSent()
	r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: 0, PN: pn, Value: ar.Value}}})
	replies := ctx.SentTo(5)
	if len(replies) != 1 {
		t.Fatalf("client got %d replies, want 1", len(replies))
	}
	rep := replies[0].(msg.ClientReply)
	if !rep.OK || rep.Seq != 1 || rep.Instance != 0 {
		t.Fatalf("reply = %+v", rep)
	}
	if r.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1", r.Commits())
	}
}

// TestTakeoverFallbackAcceptorIsNotTheTaker: a takeover back from a
// lost race (it named no acceptor) with PaxosUtility empty adopts the
// boot regime's acceptor, the last replica. Replicas[1] would name
// replica 1 of a 3-group leader and acceptor at once, the one placement
// 1Paxos forbids.
func TestTakeoverFallbackAcceptorIsNotTheTaker(t *testing.T) {
	r, ctx := newReplica(t, 1, 3)
	r.Start(ctx)
	r.Ctx = ctx
	r.takeover = gaveUp
	if got := r.acceptor(); got != msg.Nobody {
		t.Fatalf("a node back from a lost race names acceptor %d, want none", got)
	}
	r.startTakeover()
	if got := r.acceptor(); got != 2 {
		t.Fatalf("takeover by replica 1 adopts acceptor %d, want 2 (the boot acceptor)", got)
	}
}

// TestSupersededTakeoverStops: a takeover still adopting its acceptor
// stops when a utility entry names another leader. Its prepare deadline
// resends nothing, and a promise that arrives late does not
// make it leader: adopting under the replaced regime would steal the
// acceptor from the leader the entry names, and that leader's decided
// instances could then be no-op filled.
func TestSupersededTakeoverStops(t *testing.T) {
	for name, e := range map[string]msg.UtilEntry{
		"LeaderChange":   {Type: msg.EntryLeaderChange, Leader: 1, Acceptor: 2},
		"AcceptorChange": {Type: msg.EntryAcceptorChange, Leader: 1, Acceptor: 2},
	} {
		t.Run(name, func(t *testing.T) {
			r, ctx := newReplica(t, 0, 3)
			r.Start(ctx) // the boot takeover: a prepare to acceptor 2
			pn := ctx.SentTo(2)[0].(msg.PrepareRequest).PN
			ctx.TakeSent()
			r.onUtilCommit(0, e)
			r.Timer(ctx, runtime.TimerTag{Kind: timerPrepareDeadline, Arg: int64(pn)})
			if got := countTo[msg.PrepareRequest](ctx, 2); got != 0 {
				t.Fatalf("the superseded takeover re-sent %d prepares", got)
			}
			r.Receive(ctx, 2, msg.Promise{From: 2, PN: pn})
			if r.IsLeader() {
				t.Fatal("a late promise made the superseded taker leader")
			}
		})
	}
}

// TestRegimeFollowsUtilityCommits: the regime changes only when a
// utility entry commits, in slot order. Another node's LeaderChange
// deposes this leader, an AcceptorChange moves the acceptor (here onto
// this node, which starts fresh), and a backfill no-op installs
// nothing. Adopting the boot acceptor commits no entry.
func TestRegimeFollowsUtilityCommits(t *testing.T) {
	r, _ := adoptedLeader(t, nil)
	if got := r.Regime(); got != bootRegime {
		t.Fatalf("the boot takeover installed %+v, want the boot regime", got)
	}
	steps := []struct {
		entry msg.UtilEntry
		want  replica.Regime
	}{
		{msg.UtilEntry{Type: msg.EntryLeaderChange, Leader: 1, Acceptor: 2}, replica.Regime{Slot: 0, Leader: 1, Acceptor: 2}},
		{msg.UtilEntry{Type: msg.EntryAcceptorChange, Leader: 1, Acceptor: 0}, replica.Regime{Slot: 1, Leader: 1, Acceptor: 0}},
		{msg.UtilEntry{}, replica.Regime{Slot: 1, Leader: 1, Acceptor: 0}},
	}
	for slot, st := range steps {
		r.onUtilCommit(int64(slot), st.entry)
		if got := r.Regime(); got != st.want {
			t.Fatalf("slot %d (%+v): regime %+v, want %+v", slot, st.entry, got, st.want)
		}
		if r.IsLeader() || r.takeover != noTakeover {
			t.Fatalf("slot %d: replica 0 still claims a role (leading %v, takeover %d)", slot, r.IsLeader(), r.takeover)
		}
	}
	if !r.iAmFresh || r.acceptor() != 0 {
		t.Fatalf("the promoted acceptor must start fresh (fresh %v, acceptor %d)", r.iAmFresh, r.acceptor())
	}
}

func TestSessionDedupAnswersRetries(t *testing.T) {
	r, ctx := newReplica(t, 0, 3)
	r.Start(ctx)
	pn := ctx.SentTo(2)[0].(msg.PrepareRequest).PN
	r.Receive(ctx, 2, msg.Promise{From: 2, PN: pn})
	req := msg.ClientRequest{Client: 5, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "a", Val: "1"}}
	r.Receive(ctx, 5, req)
	ar := ctx.SentTo(2)[1].(msg.Accept)
	r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: 0, PN: pn, Value: ar.Value}}})
	ctx.TakeSent()

	// The same request again must be answered from the session table
	// without a new proposal.
	r.Receive(ctx, 5, req)
	if len(ctx.SentTo(2)) != 0 {
		t.Fatal("duplicate request must not re-propose")
	}
	replies := ctx.SentTo(5)
	if len(replies) != 1 || !replies[0].(msg.ClientReply).OK {
		t.Fatalf("duplicate request not answered: %+v", replies)
	}
}

func TestLearnOutOfOrderHoldsApplication(t *testing.T) {
	r, ctx := newReplica(t, 1, 3)
	r.Start(ctx)
	v1 := msg.Value{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "a"}}
	v2 := msg.Value{Client: 9, Seq: 2, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "b"}}
	r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: 1, PN: 5, Value: v2}}})
	if r.Commits() != 0 {
		t.Fatal("instance 1 must wait for instance 0")
	}
	r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: 0, PN: 5, Value: v1}}})
	if r.Commits() != 2 {
		t.Fatalf("Commits = %d, want 2 after the gap fills", r.Commits())
	}
	history := r.Log().History()
	if !history[0].Value.Equal(v1) || !history[1].Value.Equal(v2) {
		t.Fatalf("apply order wrong: %+v", history)
	}
}

func TestLearnBatchingKeepsLeaderPathImmediate(t *testing.T) {
	cfg := protocol.Config{ID: 2, Replicas: replicaIDs(3), LearnBatching: true}
	r := New(cfg)
	ctx := runtime.NewFakeContext(2, 3)
	r.Start(ctx)
	r.Receive(ctx, 0, msg.PrepareRequest{PN: 10, MustBeFresh: true})
	ctx.TakeSent()
	val := msg.Value{Client: 9, Seq: 1, Cmd: msg.Command{Op: msg.OpPut, Key: "k"}}
	r.Receive(ctx, 0, msg.Accept{Instance: 0, PN: 10, Value: val})
	// Only the adopted leader gets an immediate learn; the rest waits for
	// the flush timer.
	if got := len(ctx.SentTo(0)); got != 1 {
		t.Fatalf("leader got %d immediate learns, want 1", got)
	}
	if got := len(ctx.SentTo(1)); got != 0 {
		t.Fatalf("non-leader learner got %d learns before flush, want 0", got)
	}
	// Flush delivers the buffered entries to everyone else.
	ctx.TakeSent()
	r.Timer(ctx, runtime.TimerTag{Kind: timerFlushLearns})
	if got := len(ctx.SentTo(1)); got != 1 {
		t.Fatalf("non-leader learner got %d learns after flush, want 1", got)
	}
	if got := len(ctx.SentTo(0)); got != 0 {
		t.Fatalf("leader must not get the batch again, got %d", got)
	}
}

// --- Scenario tests on the simulator ---

// scenario wires n 1Paxos replicas plus one recording client node.
type scenario struct {
	net      *simnet.Network
	replicas []*Replica
	client   *recordingClient
	clientID msg.NodeID
}

type recordingClient struct {
	replies []msg.ClientReply
}

func (c *recordingClient) Start(runtime.Context) {}
func (c *recordingClient) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	if rep, ok := m.(msg.ClientReply); ok {
		c.replies = append(c.replies, rep)
	}
}
func (c *recordingClient) Timer(runtime.Context, runtime.TimerTag) {}

func newScenario(t *testing.T, n int, seed int64, tweak func(*protocol.Config)) *scenario {
	t.Helper()
	machine := topology.Uniform(n+1, time.Microsecond)
	net := simnet.New(machine, simnet.ManyCore(), seed)
	ids := replicaIDs(n)
	s := &scenario{net: net}
	for i := 0; i < n; i++ {
		cfg := protocol.Config{ID: msg.NodeID(i), Replicas: ids}
		if tweak != nil {
			tweak(&cfg)
		}
		r := New(cfg)
		s.replicas = append(s.replicas, r)
		net.AddNode(r)
	}
	s.client = &recordingClient{}
	s.clientID = net.AddNode(s.client)
	net.Start()
	return s
}

// send schedules a client request to the given replica at virtual time at.
func (s *scenario) send(at time.Duration, to msg.NodeID, seq uint64) {
	s.net.At(at, func() {
		s.net.Inject(s.clientID, to, msg.ClientRequest{
			Client: s.clientID,
			Seq:    seq,
			Cmd:    msg.Command{Op: msg.OpPut, Key: "k", Val: "v"},
		})
	})
}

// checkAgreement verifies that no two replicas disagree on any instance.
func (s *scenario) checkAgreement(t *testing.T) {
	t.Helper()
	chosen := make(map[int64]msg.Value)
	for i, r := range s.replicas {
		for _, e := range r.Log().History() {
			if prev, ok := chosen[e.Instance]; ok && !prev.Equal(e.Value) {
				t.Fatalf("replica %d: instance %d has %+v, another replica has %+v", i, e.Instance, e.Value, prev)
			} else if !ok {
				chosen[e.Instance] = e.Value
			}
		}
	}
}

func TestScenarioFailureFree(t *testing.T) {
	s := newScenario(t, 3, 1, nil)
	for i := uint64(1); i <= 5; i++ {
		s.send(time.Duration(i)*100*time.Microsecond, 0, i)
	}
	s.net.RunFor(10 * time.Millisecond)
	if len(s.client.replies) != 5 {
		t.Fatalf("client got %d replies, want 5", len(s.client.replies))
	}
	if !s.replicas[0].IsLeader() {
		t.Error("replica 0 must lead in the failure-free run")
	}
	for i, r := range s.replicas {
		if got := r.Regime(); got != bootRegime {
			t.Errorf("replica %d's regime = %+v, want the boot regime: adopting the boot acceptor commits no utility entry", i, got)
		}
	}
	s.checkAgreement(t)
}

func TestScenarioLeaderCrashTakeover(t *testing.T) {
	s := newScenario(t, 3, 2, nil)
	s.send(100*time.Microsecond, 0, 1)
	s.net.At(2*time.Millisecond, func() { s.net.Crash(0) })
	// The client redirects to replica 1, which must take over.
	s.send(3*time.Millisecond, 1, 2)
	s.net.RunFor(20 * time.Millisecond)
	if len(s.client.replies) != 2 {
		t.Fatalf("client got %d replies, want 2", len(s.client.replies))
	}
	if !s.replicas[1].IsLeader() {
		t.Error("replica 1 must lead after the crash")
	}
	// The takeover's LeaderChange is utility slot 0 and keeps the acceptor.
	for _, i := range []int{1, 2} {
		if got, want := s.replicas[i].Regime(), (replica.Regime{Slot: 0, Leader: 1, Acceptor: 2}); got != want {
			t.Errorf("replica %d's regime = %+v, want %+v", i, got, want)
		}
	}
	s.checkAgreement(t)
}

func TestScenarioAcceptorCrashCarriesProposals(t *testing.T) {
	// Crash the acceptor at boot-adoption time, with accepts already in
	// flight: the AcceptorChange must carry the uncommitted proposals and
	// every value must still commit exactly once (Lemma 2a).
	s := newScenario(t, 3, 3, nil)
	for i := uint64(1); i <= 3; i++ {
		s.send(time.Duration(i)*10*time.Microsecond, 0, i)
	}
	// Crash before any accept reaches the acceptor, so all three
	// proposals must travel through the AcceptorChange entry.
	s.net.At(14*time.Microsecond, func() { s.net.Crash(2) })
	s.net.RunFor(30 * time.Millisecond)
	if len(s.client.replies) != 3 {
		t.Fatalf("client got %d replies, want 3", len(s.client.replies))
	}
	// One AcceptorChange, utility slot 0, promoted backup 1.
	for _, i := range []int{0, 1} {
		if got, want := s.replicas[i].Regime(), (replica.Regime{Slot: 0, Leader: 0, Acceptor: 1}); got != want {
			t.Errorf("replica %d's regime = %+v, want %+v", i, got, want)
		}
	}
	// No duplicate applications: seqs 1..3 exactly once on the leader.
	seen := make(map[uint64]int)
	for _, e := range s.replicas[0].Log().History() {
		if e.Value.Client == s.clientID {
			seen[e.Value.Seq]++
		}
	}
	for seq, n := range seen {
		if n != 1 {
			t.Errorf("seq %d applied %d times", seq, n)
		}
	}
	s.checkAgreement(t)
}

func TestScenarioBootAcceptorDead(t *testing.T) {
	// The initial acceptor is dead from the start: the boot leader must
	// promote a backup via the virgin-acceptor path and still serve.
	s := newScenario(t, 3, 4, nil)
	s.net.Crash(2)
	s.send(100*time.Microsecond, 0, 1)
	s.net.RunFor(50 * time.Millisecond)
	if len(s.client.replies) != 1 {
		t.Fatalf("client got %d replies, want 1", len(s.client.replies))
	}
	if aa := s.replicas[0].Regime().Acceptor; aa != 1 {
		t.Errorf("acceptor = %d, want backup 1", aa)
	}
	s.checkAgreement(t)
}

func TestScenarioLeaderAndAcceptorDownStallsThenRecovers(t *testing.T) {
	// Five replicas; leader 0 and acceptor 4 both crash. The paper:
	// "while both the leader and the active acceptor are not responding,
	// it is the liveness of the system that is affected, but not its
	// safety" — no progress until one recovers.
	s := newScenario(t, 5, 5, nil)
	s.send(100*time.Microsecond, 0, 1)
	s.net.At(2*time.Millisecond, func() {
		s.net.Crash(0)
		s.net.Crash(4)
	})
	s.send(3*time.Millisecond, 1, 2) // replica 1 will try to take over
	s.net.RunFor(40 * time.Millisecond)
	if len(s.client.replies) != 1 {
		t.Fatalf("no commit may happen while leader and acceptor are both down; got %d replies", len(s.client.replies))
	}
	// Recover the acceptor: the takeover in flight must now complete.
	s.net.At(41*time.Millisecond, func() { s.net.Recover(4) })
	s.net.RunFor(100 * time.Millisecond)
	if len(s.client.replies) != 2 {
		t.Fatalf("client got %d replies after recovery, want 2", len(s.client.replies))
	}
	if !s.replicas[1].IsLeader() {
		t.Error("replica 1 must lead after recovery")
	}
	s.checkAgreement(t)
}

func TestScenarioDeposedLeaderRelinquishes(t *testing.T) {
	// Two replicas race for leadership; the loser must relinquish and the
	// system must converge on a single leader.
	s := newScenario(t, 3, 6, nil)
	s.net.Crash(0) // boot leader never comes up
	s.send(time.Millisecond, 1, 1)
	s.net.RunFor(30 * time.Millisecond)
	if len(s.client.replies) != 1 {
		t.Fatalf("client got %d replies, want 1", len(s.client.replies))
	}
	if !s.replicas[1].IsLeader() {
		t.Error("replica 1 must lead")
	}
	if l := s.replicas[1].Regime().Leader; l != 1 {
		t.Errorf("regime leader = %d, want 1", l)
	}
	s.checkAgreement(t)
}

func TestScenarioForwardingMode(t *testing.T) {
	// Joint-style forwarding: a request to a non-leader is forwarded to
	// the leader rather than triggering a takeover.
	s := newScenario(t, 3, 7, func(c *protocol.Config) { c.ForwardToLeader = true })
	s.send(time.Millisecond, 1, 1) // hits non-leader replica 1
	s.net.RunFor(20 * time.Millisecond)
	if len(s.client.replies) != 1 {
		t.Fatalf("client got %d replies, want 1", len(s.client.replies))
	}
	if s.replicas[1].IsLeader() {
		t.Error("forwarding node must not take over")
	}
	if got := s.replicas[1].Regime(); got != bootRegime {
		t.Errorf("the forwarding node installed %+v, want the boot regime", got)
	}
	if !s.replicas[0].IsLeader() {
		t.Error("replica 0 must remain leader")
	}
	s.checkAgreement(t)
}

func TestScenarioRandomFaultScheduleSafety(t *testing.T) {
	// Safety sweep: random slow-core schedules on a 5-replica cluster,
	// random request injection at random replicas; afterwards no two
	// replicas may disagree on any instance (the paper's consistency
	// property). Faults are slowdowns, matching the paper's fault model:
	// "The notion of crash used here does not necessarily mean the cores
	// stopping any activities forever. It simply models slow ones." —
	// cores are delayed, never amnesiac, and messages are never lost.
	for seed := int64(0); seed < 25; seed++ {
		s := newScenario(t, 5, 100+seed, nil)
		rng := s.net.Engine().Rand()
		seq := uint64(0)
		for i := 0; i < 40; i++ {
			at := time.Duration(rng.Intn(50_000)) * time.Microsecond
			switch rng.Intn(8) {
			case 0, 1:
				node := msg.NodeID(rng.Intn(5))
				factor := float64(rng.Intn(400) + 50) // deep stall
				hold := time.Duration(rng.Intn(15_000)) * time.Microsecond
				s.net.At(at, func() { s.net.SetSlow(node, factor) })
				s.net.At(at+hold, func() { s.net.SetSlow(node, 1) })
			default:
				seq++
				s.send(at, msg.NodeID(rng.Intn(5)), seq)
			}
		}
		s.net.RunFor(300 * time.Millisecond)
		s.checkAgreement(t)
		// Duplicate-suppression: every committed seq at most once per log.
		for ri, r := range s.replicas {
			seen := make(map[uint64]int)
			for _, e := range r.Log().History() {
				if e.Value.Client == s.clientID {
					seen[e.Value.Seq]++
				}
			}
			for sq, n := range seen {
				if n > 1 {
					t.Fatalf("seed %d replica %d: seq %d applied %d times", seed, ri, sq, n)
				}
			}
		}
	}
}

// TestAcceptorPrunesAcceptedBelowAppliedFrontier pins Accepted.Prune's
// two walks (from the last frontier; over the map when the frontier ran
// far ahead) and the late accept that lands below the frontier.
func TestAcceptorPrunesAcceptedBelowAppliedFrontier(t *testing.T) {
	r, ctx := newReplica(t, 2, 3)
	r.Start(ctx)
	r.Receive(ctx, 0, msg.PrepareRequest{PN: 10, MustBeFresh: true})
	value := func(in int64) msg.Value {
		return msg.Value{Client: 9, Seq: uint64(in + 1), Cmd: msg.Command{Op: msg.OpPut, Key: "k"}}
	}
	accept := func(in int64) { r.Receive(ctx, 0, msg.Accept{Instance: in, PN: 10, Value: value(in)}) }
	learn := func(in int64) {
		r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: in, PN: 10, Value: value(in)}}})
	}
	wantAccepted := func(step string, want ...int64) {
		t.Helper()
		if len(r.ap.ByInstance) != len(want) {
			t.Fatalf("%s: acceptor holds %d proposals, want instances %v", step, len(r.ap.ByInstance), want)
		}
		for _, in := range want {
			if _, ok := r.ap.ByInstance[in]; !ok {
				t.Fatalf("%s: acceptor lost instance %d, want %v", step, in, want)
			}
		}
	}
	for in := int64(0); in < 5; in++ {
		accept(in)
		learn(in)
	}
	accept(5)
	wantAccepted("after the frontier passed 0..4", 5)
	// A late duplicate accept below the frontier is taken (its learn is
	// re-multicast) and pruned by the next accept.
	accept(2)
	wantAccepted("late accept", 2, 5)
	accept(6)
	wantAccepted("accept after a late one", 5, 6)
	// Long absence: the log runs 200 instances ahead through learns this
	// node never accepted.
	for in := int64(5); in < 205; in++ {
		learn(in)
	}
	accept(205)
	wantAccepted("after a long absence", 205)
}

// --- The accept deadline ---

// adoptedLeader returns replica 0 of a three-group whose boot takeover
// adopted acceptor 2, with the boot traffic cleared.
func adoptedLeader(t *testing.T, tweak func(*protocol.Config)) (*Replica, *runtime.FakeContext) {
	t.Helper()
	cfg := protocol.Config{ID: 0, Replicas: replicaIDs(3)}
	if tweak != nil {
		tweak(&cfg)
	}
	r := New(cfg)
	ctx := runtime.NewFakeContext(0, 3)
	r.Start(ctx)
	pn := ctx.SentTo(2)[0].(msg.PrepareRequest).PN
	r.Receive(ctx, 2, msg.Promise{From: 2, PN: pn})
	if !r.IsLeader() {
		t.Fatal("setup: the boot takeover did not adopt acceptor 2")
	}
	ctx.TakeSent()
	return r, ctx
}

func clientPut(seq uint64) msg.ClientRequest {
	return msg.ClientRequest{Client: 5, Seq: seq, Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"}}
}

// acceptDeadlines returns the accept-deadline timers armed so far.
func acceptDeadlines(ctx *runtime.FakeContext) []runtime.FakeTimer {
	var out []runtime.FakeTimer
	for _, tm := range ctx.Timers {
		if tm.Tag.Kind == replica.TimerAcceptDeadline {
			out = append(out, tm)
		}
	}
	return out
}

// fireAcceptDeadline delivers the newest accept-deadline timer at its
// deadline.
func fireAcceptDeadline(t *testing.T, r *Replica, ctx *runtime.FakeContext) {
	t.Helper()
	timers := acceptDeadlines(ctx)
	if len(timers) == 0 {
		t.Fatal("no accept deadline armed")
	}
	tm := timers[len(timers)-1]
	ctx.Clock = tm.At
	r.Timer(ctx, tm.Tag)
}

// TestOneAcceptDeadlinePerLeader is the revert guard against a timer per
// instance: a leader with many accepts in flight arms one deadline.
func TestOneAcceptDeadlinePerLeader(t *testing.T) {
	r, ctx := adoptedLeader(t, nil)
	for seq := uint64(1); seq <= 8; seq++ {
		ctx.Clock += time.Microsecond
		r.Receive(ctx, 5, clientPut(seq))
	}
	if got := countTo[msg.Accept](ctx, 2); got != 8 {
		t.Fatalf("sent %d accepts, want 8", got)
	}
	if n := len(acceptDeadlines(ctx)); n != 1 {
		t.Fatalf("8 accepts in flight armed %d accept deadlines, want 1", n)
	}
}

// TestAcceptorSuspectedAtOldestAcceptTimeout: the leader suspects its
// acceptor when the oldest unlearned accept is AcceptTimeout old, not
// when an accept it has since learned would have been.
func TestAcceptorSuspectedAtOldestAcceptTimeout(t *testing.T) {
	r, ctx := adoptedLeader(t, nil)
	r.Receive(ctx, 5, clientPut(1)) // instance 0 at 0
	first := ctx.SentTo(2)[0].(msg.Accept)
	ctx.Clock = 300 * time.Microsecond
	r.Receive(ctx, 5, clientPut(2)) // instance 1 at 300µs
	ctx.Clock = 350 * time.Microsecond
	r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: 0, PN: first.PN, Value: first.Value}}})
	fireAcceptDeadline(t, r, ctx) // 400µs
	if r.switchingAa {
		t.Fatal("suspected the acceptor at 400µs: the oldest unlearned accept was 100µs old")
	}
	if at := acceptDeadlines(ctx)[1].At; at != 300*time.Microsecond+DefaultAcceptTimeout {
		t.Fatalf("the deadline re-armed for %v, want %v", at, 300*time.Microsecond+DefaultAcceptTimeout)
	}
	fireAcceptDeadline(t, r, ctx)
	if !r.switchingAa {
		t.Fatal("the acceptor was not suspected when instance 1 went AcceptTimeout unlearned")
	}
}

// TestLearnedInstanceNeverSuspected: a learn retires its instance from
// the deadline, and with nothing outstanding the deadline dies.
func TestLearnedInstanceNeverSuspected(t *testing.T) {
	r, ctx := adoptedLeader(t, nil)
	r.Receive(ctx, 5, clientPut(1))
	ar := ctx.SentTo(2)[0].(msg.Accept)
	r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: ar.Instance, PN: ar.PN, Value: ar.Value}}})
	fireAcceptDeadline(t, r, ctx)
	if r.switchingAa {
		t.Fatal("a learned instance made the leader suspect its acceptor")
	}
	if n := len(acceptDeadlines(ctx)); n != 1 {
		t.Fatalf("the deadline re-armed with nothing outstanding (%d armed)", n)
	}
}

// TestFreshAcceptorLeaseHoldIsNotAFailure: under leases an acceptor this
// leader just promoted refuses every prepare for a lease
// (readpath.AssumeForeignLease). The prepare deadline retries through
// that hold; replacing the acceptor for it would promote the other
// backup into the same hold, and the two would trade places every
// AcceptTimeout without adopting anyone.
func TestFreshAcceptorLeaseHoldIsNotAFailure(t *testing.T) {
	const lease = 5 * time.Millisecond
	r, ctx := adoptedLeader(t, func(c *protocol.Config) {
		c.ReadMode = readpath.Lease
		c.LeaseDuration = lease
	})
	r.Ctx = ctx
	// The leader's AcceptorChange 2 -> 1 commits; it re-adopts the fresh
	// backup with a MustBeFresh prepare.
	r.onUtilCommit(0, msg.UtilEntry{Type: msg.EntryAcceptorChange, Leader: 0, Acceptor: 1})
	r.become(false, takingOver)
	deadline := func(at time.Duration) {
		ctx.Clock = at
		ctx.TakeSent()
		r.Timer(ctx, runtime.TimerTag{Kind: timerPrepareDeadline, Arg: int64(r.myPN)})
	}
	deadline(lease / 2)
	if r.switchingAa || countTo[msg.PrepareRequest](ctx, 1) != 1 {
		t.Fatalf("inside the fresh acceptor's lease hold the leader must retry its prepare, not replace the acceptor (switching %v)", r.switchingAa)
	}
	deadline(lease + 2*DefaultAcceptTimeout)
	if !r.switchingAa {
		t.Fatal("a fresh acceptor silent past its lease hold must be replaced")
	}
}
