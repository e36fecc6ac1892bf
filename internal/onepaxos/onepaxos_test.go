package onepaxos

import (
	"testing"
	"time"

	"consensusinside/internal/cluster"
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/protocol/enginetest"
	"consensusinside/internal/readpath"
	"consensusinside/internal/replica"
	"consensusinside/internal/runtime"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

func TestConformance(t *testing.T) { enginetest.Run(t, protocol.OnePaxos) }

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

// --- Scenarios on the simulator harness ---

// simulate starts n replicas and one client on the simulator harness:
// the client issues requests commands, think apart, to replica 0 first
// and rotates to the next replica on a retry. Tests stage faults on
// c.Net.
func simulate(t *testing.T, n, requests int, think time.Duration, tweak func(*cluster.Spec)) (*cluster.Cluster, func(int) *Replica) {
	t.Helper()
	spec := cluster.Spec{
		Protocol: protocol.OnePaxos, Machine: topology.Uniform(n+1, time.Microsecond), Cost: simnet.ManyCore(),
		Seed: 1, Replicas: n, Clients: 1, RequestsPerClient: requests, ThinkTime: think,
	}
	if tweak != nil {
		tweak(&spec)
	}
	c, err := cluster.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	return c, func(i int) *Replica { return c.Servers[i].(*Replica) }
}

// settled checks that the client completed want commands and that the
// logs agree.
func settled(t *testing.T, c *cluster.Cluster, want int) {
	t.Helper()
	if got := c.Clients[0].Completed(); got != want {
		t.Fatalf("client completed %d commands, want %d", got, want)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioFailureFree(t *testing.T) {
	c, r := simulate(t, 3, 5, 100*time.Microsecond, nil)
	c.RunFor(10 * time.Millisecond)
	settled(t, c, 5)
	if !r(0).IsLeader() {
		t.Error("replica 0 must lead in the failure-free run")
	}
	for i := range 3 {
		if got := r(i).Regime(); got != bootRegime {
			t.Errorf("replica %d's regime = %+v, want the boot regime: adopting the boot acceptor commits no utility entry", i, got)
		}
	}
}

func TestScenarioLeaderCrashTakeover(t *testing.T) {
	// The second command finds replica 0 crashed; the client's retry
	// goes to replica 1, which must take over.
	c, r := simulate(t, 3, 2, 3*time.Millisecond, nil)
	c.CrashAt(2*time.Millisecond, 0)
	c.RunFor(20 * time.Millisecond)
	settled(t, c, 2)
	if !r(1).IsLeader() {
		t.Error("replica 1 must lead after the crash")
	}
	// The takeover's LeaderChange is utility slot 0 and keeps the acceptor.
	for _, i := range []int{1, 2} {
		if got, want := r(i).Regime(), (replica.Regime{Slot: 0, Leader: 1, Acceptor: 2}); got != want {
			t.Errorf("replica %d's regime = %+v, want %+v", i, got, want)
		}
	}
}

func TestScenarioAcceptorCrashCarriesProposals(t *testing.T) {
	// Crash the acceptor while the boot leader's three accepts are in
	// flight: the AcceptorChange must carry the uncommitted proposals
	// and every value must still commit exactly once (Lemma 2a).
	c, r := simulate(t, 3, 3, 0, func(s *cluster.Spec) { s.Window = 3 })
	c.CrashAt(14*time.Microsecond, 2)
	c.RunFor(30 * time.Millisecond)
	settled(t, c, 3)
	// One AcceptorChange, utility slot 0, promoted backup 1.
	for _, i := range []int{0, 1} {
		if got, want := r(i).Regime(), (replica.Regime{Slot: 0, Leader: 0, Acceptor: 1}); got != want {
			t.Errorf("replica %d's regime = %+v, want %+v", i, got, want)
		}
	}
	if e, _ := r(0).util.Committed(0); len(e.Uncommitted) != 3 {
		t.Errorf("the AcceptorChange carried %d proposals, want all 3", len(e.Uncommitted))
	}
	applied := map[uint64]int{}
	for _, e := range r(0).Log().History() {
		if e.Value.Client == c.ClientIDs[0] {
			applied[e.Value.Seq]++
		}
	}
	for seq, n := range applied {
		if n != 1 {
			t.Errorf("seq %d applied %d times", seq, n)
		}
	}
}

func TestScenarioBootAcceptorDead(t *testing.T) {
	// The initial acceptor is dead from the start: the boot leader must
	// promote a backup via the virgin-acceptor path and still serve.
	c, r := simulate(t, 3, 1, 0, nil)
	c.Net.Crash(2)
	c.RunFor(50 * time.Millisecond)
	settled(t, c, 1)
	if aa := r(0).Regime().Acceptor; aa != 1 {
		t.Errorf("acceptor = %d, want backup 1", aa)
	}
}

func TestScenarioLeaderAndAcceptorDownStallsThenRecovers(t *testing.T) {
	// Five replicas; leader 0 and acceptor 4 both crash. The paper:
	// "while both the leader and the active acceptor are not responding,
	// it is the liveness of the system that is affected, but not its
	// safety" — no progress until one recovers. The client's one retry
	// inside the run goes to replica 1, which tries to take over.
	c, r := simulate(t, 5, 2, 3*time.Millisecond, func(s *cluster.Spec) { s.RetryTimeout = 30 * time.Millisecond })
	c.CrashAt(2*time.Millisecond, 0)
	c.CrashAt(2*time.Millisecond, 4)
	c.RunFor(40 * time.Millisecond)
	if got := c.Clients[0].Completed(); got != 1 {
		t.Fatalf("no commit may happen while leader and acceptor are both down; %d completed", got)
	}
	// Recover the acceptor: the takeover in flight must now complete.
	c.Net.Recover(4)
	c.RunFor(100 * time.Millisecond)
	settled(t, c, 2)
	if !r(1).IsLeader() {
		t.Error("replica 1 must lead after recovery")
	}
}

func TestScenarioDeposedLeaderRelinquishes(t *testing.T) {
	// The boot leader never comes up: the client's retry makes replica 1
	// take over, and the group converges on it.
	c, r := simulate(t, 3, 1, 0, nil)
	c.Net.Crash(0)
	c.RunFor(30 * time.Millisecond)
	settled(t, c, 1)
	if !r(1).IsLeader() {
		t.Error("replica 1 must lead")
	}
	if l := r(1).Regime().Leader; l != 1 {
		t.Errorf("regime leader = %d, want 1", l)
	}
}

func TestScenarioForwardingMode(t *testing.T) {
	// Joint-style forwarding: a request to a non-leader is forwarded to
	// the leader rather than triggering a takeover. Every node hosts a
	// client; node 1's first request to leader 0 is lost, so its retry
	// goes to its own replica, which forwards it.
	c, r := simulate(t, 3, 1, 0, func(s *cluster.Spec) { s.Joint, s.RetryTimeout = true, time.Millisecond })
	lost, forwarded := false, 0
	c.Net.SetPerturb(func(from, to msg.NodeID, m msg.Message) (time.Duration, bool) {
		if req, ok := m.(msg.ClientRequest); ok && req.Client == 1 && to == 0 {
			if !lost {
				lost = true
				return 0, true
			}
			forwarded++
		}
		return 0, false
	})
	c.RunFor(20 * time.Millisecond)
	if got := c.ClientStats().Completed; got != 3 || forwarded != 1 {
		t.Fatalf("%d of 3 commands completed, %d forwarded; want all, one", got, forwarded)
	}
	if r(1).IsLeader() {
		t.Error("forwarding node must not take over")
	}
	if got := r(1).Regime(); got != bootRegime {
		t.Errorf("the forwarding node installed %+v, want the boot regime", got)
	}
	if !r(0).IsLeader() {
		t.Error("replica 0 must remain leader")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioRandomFaultScheduleSafety(t *testing.T) {
	// Safety sweep: random slow-core schedules on a 5-replica cluster
	// whose client's requests are lost one time in four, so its retries
	// carry commands to every replica in turn; afterwards no two
	// replicas may disagree on any instance (the paper's consistency
	// property). Faults are slowdowns, matching the paper's fault model:
	// "The notion of crash used here does not necessarily mean the cores
	// stopping any activities forever. It simply models slow ones." —
	// cores are delayed, never amnesiac, and replica messages are never
	// lost.
	for seed := int64(0); seed < 25; seed++ {
		c, r := simulate(t, 5, 40, 500*time.Microsecond, func(s *cluster.Spec) {
			s.Seed, s.RetryTimeout = 100+seed, 2*time.Millisecond
		})
		rng := c.Net.Engine().Rand()
		for i := 0; i < 10; i++ {
			at := time.Duration(rng.Intn(50_000)) * time.Microsecond
			node := msg.NodeID(rng.Intn(5))
			factor := float64(rng.Intn(400) + 50) // deep stall
			hold := time.Duration(rng.Intn(15_000)) * time.Microsecond
			c.SlowAt(at, node, factor)
			c.SlowAt(at+hold, node, 1)
		}
		client := c.ClientIDs[0]
		c.Net.SetPerturb(func(from, _ msg.NodeID, m msg.Message) (time.Duration, bool) {
			_, ok := m.(msg.ClientRequest)
			return 0, ok && from == client && rng.Intn(4) == 0
		})
		c.RunFor(300 * time.Millisecond)
		if err := c.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Duplicate-suppression: every committed seq at most once per log.
		for ri := range 5 {
			seen := make(map[uint64]int)
			for _, e := range r(ri).Log().History() {
				if e.Value.Client == client {
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

// --- Origin hand-offs ---

// The origin mark decides which replica answers a client: the one that
// took the request. These tests pin its three hand-offs — a duplicate
// of a request already proposed here, a request forwarded to the leader,
// and a queued request given away when another node wins leadership.

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
	r.Receive(ctx, 5, clientPut(1))
	r.Receive(ctx, 5, clientPut(1))
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
	// not mistaken for a duplicate of something queued here, and the
	// forwarding node starts no takeover.
	r.Receive(ctx, 5, clientPut(1))
	r.Receive(ctx, 5, clientPut(1))
	if got := countTo[msg.ClientRequest](ctx, 0); got != 2 {
		t.Fatalf("forwarded %d requests to the leader, want 2", got)
	}
	if r.takeover != noTakeover || len(ctx.Sent) != 2 {
		t.Fatalf("the forwarding node bid for leadership (takeover %d, %d messages sent)", r.takeover, len(ctx.Sent))
	}
	ctx.TakeSent()

	// The leader answers; this replica learns the value and stays quiet.
	r.Receive(ctx, 2, msg.Learn{Entries: []msg.Proposal{{Instance: 0, PN: 1, Value: msg.Value(clientPut(1))}}})
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
	r.Receive(ctx, 5, clientPut(1))
	r.Receive(ctx, 5, clientPut(1))
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
	r.Receive(ctx, 0, msg.Learn{Entries: []msg.Proposal{{Instance: 0, PN: 1, Value: msg.Value(clientPut(1))}}})
	if r.Commits() != 1 {
		t.Fatalf("Commits = %d, want 1", r.Commits())
	}
	if got := len(ctx.SentTo(5)); got != 0 {
		t.Fatalf("replica answered a command it had given away (%d messages)", got)
	}
}

// TestAdoptionBeforeOwnLeaderChange pins a takeover that adopts its
// acceptor before its own LeaderChange commits. Node 1 queues a client
// request, so it proposes a LeaderChange; with that entry still in
// flight, acceptor 2's Abandon makes onAbandon retry the prepare, and
// the acceptor's Promise makes node 1 lead while its regime still names
// leader 0. This asserts today's behaviour: ROADMAP item 1 decides
// whether adoption may precede the node's own committed LeaderChange,
// and the fix flips this test.
func TestAdoptionBeforeOwnLeaderChange(t *testing.T) {
	r, ctx := newReplica(t, 1, 3)
	r.Start(ctx)
	r.Receive(ctx, 5, clientPut(1))
	if r.takeover != takingOver || countTo[msg.SlotPrepare](ctx, 0) != 1 {
		t.Fatalf("setup: no LeaderChange in flight (takeover %d)", r.takeover)
	}
	ctx.TakeSent()

	r.Receive(ctx, 2, msg.Abandon{HPN: 7})
	prepares := ctx.SentTo(2)
	if len(prepares) != 1 {
		t.Fatalf("the Abandon retried %d prepares, want 1", len(prepares))
	}
	r.Receive(ctx, 2, msg.Promise{From: 2, PN: prepares[0].(msg.PrepareRequest).PN})
	if !r.IsLeader() || r.Regime() != bootRegime {
		t.Fatalf("leading %v under regime %+v; today node 1 leads under %+v", r.IsLeader(), r.Regime(), bootRegime)
	}
}

// TestJointRetryFromLeaderNodeTakesOver pins the Joint-mode forward
// defect: every client runs inside a replica's node, so a retry from
// the client on the leader's node reaches another replica with from ==
// leader. That replica queues it as a client request and takes over,
// and the regime changes in a failure-free run. A retry timeout far
// above a commit's latency sends no retry, and the regime never moves.
// This asserts today's behaviour: ROADMAP item 1(f) fixes the forward
// rule in onClientRequest, and the fix flips the first assertion to 0.
func TestJointRetryFromLeaderNodeTakesOver(t *testing.T) {
	for _, tc := range []struct {
		retry   time.Duration
		changed bool
	}{
		{10 * time.Microsecond, true},
		{10 * time.Millisecond, false},
	} {
		c, err := cluster.Build(cluster.Spec{
			Protocol: protocol.OnePaxos, Machine: topology.Uniform(3, time.Microsecond), Cost: simnet.ManyCore(),
			Seed: 1, Replicas: 3, Joint: true, RequestsPerClient: 20, RetryTimeout: tc.retry,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		c.RunFor(200 * time.Millisecond)
		for i, cl := range c.Clients {
			if got := cl.Completed(); got != 20 {
				t.Errorf("retry %v: client %d completed %d commands, want 20", tc.retry, i, got)
			}
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatalf("retry %v: %v", tc.retry, err)
		}
		changes := c.Obs().Counters["regime.changes"]
		if (changes > 0) != tc.changed {
			t.Errorf("retry %v: regime.changes = %d, want > 0: %v (role_collisions %d)",
				tc.retry, changes, tc.changed, c.Obs().Counters["regime.role_collisions"])
		}
	}
}
