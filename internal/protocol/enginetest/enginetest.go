// Package enginetest checks an agreement engine against the contracts
// the replica shell and every deployment assume of it, in the shape of
// testing/fstest.TestFS: an engine package's tests make one call,
//
//	func TestConformance(t *testing.T) { enginetest.Run(t, protocol.OnePaxos) }
//
// and get every contract, each one subtest. Every deployment comes from
// cluster.Build, the simulator harness the experiments use, so the
// engine is driven by the real load source (internal/workload), checked
// by the linearizability checker and cluster.CheckConsistency, restarted
// through the recovery path and read through every read mode. The suite
// needs nothing from the engine but its registration.
package enginetest

import (
	"math/rand"
	"testing"
	"time"

	"consensusinside/internal/cluster"
	"consensusinside/internal/linearize"
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/readpath"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

// Run checks the engine registered under id on groups of three (or the
// registry's MinReplicas, if larger). Every run of every contract also
// owes check's safety: the logs agree, the recorded history is
// linearizable, and no replica answers a command more often than the
// command reached it. The contracts, one subtest each:
//
//   - build: protocol.Build rejects a group below MinReplicas and a node
//     outside its group.
//   - exactly-once: 1 client × 100 commands, the same with replica 0
//     unreachable from the client, 10 × 50 whose every first answer is
//     lost, and 5 clients × 20 contending for one key with a 40 µs retry
//     timer all complete, and every replica applies every command. An engine without a log counts commands,
//     not instances, so there each replica applies each exactly once.
//   - agreement: safety under seeded message delay, reordering and loss
//     with the first replica paused and resumed. Progress is only
//     logged: 2PC and Mencius can stall on one lost message.
//   - recover: a replica booted with Recover, paused while its group
//     runs, catches up, receiving a whole snapshot whenever what it
//     lacks is in no peer's log, then serves every client alone. A group that cannot
//     progress with a replica paused (Mencius) compacts nothing, so its
//     replica catches up from the log.
//   - reads/<mode>: a contended history completes in every read mode,
//     and the fast modes serve reads off the log. Follower reads are
//     checked for validity only: their contract is bounded staleness.
func Run(t *testing.T, id protocol.ID) {
	info, ok := protocol.Lookup(id)
	if !ok {
		t.Fatalf("protocol %d is not registered: import its package", int(id))
	}
	n := max(3, info.MinReplicas)
	t.Run("build", func(t *testing.T) { build(t, id, info.MinReplicas, n) })
	t.Run("exactly-once", func(t *testing.T) { exactlyOnce(t, id, n) })
	t.Run("agreement", func(t *testing.T) { agreement(t, id, n) })
	t.Run("recover", func(t *testing.T) { recovery(t, id, n) })
	for _, mode := range []readpath.Mode{readpath.Consensus, readpath.Lease, readpath.Index, readpath.Follower} {
		t.Run("reads/"+mode.String(), func(t *testing.T) { reads(t, id, n, mode) })
	}
}

// build is the construction contract: the registry's bounds hold at
// protocol.Build, the one validator every deployment goes through.
func build(t *testing.T, id protocol.ID, minReplicas, n int) {
	group := func(k int) []msg.NodeID {
		ids := make([]msg.NodeID, k)
		for i := range ids {
			ids[i] = msg.NodeID(i)
		}
		return ids
	}
	if _, err := protocol.Build(id, protocol.Config{ID: 0, Replicas: group(minReplicas - 1)}); err == nil {
		t.Errorf("a group of %d, below the minimum of %d, must be rejected", minReplicas-1, minReplicas)
	}
	if _, err := protocol.Build(id, protocol.Config{ID: msg.NodeID(n), Replicas: group(n)}); err == nil {
		t.Error("a node outside the group must be rejected")
	}
	if _, err := protocol.Build(id, protocol.Config{ID: 0, Replicas: group(minReplicas)}); err != nil {
		t.Errorf("a group of the minimum size must build: %v", err)
	}
}

// exactlyOnce runs the paper's closed loop; the same with the client's
// first choice, replica 0, unreachable from it, so every command enters
// through another replica; ten clients whose every first answer is
// lost, so each command completes only through a retry to the next
// replica; and five clients on one key whose retry timer is about one
// contended commit, so commands reach several replicas while in flight
// and some are decided twice.
func exactlyOnce(t *testing.T, id protocol.ID, n int) {
	for _, w := range []struct {
		name              string
		clients, requests int
		retry             time.Duration
		contend           bool
		chaos             func() simnet.PerturbFunc
	}{
		{"1x100", 1, 100, 5 * time.Millisecond, false, nil},
		{"1x100-first-replica-unreachable", 1, 100, time.Millisecond, false, firstReplicaUnreachable},
		{"10x50-lost-answers", 10, 50, time.Millisecond, false, loseFirstAnswers},
		{"5x20-contending", 5, 20, 40 * time.Microsecond, true, nil},
	} {
		t.Run(w.name, func(t *testing.T) {
			spec := cluster.Spec{Clients: w.clients, RequestsPerClient: w.requests, RetryTimeout: w.retry}
			if w.contend {
				spec.SharedKey, spec.ReadPercent = "k", 50
			}
			var chaos simnet.PerturbFunc
			if w.chaos != nil {
				chaos = w.chaos()
			}
			d := deploy(t, id, n, spec, chaos)
			d.RunFor(300 * time.Millisecond)
			d.check(t, false)
			want := w.clients * w.requests
			if done := d.ClientStats().Completed; done != want {
				t.Fatalf("%d of %d commands completed", done, want)
			}
			for i, srv := range d.Servers {
				if c := srv.Commits(); c < int64(want) || srv.Log() == nil && c != int64(want) {
					t.Errorf("replica %d applied %d, want %d", i, c, want)
				}
			}
		})
	}
}

// firstReplicaUnreachable drops every request a client sends replica 0.
func firstReplicaUnreachable() simnet.PerturbFunc {
	return func(from, to msg.NodeID, m msg.Message) (time.Duration, bool) {
		r, ok := m.(*msg.ClientRequest)
		return 0, ok && to == 0 && from == r.Client
	}
}

// loseFirstAnswers drops the first answer to every command.
func loseFirstAnswers() simnet.PerturbFunc {
	lost := map[command]bool{}
	return func(_, to msg.NodeID, m msg.Message) (time.Duration, bool) {
		r, ok := m.(msg.ClientReply)
		if !ok || lost[command{to, r.Seq}] {
			return 0, false
		}
		lost[command{to, r.Seq}] = true
		return 0, true
	}
}

// agreement pauses the first replica from 2 to 12 ms of a run whose
// every message may be delayed up to 100 µs (and so reordered) and is
// lost with probability 2 %.
func agreement(t *testing.T, id protocol.ID, n int) {
	rng := rand.New(rand.NewSource(1))
	d := deploy(t, id, n, cluster.Spec{
		Clients: 3, RequestsPerClient: 40, Window: 2, ThinkTime: time.Millisecond,
		SharedKey: "k", ReadPercent: 50, RetryTimeout: 1500 * time.Microsecond,
	}, func(_, _ msg.NodeID, _ msg.Message) (time.Duration, bool) {
		return time.Duration(rng.Intn(100)) * time.Microsecond, rng.Intn(100) < 2
	})
	first := d.ServerIDs[0]
	d.Net.At(2*time.Millisecond, func() { d.Net.Crash(first) })
	d.Net.At(12*time.Millisecond, func() { d.Net.Recover(first) })
	d.RunFor(100 * time.Millisecond)
	d.check(t, false)
	t.Logf("%d of %d commands completed", d.ClientStats().Completed, 3*40)
}

// recovery pauses the last replica, booted with Recover, for the first
// 20 ms while two paced clients write and read their keys and the group
// compacts every 8 instances. Once it caught up, every request a client
// sends elsewhere is lost, so it takes every command to commit.
func recovery(t *testing.T, id protocol.ID, n int) {
	late := msg.NodeID(n - 1)
	only := msg.Nobody
	d := deploy(t, id, n, cluster.Spec{
		Clients: 2, ThinkTime: time.Millisecond, ReadPercent: 50,
		SnapshotInterval: 8, RecoverNodes: []int{n - 1},
	}, func(from, to msg.NodeID, m msg.Message) (time.Duration, bool) {
		r, ok := m.(*msg.ClientRequest)
		return 0, ok && only != msg.Nobody && from == r.Client && to != only
	})
	srv := d.Servers[n-1]
	d.Net.At(time.Microsecond, func() { d.Net.Crash(late) })
	d.RunFor(20 * time.Millisecond)
	// A snapshot is owed when what the replica lacks is in no peer's
	// log: the engine keeps none, or the peers compacted meanwhile.
	owed := srv.Log() == nil
	for _, peer := range d.Servers[:n-1] {
		owed = owed || peer.Log().Floor() > 0
	}
	d.Net.Recover(late)
	d.RunFor(40 * time.Millisecond)
	if !srv.Recovered() || owed && d.snapshots[late] == 0 {
		t.Fatalf("the paused replica did not catch up (recovered %v, %d snapshots received, one owed %v)",
			srv.Recovered(), d.snapshots[late], owed)
	}
	only = late
	before, done := srv.Commits(), d.ClientStats().Completed
	d.RunFor(100 * time.Millisecond)
	if srv.Commits() == before || d.ClientStats().Completed == done {
		t.Errorf("the recovered replica served nothing (%d commits, %d commands completed before)", before, done)
	}
	d.check(t, false)
}

// reads runs three pipelined clients on one key, half their commands
// reads, in read mode mode.
func reads(t *testing.T, id protocol.ID, n int, mode readpath.Mode) {
	d := deploy(t, id, n, cluster.Spec{
		Clients: 3, RequestsPerClient: 40, Window: 2, SharedKey: "k", ReadPercent: 50, ReadMode: mode,
	}, nil)
	d.RunFor(100 * time.Millisecond)
	d.check(t, mode == readpath.Follower)
	if done := d.ClientStats().Completed; done != 3*40 {
		t.Fatalf("%d of %d commands completed", done, 3*40)
	}
	if mode != readpath.Consensus && d.fastReads == 0 {
		t.Errorf("no read served off the log in %v mode", mode)
	}
}

// deployment is one started cluster.Build deployment with the suite's
// taps: the recorded client history; per command how often its client
// sent it to a replica (and it arrived) and how often any replica
// answered it; the reads answered off the log; and the whole snapshots
// each node was sent.
type deployment struct {
	*cluster.Cluster
	rec       *linearize.Recorder
	sent      map[command]int
	answered  map[command]int
	fastReads int
	snapshots map[msg.NodeID]int
}

// command is one client command: the client and its sequence number.
type command struct {
	client msg.NodeID
	seq    uint64
}

// deploy builds spec for engine id on n replicas of the paper's
// 48-core machine, recording every command; chaos, when set, perturbs
// every message between nodes.
func deploy(t *testing.T, id protocol.ID, n int, spec cluster.Spec, chaos simnet.PerturbFunc) *deployment {
	t.Helper()
	d := &deployment{
		rec:       linearize.NewRecorder(),
		sent:      map[command]int{},
		answered:  map[command]int{},
		snapshots: map[msg.NodeID]int{},
	}
	spec.Protocol, spec.Replicas, spec.Record = id, n, d.rec
	spec.Machine, spec.Cost, spec.Seed = topology.Opteron48(), simnet.ManyCore(), 1
	// Failure detection and 2PC's phase retransmission at 1 ms, as the
	// scenario fuzzer runs them, so a fault heals well inside a run.
	spec.AcceptTimeout, spec.TxRetryTimeout = time.Millisecond, time.Millisecond
	c, err := cluster.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	d.Cluster = c
	c.Net.SetPerturb(func(from, to msg.NodeID, m msg.Message) (extra time.Duration, drop bool) {
		if chaos != nil {
			extra, drop = chaos(from, to, m)
		}
		switch mm := m.(type) {
		case *msg.ClientRequest:
			if !drop && from == mm.Client {
				v := msg.Value(*mm)
				for i := range v.Len() {
					d.sent[command{mm.Client, v.EntryAt(i).Seq}]++
				}
			}
		case msg.ClientReply:
			d.answered[command{to, mm.Seq}]++
		case *msg.ClientReplyBatch:
			for _, r := range mm.Replies {
				d.answered[command{to, r.Seq}]++
			}
		case *msg.ReadReplyBatch:
			for _, r := range mm.Replies {
				if r.OK {
					d.fastReads++
				}
			}
		case msg.SnapshotChunk:
			if mm.Last && !drop {
				d.snapshots[to]++
			}
		}
		return extra, drop
	})
	c.Start()
	return d
}

// check asserts the safety every run owes: the replicas' logs agree,
// the history is linearizable (weakReads: reads are only checked to
// observe a written value), and no command was answered — by all
// replicas together — more often than its client sent it.
func (d *deployment) check(t *testing.T, weakReads bool) {
	t.Helper()
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := linearize.Check(d.rec.Ops(), linearize.Options{WeakReads: weakReads}); err != nil {
		t.Fatal(err)
	}
	for k, answers := range d.answered {
		if sent := d.sent[k]; answers > sent {
			t.Fatalf("client %d's seq %d was answered %d times; the client sent it %d times",
				k.client, k.seq, answers, sent)
		}
	}
}
