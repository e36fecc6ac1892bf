package cluster

// Adversarial read-path tests on the sim runtime: the deterministic
// virtual clock lets these stage the exact races the lease safety
// argument (DESIGN.md, "The read path") worries about — a lease
// holder's clock drifting past the bound, the leader crashing with a
// live lease while a client immediately writes through its successor,
// and a recovering replica being asked to serve before it has caught
// up. The invariant under test everywhere: no probe ever observes a
// stale value — a read issued after a write's ack returns that write
// (or a later one), in every mode, under every fault.

import (
	"fmt"
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/readpath"
	"consensusinside/internal/runtime"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

// readProbe is a bare sim node that drives reads and writes by direct
// injection — no retry pipeline, no batching — and records every reply
// with the virtual time and origin, so tests can assert on exactly
// which replica answered what, when. Redirects are followed
// transparently (like the real clients) but counted per origin node.
type readProbe struct {
	id   msg.NodeID
	mode readpath.Mode

	pending map[uint64]msg.Command // read seq -> command, for redirect re-sends

	reads     map[uint64]*probeRead
	writeAcks map[uint64]time.Duration // write seq -> ack virtual time
	redirects map[msg.NodeID]int       // read redirects seen, per refusing node
}

type probeRead struct {
	value    string
	done     bool
	rejected bool
	from     msg.NodeID    // replica that served the OK
	issuedAt time.Duration // virtual time of first injection
	// afterWrite is the highest write seq already acked when the read
	// was issued (0 = none): the linearizability obligation.
	afterWrite uint64
}

func newReadProbe(mode readpath.Mode) *readProbe {
	return &readProbe{
		mode:      mode,
		pending:   make(map[uint64]msg.Command),
		reads:     make(map[uint64]*probeRead),
		writeAcks: make(map[uint64]time.Duration),
		redirects: make(map[msg.NodeID]int),
	}
}

func (p *readProbe) Start(runtime.Context)                   {}
func (p *readProbe) Timer(runtime.Context, runtime.TimerTag) {}

func (p *readProbe) Receive(ctx runtime.Context, from msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case msg.ReadReply:
		p.onRead(ctx, from, mm)
	case msg.ReadReplyBatch:
		for _, r := range mm.Replies {
			p.onRead(ctx, from, r)
		}
	case msg.ClientReply:
		p.onWrite(mm)
	case msg.ClientReplyBatch:
		for _, r := range mm.Replies {
			p.onWrite(r)
		}
	}
}

func (p *readProbe) onWrite(r msg.ClientReply) {
	if r.OK {
		if _, seen := p.writeAcks[r.Seq]; !seen {
			p.writeAcks[r.Seq] = 0 // timestamp filled by the test's clock if needed
		}
	}
}

func (p *readProbe) onRead(ctx runtime.Context, from msg.NodeID, r msg.ReadReply) {
	rec, ok := p.reads[r.Seq]
	if !ok || rec.done {
		return
	}
	if r.OK {
		rec.done, rec.value, rec.from = true, r.Result, from
		return
	}
	if r.Redirect != msg.Nobody {
		p.redirects[from]++
		ctx.Send(r.Redirect, msg.ReadRequest{
			Client:  p.id,
			Mode:    int(p.mode),
			Entries: []msg.BatchEntry{{Seq: r.Seq, Cmd: p.pending[r.Seq]}},
		})
		return
	}
	rec.done, rec.rejected = true, true
}

// acked reports whether write seq has been acknowledged.
func (p *readProbe) acked(seq uint64) bool { _, ok := p.writeAcks[seq]; return ok }

// maxAcked is the highest acknowledged write seq.
func (p *readProbe) maxAcked() uint64 {
	var max uint64
	for s := range p.writeAcks {
		if s > max {
			max = s
		}
	}
	return max
}

// sendRead injects read seq for key at node to, stamping the
// linearizability obligation from the probe's current ack state. Must
// run inside the sim loop (a Net.At callback).
func (p *readProbe) sendRead(net *simnet.Network, to msg.NodeID, seq uint64, key string) {
	cmd := msg.Command{Op: msg.OpGet, Key: key}
	p.pending[seq] = cmd
	p.reads[seq] = &probeRead{issuedAt: net.Now(), afterWrite: p.maxAcked()}
	net.Inject(p.id, to, msg.ReadRequest{
		Client:  p.id,
		Mode:    int(p.mode),
		Entries: []msg.BatchEntry{{Seq: seq, Cmd: cmd}},
	})
}

// sendWrite injects write seq (key=val) at node to; retries are the
// test script's job (re-inject with the same seq — the session table
// dedupes).
func (p *readProbe) sendWrite(net *simnet.Network, to msg.NodeID, seq uint64, key, val string) {
	net.Inject(p.id, to, msg.ClientRequest{
		Client: p.id,
		Seq:    seq,
		Cmd:    msg.Command{Op: msg.OpPut, Key: key, Val: val},
		Ack:    seq,
	})
}

// leaseSpec is the shared deployment for the lease tests: three
// replicas, no workload clients (the probe is the only traffic).
func leaseSpec(p Protocol, lease time.Duration) Spec {
	return Spec{
		Protocol:      p,
		Machine:       topology.Opteron48(),
		Cost:          simnet.ManyCore(),
		Seed:          7,
		Replicas:      3,
		ReadMode:      readpath.Lease,
		LeaseDuration: lease,
	}
}

// leaderIdx finds the replica currently claiming read-path leadership.
func leaderIdx(c *Cluster) int {
	for i, s := range c.Servers {
		if l, ok := s.(interface{ IsLeader() bool }); ok && l.IsLeader() {
			return i
		}
	}
	return -1
}

// TestLeaseClockSkewPastBound skews the lease holder's clock far past
// the lease bound in both directions and checks that every read stays
// linearizable: a fast clock forces the holder off its lease (expiry +
// fallback round, never a wrong value), a slow clock keeps renewals
// flowing so real-time validity is maintained.
func TestLeaseClockSkewPastBound(t *testing.T) {
	const lease = 4 * time.Millisecond
	for _, proto := range []Protocol{OnePaxos, MultiPaxos} {
		for _, skew := range []time.Duration{+10 * lease, -10 * lease} {
			proto, skew := proto, skew
			t.Run(fmt.Sprintf("%v/skew%v", proto, skew), func(t *testing.T) {
				c := MustBuild(leaseSpec(proto, lease))
				probe := newReadProbe(readpath.Lease)
				probe.id = c.Net.AddNode(probe)
				net := c.Net

				net.At(1*time.Millisecond, func() { probe.sendWrite(net, c.ServerIDs[0], 1, "k", "v1") })
				net.At(5*time.Millisecond, func() { probe.sendRead(net, c.ServerIDs[0], 101, "k") })
				net.At(10*time.Millisecond, func() {
					li := leaderIdx(c)
					if li < 0 {
						t.Error("no lease holder emerged before the skew")
						return
					}
					rp, ok := c.Servers[li].(interface{ ReadPath() *readpath.Server })
					if !ok {
						t.Fatalf("%v leader exposes no ReadPath", proto)
					}
					rp.ReadPath().SkewClock(skew)
				})
				// A read against the skewed holder, then a write and a
				// read that must see it.
				net.At(12*time.Millisecond, func() { probe.sendRead(net, c.ServerIDs[0], 102, "k") })
				net.At(20*time.Millisecond, func() { probe.sendWrite(net, c.ServerIDs[0], 2, "k", "v2") })
				net.At(24*time.Millisecond, func() { probe.sendWrite(net, c.ServerIDs[0], 2, "k", "v2") }) // retry
				net.At(30*time.Millisecond, func() { probe.sendRead(net, c.ServerIDs[0], 103, "k") })
				c.Start()
				c.RunFor(60 * time.Millisecond)

				for seq, want := range map[uint64]string{101: "v1", 102: "v1", 103: "v2"} {
					r := probe.reads[seq]
					if !r.done || r.rejected {
						t.Fatalf("read %d never completed (done=%v rejected=%v)", seq, r.done, r.rejected)
					}
					if r.value != want {
						t.Errorf("read %d = %q, want %q — stale read under %v skew", seq, r.value, want, skew)
					}
				}
				if skew > 0 {
					// The fast clock must have pushed the holder off its
					// lease at least once.
					st := c.Obs().Counters
					if st["read.lease_expiries"] == 0 && st["read.fallbacks"] == 0 {
						t.Errorf("+%v skew produced no lease expiry or fallback (stats %v)", skew, st)
					}
				}
				if err := c.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLeaseLeaderCrashNoStaleRead crashes the lease holder mid-lease
// (a long lease, still valid at crash time), immediately writes
// through the surviving majority, and probes reads throughout the
// failover. Linearizability demands every read issued after the new
// write's ack observes it — the new leader must have waited out the
// old lease rather than serving early.
func TestLeaseLeaderCrashNoStaleRead(t *testing.T) {
	const lease = 40 * time.Millisecond
	for _, proto := range []Protocol{OnePaxos, MultiPaxos} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			c := MustBuild(leaseSpec(proto, lease))
			probe := newReadProbe(readpath.Lease)
			probe.id = c.Net.AddNode(probe)
			net := c.Net

			net.At(1*time.Millisecond, func() { probe.sendWrite(net, c.ServerIDs[0], 1, "k", "v1") })
			net.At(5*time.Millisecond, func() { probe.sendRead(net, c.ServerIDs[0], 201, "k") })

			var crashed msg.NodeID = msg.Nobody
			net.At(10*time.Millisecond, func() {
				li := leaderIdx(c)
				if li < 0 {
					t.Error("no lease holder emerged before the crash")
					return
				}
				crashed = c.ServerIDs[li]
				net.Crash(crashed)
			})
			// Write v2 through the survivors, retrying (with rotation)
			// until acked: the dead leader's lease is still live, so
			// this exercises the successor's wait-out.
			target := func(n int) msg.NodeID {
				id := c.ServerIDs[n%len(c.ServerIDs)]
				if id == crashed {
					id = c.ServerIDs[(n+1)%len(c.ServerIDs)]
				}
				return id
			}
			for ms := 12; ms < 150; ms += 6 {
				ms := ms
				net.At(time.Duration(ms)*time.Millisecond, func() {
					if !probe.acked(2) {
						probe.sendWrite(net, target(ms), 2, "k", "v2")
					}
				})
			}
			// Reads throughout the failover, each recording whether v2
			// was already acked when it was issued.
			seq := uint64(202)
			for ms := 12; ms < 200; ms += 4 {
				ms, s := ms, seq
				net.At(time.Duration(ms)*time.Millisecond, func() {
					probe.sendRead(net, target(ms), s, "k")
				})
				seq++
			}
			c.Start()
			c.RunFor(300 * time.Millisecond)

			if !probe.acked(2) {
				t.Fatal("write v2 never committed after the leader crash")
			}
			var afterAck, completed int
			for s, r := range probe.reads {
				if !r.done || r.rejected {
					continue // in-flight at cutoff (e.g. aimed at the dead node) — no verdict
				}
				completed++
				if r.value != "v1" && r.value != "v2" {
					t.Errorf("read %d observed impossible value %q", s, r.value)
				}
				if r.afterWrite >= 2 {
					afterAck++
					if r.value != "v2" {
						t.Errorf("STALE READ: read %d issued after v2's ack returned %q (served by node %d)",
							s, r.value, r.from)
					}
				}
			}
			if afterAck == 0 {
				t.Fatal("no read completed after v2's ack — the probe never tested the successor")
			}
			if completed < 5 {
				t.Fatalf("only %d probe reads completed — failover never let reads through", completed)
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLeasePartitionedLeaderNoStaleRead stages the partition variant
// of the succession race — the case crashing the leader cannot reach:
// the old leader keeps RUNNING with a lease carried by a single
// confirmer's grant (NeedAcks is a quorum minus the holder itself, so
// one grant can be enough), and that very granter then runs for
// leadership while its own grant is unexpired. Candidates vote for
// themselves through the same prepare handlers peers use, so a granter
// whose PrepareHold exempted its own candidacy would complete a
// majority — its self-vote plus the never-asked third replica — commit
// a write behind the isolated holder's back, and leave the holder
// serving stale reads under a still-valid lease. Only replica links
// are cut: the probe (a client) reaches the old leader throughout,
// which is exactly what makes the stale window observable.
func TestLeasePartitionedLeaderNoStaleRead(t *testing.T) {
	const lease = 40 * time.Millisecond
	cases := []struct {
		proto Protocol
		// granter is the replica whose grant alone carries the
		// leader's lease — and the challenger whose self-vote the
		// deposition block must hold. 1Paxos confirms at the active
		// acceptor, statically the last replica; Multi-Paxos confirms
		// at a peer quorum, so the test cuts the leader off from
		// replica 2 before the lease round (earlyCut), leaving
		// replica 1 the sole granter.
		granter  int
		earlyCut bool
	}{
		{OnePaxos, 2, false},
		{MultiPaxos, 1, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.proto.String(), func(t *testing.T) {
			c := MustBuild(leaseSpec(tc.proto, lease))
			probe := newReadProbe(readpath.Lease)
			probe.id = c.Net.AddNode(probe)
			net := c.Net
			leader := c.ServerIDs[0]
			granter := c.ServerIDs[tc.granter]

			net.At(1*time.Millisecond, func() { probe.sendWrite(net, leader, 1, "k", "v1") })
			if tc.earlyCut {
				net.At(2*time.Millisecond, func() { net.Partition(leader, c.ServerIDs[2]) })
			}
			// This read's round acquires the lease — confirmed by the
			// granter alone.
			net.At(5*time.Millisecond, func() { probe.sendRead(net, leader, 401, "k") })
			// Isolate the leader from every peer, lease still valid.
			net.At(8*time.Millisecond, func() {
				if leaderIdx(c) != 0 {
					t.Error("replica 0 lost leadership before the partition")
				}
				for _, id := range c.ServerIDs[1:] {
					net.Partition(leader, id)
				}
			})
			// Drive the granter to run for leadership while its own
			// grant is unexpired: retry v2 at it until committed.
			for ms := 10; ms < 150; ms += 6 {
				ms := ms
				net.At(time.Duration(ms)*time.Millisecond, func() {
					if !probe.acked(2) {
						probe.sendWrite(net, granter, 2, "k", "v2")
					}
				})
			}
			// Probe reads: the isolated old leader every tick (the
			// stale window), the challenger in between.
			seq := uint64(402)
			for ms := 10; ms < 200; ms += 4 {
				ms, s1, s2 := ms, seq, seq+1
				seq += 2
				net.At(time.Duration(ms)*time.Millisecond, func() { probe.sendRead(net, leader, s1, "k") })
				net.At(time.Duration(ms+2)*time.Millisecond, func() { probe.sendRead(net, granter, s2, "k") })
			}
			c.Start()
			c.RunFor(300 * time.Millisecond)

			if !probe.acked(2) {
				t.Fatal("write v2 never committed past the partitioned leader's lease")
			}
			var afterAck, completed int
			for s, r := range probe.reads {
				if !r.done || r.rejected {
					continue // stuck at the isolated leader at cutoff — no verdict
				}
				completed++
				if r.value != "v1" && r.value != "v2" {
					t.Errorf("read %d observed impossible value %q", s, r.value)
				}
				if r.afterWrite >= 2 {
					afterAck++
					if r.value != "v2" {
						t.Errorf("STALE READ: read %d issued after v2's ack returned %q (served by node %d)",
							s, r.value, r.from)
					}
				}
			}
			if afterAck == 0 {
				t.Fatal("no read completed after v2's ack — the probe never tested the new leader")
			}
			if completed < 5 {
				t.Fatalf("only %d probe reads completed — the succession never let reads through", completed)
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoveringReplicaRefusesReads boots one replica in recovery mode
// (Spec.RecoverNodes — the PR 5 rejoin path) under ReadFollower, the
// laxest mode, and probes it before it can have caught up: the replica
// must redirect rather than serve from its behind state machine. Once
// recovered, the same replica must serve its own reads with the
// current value.
func TestRecoveringReplicaRefusesReads(t *testing.T) {
	spec := leaseSpec(OnePaxos, 0)
	spec.ReadMode = readpath.Follower
	spec.RecoverNodes = []int{2}
	c := MustBuild(spec)
	probe := newReadProbe(readpath.Follower)
	probe.id = c.Net.AddNode(probe)
	net := c.Net
	lagging := c.ServerIDs[2]

	// Probe the recovering replica immediately: its catch-up transfer
	// needs at least a request/response exchange with a peer, so a
	// read injected at t=0 reaches it strictly before it is caught up.
	net.At(0, func() { probe.sendRead(net, lagging, 301, "k") })
	net.At(2*time.Millisecond, func() { probe.sendWrite(net, c.ServerIDs[0], 1, "k", "v1") })
	net.At(10*time.Millisecond, func() { probe.sendWrite(net, c.ServerIDs[0], 1, "k", "v1") }) // retry
	// Long after catch-up: the replica serves its own follower reads.
	net.At(30*time.Millisecond, func() { probe.sendRead(net, lagging, 302, "k") })
	c.Start()
	c.RunFor(60 * time.Millisecond)

	if probe.redirects[lagging] == 0 {
		t.Error("recovering replica served a fast-path read instead of refusing")
	}
	early := probe.reads[301]
	if !early.done || early.rejected {
		t.Fatalf("redirected early read never completed (done=%v rejected=%v)", early.done, early.rejected)
	}
	if early.from == lagging {
		t.Errorf("early read was served by the recovering replica itself (value %q)", early.value)
	}
	late := probe.reads[302]
	if !late.done || late.rejected {
		t.Fatalf("post-recovery read never completed (done=%v rejected=%v)", late.done, late.rejected)
	}
	if late.from != lagging {
		t.Errorf("post-recovery read served by node %d, want the recovered replica %d", late.from, lagging)
	}
	if late.value != "v1" {
		t.Errorf("post-recovery read = %q, want %q — the replica served before catching up", late.value, "v1")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
