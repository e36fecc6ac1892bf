package cluster

import (
	"testing"
	"time"

	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	_ "consensusinside/internal/protocol/all" // register every engine
	"consensusinside/internal/readpath"
	"consensusinside/internal/rsm"
	"consensusinside/internal/shard"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

func baseSpec(p protocol.ID, clients int) Spec {
	return Spec{
		Protocol: p,
		Machine:  topology.Opteron48(),
		Cost:     simnet.ManyCore(),
		Seed:     1,
		Replicas: 3,
		Clients:  clients,
	}
}

func TestOnePaxosCommitsSingleClient(t *testing.T) {
	spec := baseSpec(protocol.OnePaxos, 1)
	spec.RequestsPerClient = 100
	c := MustBuild(spec)
	c.Start()
	c.RunFor(50 * time.Millisecond)
	if got := c.Clients[0].Completed(); got != 100 {
		t.Fatalf("completed %d requests, want 100", got)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Every replica must have applied all 100 commands.
	for i, commits := range c.ServerCommits() {
		if commits < 100 {
			t.Errorf("replica %d applied %d, want >= 100", i, commits)
		}
	}
}

func TestMultiPaxosCommitsSingleClient(t *testing.T) {
	spec := baseSpec(protocol.MultiPaxos, 1)
	spec.RequestsPerClient = 100
	c := MustBuild(spec)
	c.Start()
	c.RunFor(50 * time.Millisecond)
	if got := c.Clients[0].Completed(); got != 100 {
		t.Fatalf("completed %d requests, want 100", got)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPCCommitsSingleClient(t *testing.T) {
	spec := baseSpec(protocol.TwoPC, 1)
	spec.RequestsPerClient = 100
	c := MustBuild(spec)
	c.Start()
	c.RunFor(50 * time.Millisecond)
	if got := c.Clients[0].Completed(); got != 100 {
		t.Fatalf("completed %d requests, want 100", got)
	}
	for i, commits := range c.ServerCommits() {
		if commits != 100 {
			t.Errorf("replica %d applied %d, want 100", i, commits)
		}
	}
}

func TestAllProtocolsManyClients(t *testing.T) {
	for _, p := range []protocol.ID{protocol.OnePaxos, protocol.MultiPaxos, protocol.TwoPC} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			spec := baseSpec(p, 10)
			spec.RequestsPerClient = 50
			c := MustBuild(spec)
			c.Start()
			c.RunFor(200 * time.Millisecond)
			for i, cl := range c.Clients {
				if got := cl.Completed(); got != 50 {
					t.Errorf("client %d completed %d, want 50", i, got)
				}
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestJointModeAllProtocols(t *testing.T) {
	for _, p := range []protocol.ID{protocol.OnePaxos, protocol.MultiPaxos, protocol.TwoPC} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			spec := baseSpec(p, 0)
			spec.Joint = true
			spec.Replicas = 5
			spec.RequestsPerClient = 20
			spec.ThinkTime = 100 * time.Microsecond
			c := MustBuild(spec)
			c.Start()
			c.RunFor(200 * time.Millisecond)
			for i, cl := range c.Clients {
				if got := cl.Completed(); got != 20 {
					t.Errorf("joint client %d completed %d, want 20", i, got)
				}
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOnePaxosSurvivesSlowLeader(t *testing.T) {
	spec := baseSpec(protocol.OnePaxos, 5)
	spec.Machine = topology.Opteron8()
	spec.Cost = simnet.ManyCoreSlowMachine()
	spec.RetryTimeout = time.Millisecond
	spec.SeriesBucket = 10 * time.Millisecond
	c := MustBuild(spec)
	c.Start()
	c.SlowAt(20*time.Millisecond, 0, CPUHogSlowdown) // 8 CPU hogs on core 0
	c.RunFor(200 * time.Millisecond)

	// After the fault, another replica must take over and clients must
	// keep committing: require commits in the final quarter of the run.
	lateOps := 0
	for _, cl := range c.Clients {
		_, _, last := cl.MeasuredOps()
		if last > 150*time.Millisecond {
			lateOps++
		}
	}
	if lateOps == 0 {
		t.Fatal("no client committed after leader slowdown; takeover failed")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	leaders := 0
	for i, s := range c.Servers {
		type leaderer interface{ IsLeader() bool }
		if l, ok := s.(leaderer); ok && l.IsLeader() && i != 0 {
			leaders++
		}
	}
	if leaders == 0 {
		t.Error("expected a non-core-0 replica to lead after the slowdown")
	}
}

func TestTwoPCBlocksOnSlowCoordinator(t *testing.T) {
	spec := baseSpec(protocol.TwoPC, 5)
	spec.Machine = topology.Opteron8()
	spec.Cost = simnet.ManyCoreSlowMachine()
	spec.SeriesBucket = 10 * time.Millisecond
	c := MustBuild(spec)
	c.Start()
	c.SlowAt(20*time.Millisecond, 0, CPUHogSlowdown)
	c.RunFor(220 * time.Millisecond)
	// Throughput must collapse: commits per 10ms bucket before the fault
	// must dwarf the rate near the end of the run.
	buckets := c.SeriesSum()
	if len(buckets) < 3 {
		t.Fatalf("series too short: %d buckets", len(buckets))
	}
	before := buckets[1] // 10-20ms, pre-fault steady state
	if before == 0 {
		t.Fatal("no pre-fault throughput")
	}
	// Buckets from 150ms on; a stalled cluster records none (missing
	// buckets are zeros).
	lateSum := 0
	for i := 15; i < len(buckets); i++ {
		lateSum += buckets[i]
	}
	late := float64(lateSum) / 7 // 150ms..220ms = 7 buckets
	if late > float64(before)/10 {
		t.Errorf("2PC throughput should collapse with a slow coordinator: before=%d ops/bucket, late=%.1f ops/bucket", before, late)
	}
}

// TestTwoPCSharedKeyStallsAfterPause reproduces a 2PC liveness defect
// (ROADMAP item 2): two clients on one key and participant 2 paused for
// the first 20 ms; once it resumes, the group commits two commands and
// then none. Without the pause, or with a key per client, it commits
// hundreds. This asserts today's behaviour; the fix flips it.
func TestTwoPCSharedKeyStallsAfterPause(t *testing.T) {
	spec := baseSpec(protocol.TwoPC, 2)
	spec.ThinkTime, spec.SharedKey = time.Millisecond, "k"
	spec.AcceptTimeout, spec.TxRetryTimeout = time.Millisecond, time.Millisecond
	c := MustBuild(spec)
	c.CrashAt(time.Microsecond, 2)
	c.Net.At(20*time.Millisecond, func() { c.Net.Recover(2) })
	c.Start()
	c.RunFor(180 * time.Millisecond)
	if got := c.ClientStats().Completed; got != 2 {
		t.Fatalf("%d commands completed; today the group stalls after 2", got)
	}
}

func TestOnePaxosSurvivesCrashedAcceptor(t *testing.T) {
	spec := baseSpec(protocol.OnePaxos, 3)
	spec.RetryTimeout = 2 * time.Millisecond
	c := MustBuild(spec)
	c.Start()
	// The initial active acceptor is the last replica (node 2).
	c.CrashAt(10*time.Millisecond, 2)
	c.RunFor(100 * time.Millisecond)
	late := 0
	for _, cl := range c.Clients {
		_, _, last := cl.MeasuredOps()
		if last > 80*time.Millisecond {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no commits after acceptor crash; acceptor switch failed")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConsistencyDetectsDivergence(t *testing.T) {
	spec := baseSpec(protocol.OnePaxos, 1)
	spec.RequestsPerClient = 5
	c := MustBuild(spec)
	c.Start()
	c.RunFor(20 * time.Millisecond)
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("healthy run flagged inconsistent: %v", err)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{Protocol: protocol.OnePaxos, Replicas: 3}); err == nil {
		t.Error("missing machine must be rejected")
	}
	if _, err := Build(Spec{Protocol: protocol.ID(99), Machine: topology.Opteron48(), Replicas: 3}); err == nil {
		t.Error("unknown protocol must be rejected")
	}
	if _, err := Build(Spec{Protocol: protocol.OnePaxos, Machine: topology.Opteron48(), Replicas: 1}); err == nil {
		t.Error("single replica must be rejected")
	}
	if _, err := Build(Spec{Protocol: protocol.Mencius, Machine: topology.Opteron48(), Replicas: 2}); err == nil {
		t.Error("a 2-replica Mencius group must be rejected")
	}
	if _, err := Build(Spec{Protocol: protocol.OnePaxos, Machine: topology.Opteron48(), Replicas: 3, Window: 1 << 20}); err == nil {
		t.Error("a window deeper than the session table must be rejected")
	}
	if _, err := Build(Spec{Protocol: protocol.OnePaxos, Machine: topology.Opteron48(), Replicas: 3, ReadMode: readpath.Mode(99)}); err == nil {
		t.Error("unknown read mode must be rejected")
	}
	if _, err := Build(Spec{Protocol: protocol.OnePaxos, Machine: topology.Opteron48(), Replicas: 3, ReadPercent: 101}); err == nil {
		t.Error("read percent beyond 100 must be rejected")
	}
	if _, err := Build(Spec{Protocol: protocol.OnePaxos, Machine: topology.Opteron48(), Replicas: 3, LeaseDuration: -time.Second}); err == nil {
		t.Error("negative lease duration must be rejected")
	}
	if _, err := Build(Spec{Protocol: protocol.OnePaxos, Machine: topology.Opteron48(), Replicas: 3, RecoverNodes: []int{3}}); err == nil {
		t.Error("recover index outside the group must be rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild must panic on a malformed spec")
		}
	}()
	MustBuild(Spec{Protocol: protocol.OnePaxos, Replicas: 3})
}

func TestMenciusCommitsSingleClient(t *testing.T) {
	spec := baseSpec(protocol.Mencius, 1)
	spec.RequestsPerClient = 100
	c := MustBuild(spec)
	c.Start()
	c.RunFor(50 * time.Millisecond)
	if got := c.Clients[0].Completed(); got != 100 {
		t.Fatalf("completed %d requests, want 100", got)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicPaxosCommitsSingleClient(t *testing.T) {
	spec := baseSpec(protocol.BasicPaxos, 1)
	spec.RequestsPerClient = 100
	c := MustBuild(spec)
	c.Start()
	c.RunFor(100 * time.Millisecond)
	if got := c.Clients[0].Completed(); got != 100 {
		t.Fatalf("completed %d requests, want 100", got)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for i, commits := range c.ServerCommits() {
		if commits < 100 {
			t.Errorf("replica %d applied %d, want >= 100", i, commits)
		}
	}
}

// TestNewProtocolsManyClients drives the two new engines with contending
// clients: Mencius spreads nothing here (all clients target replica 0)
// but must stay consistent; BasicPaxos duels across instances and must
// still commit everything exactly once.
func TestNewProtocolsManyClients(t *testing.T) {
	for _, p := range []protocol.ID{protocol.Mencius, protocol.BasicPaxos} {
		t.Run(p.String(), func(t *testing.T) {
			spec := baseSpec(p, 5)
			spec.RequestsPerClient = 20
			spec.RetryTimeout = 5 * time.Millisecond
			c := MustBuild(spec)
			c.Start()
			c.RunFor(300 * time.Millisecond)
			for i, cl := range c.Clients {
				if got := cl.Completed(); got != 20 {
					t.Errorf("client %d completed %d, want 20", i, got)
				}
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipelinedWindowCommits runs every paxos-family engine with a
// pipelined client window and checks exactly-once completion plus
// cross-replica consistency — the dedup-across-a-window property the
// windowed session table provides.
func TestPipelinedWindowCommits(t *testing.T) {
	for _, p := range []protocol.ID{protocol.OnePaxos, protocol.MultiPaxos, protocol.Mencius, protocol.BasicPaxos} {
		t.Run(p.String(), func(t *testing.T) {
			spec := baseSpec(p, 2)
			spec.RequestsPerClient = 60
			spec.Window = 8
			spec.RetryTimeout = 5 * time.Millisecond
			c := MustBuild(spec)
			c.Start()
			c.RunFor(300 * time.Millisecond)
			for i, cl := range c.Clients {
				if got := cl.Completed(); got != 60 {
					t.Errorf("client %d completed %d, want 60", i, got)
				}
				if cl.MaxInFlight() < 2 {
					t.Errorf("client %d never pipelined: max in flight %d", i, cl.MaxInFlight())
				}
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardsValidation is the Spec.Shards validation table: every way a
// core-to-group assignment can be malformed must surface as a Build
// error, not a panic deep in the wiring.
func TestShardsValidation(t *testing.T) {
	base := func() Spec {
		s := baseSpec(protocol.OnePaxos, 2)
		return s
	}
	cases := []struct {
		name  string
		tweak func(*Spec)
	}{
		{"negative shards", func(s *Spec) { s.Shards = -1 }},
		{"too many shards for the tag width", func(s *Spec) { s.Shards = shard.MaxShards + 1 }},
		{"joint mode with shards", func(s *Spec) { s.Shards = 2; s.Joint = true }},
		{"groups overflow the machine", func(s *Spec) { s.Shards = 16 }}, // 16x3 + 2 > 48
		{"groups plus clients overflow the machine", func(s *Spec) { s.Shards = 4; s.Clients = 40 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base()
			tc.tweak(&spec)
			if _, err := Build(spec); err == nil {
				t.Fatalf("Build accepted %+v", spec)
			}
		})
	}
	// The boundary fits exactly: 4 groups x 3 replicas + 36 clients = 48.
	spec := base()
	spec.Shards = 4
	spec.Clients = 36
	if _, err := Build(spec); err != nil {
		t.Fatalf("exact-fit spec rejected: %v", err)
	}
}

// TestBatchValidation is the Spec.BatchAdaptive validation table,
// mirroring the Shards one.
func TestBatchValidation(t *testing.T) {
	cases := []struct {
		name  string
		tweak func(*Spec)
	}{
		{"adaptive with window 1", func(s *Spec) { s.Window = 1; s.BatchAdaptive = true }},
		{"adaptive in the default closed loop", func(s *Spec) { s.BatchAdaptive = true }},
		{"negative snapshot interval", func(s *Spec) { s.SnapshotInterval = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := baseSpec(protocol.OnePaxos, 2)
			tc.tweak(&spec)
			if _, err := Build(spec); err == nil {
				t.Fatalf("Build accepted %+v", spec)
			}
		})
	}
	spec := baseSpec(protocol.OnePaxos, 2)
	spec.Window = 8
	spec.BatchAdaptive = true
	if _, err := Build(spec); err != nil {
		t.Fatalf("legal batching spec rejected: %v", err)
	}
}

// TestBatchedWindowCommits drives every log-ordered protocol with a
// pipelined, batched client on the simulator: all commands must commit
// exactly once, replicas must stay consistent, and multi-command
// instances must actually form.
func TestBatchedWindowCommits(t *testing.T) {
	for _, p := range []protocol.ID{protocol.OnePaxos, protocol.MultiPaxos, protocol.Mencius, protocol.BasicPaxos, protocol.TwoPC} {
		t.Run(p.String(), func(t *testing.T) {
			spec := baseSpec(p, 2)
			spec.RequestsPerClient = 60
			spec.Window = 8
			spec.BatchAdaptive = true
			spec.RetryTimeout = 5 * time.Millisecond
			c := MustBuild(spec)
			c.Start()
			c.RunFor(300 * time.Millisecond)
			for i, cl := range c.Clients {
				if got := cl.Completed(); got != 60 {
					t.Errorf("client %d completed %d, want 60", i, got)
				}
			}
			occ := c.Obs().Counters
			if occ["batch.commands"] != int64(60*len(c.Clients)) {
				t.Errorf("occupancy counted %d commands, want %d", occ["batch.commands"], 60*len(c.Clients))
			}
			if occ["batch.commands"] <= occ["batch.batches"] {
				t.Errorf("batcher never coalesced: %d commands in %d batches",
					occ["batch.commands"], occ["batch.batches"])
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAdaptiveBatchingFillsItsCap pins the workload client's
// load-driven batcher on the noise-free simulator: it must fill every
// instance to its half-window cap of 8 and hold at least 0.95x one
// command per instance. Window 16 fits two caps exactly; window 15 does
// not (8 + 7), so there the adaptive hold is what keeps a lane waiting
// for a whole cap of free slots instead of alternating 8, 7, 8, 7 —
// without it occupancy drops to 7.5 and this test fails.
func TestAdaptiveBatchingFillsItsCap(t *testing.T) {
	const warmup, measure = 5 * time.Millisecond, 20 * time.Millisecond
	run := func(shards, window int, adaptive bool) (throughput, occupancy float64) {
		spec := baseSpec(protocol.OnePaxos, 4)
		spec.Shards = shards
		spec.Window = window
		spec.Warmup = warmup
		spec.RetryTimeout = 50 * time.Millisecond
		spec.BatchAdaptive = adaptive
		c := MustBuild(spec)
		c.Start()
		c.RunFor(warmup + measure)
		occ := c.Obs().Counters
		return c.ClientStats().Throughput, float64(occ["batch.commands"]) / float64(occ["batch.batches"])
	}
	for _, shards := range []int{1, 4} {
		for _, window := range []int{16, 15} {
			single, _ := run(shards, window, false)
			adaptive, occ := run(shards, window, true)
			if adaptive < 0.95*single {
				t.Errorf("%d shards, window %d: adaptive %.0f op/s < 0.95x batch 1 %.0f op/s",
					shards, window, adaptive, single)
			}
			if occ < 7.9 {
				t.Errorf("%d shards, window %d: adaptive batcher filled %.2f commands per instance, want the cap of 8",
					shards, window, occ)
			}
		}
	}
}

// TestShardedBuildLayout checks the core-to-group assignment: disjoint
// dense per-group id ranges, clients above them, every client running
// one lane per group.
func TestShardedBuildLayout(t *testing.T) {
	spec := baseSpec(protocol.OnePaxos, 3)
	spec.Shards = 4
	c := MustBuild(spec)
	if len(c.Groups) != 4 || len(c.Servers) != 12 {
		t.Fatalf("got %d groups, %d servers", len(c.Groups), len(c.Servers))
	}
	want := msg.NodeID(0)
	for g, group := range c.Groups {
		for _, id := range group {
			if id != want {
				t.Fatalf("group %d holds id %d, want %d", g, id, want)
			}
			want++
		}
	}
	for i, id := range c.ClientIDs {
		if id != msg.NodeID(12+i) {
			t.Fatalf("client %d has id %d, want %d", i, id, 12+i)
		}
	}
	for i, cl := range c.Clients {
		if cl.Lanes() != 4 {
			t.Fatalf("client %d runs %d lanes, want 4", i, cl.Lanes())
		}
	}
}

// TestShardedCommits runs a 2-group deployment end to end: every client
// command must commit exactly once, both groups must do real work on
// disjoint keys, and each group's log must stay internally consistent.
func TestShardedCommits(t *testing.T) {
	spec := baseSpec(protocol.OnePaxos, 4)
	spec.Shards = 2
	spec.RequestsPerClient = 40
	spec.Window = 2
	c := MustBuild(spec)
	c.Start()
	c.RunFor(100 * time.Millisecond)
	for i, cl := range c.Clients {
		if got := cl.Completed(); got != 40 {
			t.Errorf("client %d completed %d, want 40", i, got)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for g, commits := range c.GroupCommits() {
		if commits == 0 {
			t.Errorf("group %d applied nothing — keyspace not partitioned", g)
		}
	}
	// The routing invariant end to end: every applied command's key must
	// belong to the group that applied it.
	for g, group := range c.Groups {
		exp, ok := c.Servers[g*spec.Replicas].(interface{ Log() *rsm.Log })
		if !ok {
			t.Fatalf("group %d replica %v exposes no log", g, group)
		}
		for _, e := range exp.Log().History() {
			if e.Value.Cmd.Key == "" {
				continue // gap-filling noop
			}
			if got := shard.ForKey(e.Value.Cmd.Key, spec.Shards); got != g {
				t.Fatalf("key %q applied by group %d but routes to %d", e.Value.Cmd.Key, g, got)
			}
		}
	}
}

// TestShardedAllProtocols smoke-tests every registered engine at
// Shards=2: the shard layer must be protocol-agnostic.
func TestShardedAllProtocols(t *testing.T) {
	for _, p := range protocol.IDs() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			spec := baseSpec(p, 2)
			spec.Shards = 2
			spec.Replicas = 3
			spec.RequestsPerClient = 20
			spec.RetryTimeout = 5 * time.Millisecond
			c := MustBuild(spec)
			c.Start()
			c.RunFor(300 * time.Millisecond)
			for i, cl := range c.Clients {
				if got := cl.Completed(); got != 20 {
					t.Errorf("client %d completed %d, want 20", i, got)
				}
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
