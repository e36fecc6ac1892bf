package experiments

import (
	"fmt"
	"strconv"
	"time"

	"consensusinside/internal/cluster"
	"consensusinside/internal/protocol"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

// The paper's three protocols, in its presentation order.
var protocols = []protocol.ID{protocol.TwoPC, protocol.MultiPaxos, protocol.OnePaxos}

// Registry is the one list of the deterministic paper experiments.
// cmd/consensusbench runs it (-run <id>, -run all, -list, -json) and
// TestQuickGolden pins what it prints and reports, so an experiment
// added here is listed, runnable and golden-checked without being named
// anywhere else — EXPERIMENTS.md, which scripts/docscheck.sh holds to
// one row per id, is the only other place to touch.
var Registry = []Experiment{
	{
		ID:    "netchar",
		About: "Section 3 table: transmission/propagation delay, many-core vs LAN (simnet, topology)",
		Title: "Section 3 — network characteristics (trans/prop)",
		Cols: []Column{
			labelCol("setting", 10),
			{"trans", 12, func(r Row) string { return r.Trans.String() }},
			{"prop", 12, func(r Row) string { return r.Prop.String() }},
			{"ratio", 8, func(r Row) string { return fmt.Sprintf("%.3f", r.Ratio) }},
		},
		Dur:     10 * time.Millisecond,
		Direct:  netCharacteristics,
		Metrics: []Metric{{Key: "{label}_trans_prop_ratio", Value: func(r Row) float64 { return r.Ratio }}},
	},
	{
		// Section 2.3: the LAN deployment (trans 2 µs, prop 135 µs) keeps
		// scaling to ~100 clients while the many-core one saturates
		// after ~3.
		ID:    "fig2",
		About: "Figure 2: Multi-Paxos scalability, LAN vs many-core (multipaxos, cluster)",
		Title: "Figure 2 — Multi-Paxos throughput vs clients: LAN vs many-core",
		Cols:  []Column{labelCol("deployment", 24), xCol("clients", 8), rateCol},
		Dur:   80 * time.Millisecond,
		Warm:  10 * time.Millisecond,
		Cells: func() []Cell {
			manycore := func(n int) *topology.Machine {
				if n <= 48 {
					return topology.Opteron48()
				}
				return topology.Uniform(n, 750*time.Nanosecond)
			}
			lan := func(n int) *topology.Machine { return topology.Uniform(n, simnet.LANPropagation) }
			var cells []Cell
			for _, d := range []struct {
				label   string
				machine func(cores int) *topology.Machine
				cost    simnet.CostModel
			}{
				{"Multi-Paxos Multicore", manycore, simnet.ManyCore()},
				{"Multi-Paxos LAN", lan, simnet.LAN()},
			} {
				// The paper's logarithmic client sweep.
				for _, n := range []int{1, 2, 3, 5, 10, 20, 45, 70, 100} {
					cells = append(cells, Cell{d.label, n, cluster.Spec{
						Protocol: protocol.MultiPaxos,
						Machine:  d.machine(n + 3),
						Cost:     d.cost,
						Replicas: 3,
						Clients:  n,
						// LAN timeouts must exceed the 135µs propagation RTTs.
						RetryTimeout:  20 * time.Millisecond,
						AcceptTimeout: 10 * time.Millisecond,
					}})
				}
			}
			return cells
		},
		Metrics: []Metric{{Key: "{label}_peak_ops", Value: opsOf, Peak: true}},
	},
	{
		// The Figure 11 fault under 2PC, where the throughput collapses
		// for good.
		ID:    "sec2.2",
		About: "Section 2.2: 2PC throughput with a slow coordinator (twopc, failure schedule)",
		Title: "Section 2.2 — 2PC, slow coordinator",
		Cols:  seriesCols,
		Dur:   400 * time.Millisecond,
		Cells: slowCoreCell(protocol.TwoPC),
		Fault: slowLeader,
	},
	{
		// One client, three replicas, average commit latency per
		// protocol. The paper measures 16 µs for 1Paxos, 19.6 µs for
		// Multi-Paxos and 21.4 µs for 2PC. The sweep covers every
		// registered engine, so the related-work extensions (Mencius,
		// single-decree BasicPaxos) land in the same table as the
		// paper's three.
		ID:    "latency",
		About: "Section 7.2: single-client commit latency, all engines",
		Title: "Section 7.2 — single-client commit latency (3 replicas)",
		Cols:  []Column{labelCol("protocol", 12), latencyCol(100 * time.Nanosecond), rateCol},
		Dur:   40 * time.Millisecond,
		Warm:  5 * time.Millisecond,
		Cells: func() []Cell {
			var cells []Cell
			for _, p := range protocol.IDs() {
				cells = append(cells, Cell{Label: p.String(), Spec: cluster.Spec{
					Protocol: p,
					Replicas: 3,
					Clients:  1,
				}})
			}
			return cells
		},
		Metrics: []Metric{{Key: "{label}_latency_us", Value: latencyUSOf}, {Key: "{label}_ops", Value: opsOf}},
	},
	{
		ID:    "fig8",
		About: "Figure 8 (Section 7.3): latency vs throughput sweeping 1..45 clients, the paper's three engines",
		Title: "Figure 8 — latency vs throughput, 3 replicas, 48-core machine",
		Cols:  []Column{labelCol("protocol", 12), xCol("clients", 8), rateCol, latencyCol(100 * time.Nanosecond)},
		Dur:   60 * time.Millisecond,
		Warm:  10 * time.Millisecond,
		Cells: func() []Cell {
			var cells []Cell
			for _, p := range protocols {
				// The paper's client sweep (1..45 on the 48-core machine).
				for _, n := range []int{1, 2, 3, 5, 7, 9, 13, 17, 21, 25, 30, 35, 40, 45} {
					cells = append(cells, Cell{p.String(), n, cluster.Spec{
						Protocol: p,
						Replicas: 3,
						Clients:  n,
					}})
				}
			}
			return cells
		},
		Metrics: []Metric{{Key: "{label}_peak_ops", Value: opsOf, Peak: true}},
	},
	{
		// The Joint deployments (every client is a replica, commands
		// forwarded to the leader, 2 ms think time, Section 7.4). The
		// paper's result: 2PC-Joint and Multi-Paxos-Joint saturate around
		// 20 nodes and then *decline* (messages per agreement grow with
		// N), while 1Paxos-Joint's throughput keeps growing to 47 nodes.
		ID:    "fig9",
		About: "Figure 9: Joint deployments, throughput vs replica count",
		Title: "Figure 9 — throughput vs number of replicas (Joint mode, 2ms think time)",
		Cols:  []Column{labelCol("protocol", 18), xCol("replicas", 9), rateCol, latencyCol(time.Microsecond)},
		Dur:   100 * time.Millisecond,
		Warm:  20 * time.Millisecond,
		Cells: func() []Cell {
			var cells []Cell
			for _, p := range protocols {
				// The paper's replica sweep on the 48-core machine.
				for _, n := range []int{3, 5, 9, 15, 20, 25, 31, 39, 47} {
					cells = append(cells, Cell{p.String() + "-Joint", n, cluster.Spec{
						Protocol:     p,
						Replicas:     n,
						Joint:        true,
						ThinkTime:    2 * time.Millisecond, // Section 7.4
						RetryTimeout: 50 * time.Millisecond,
					}})
				}
			}
			return cells
		},
		// Every size of a series writes the same key, so the last — the
		// largest deployment — is the one reported.
		Metrics: []Metric{{Key: "{label}_max_replicas_ops", Value: opsOf}},
	},
	{
		// 2PC-Joint with local reads at 0%, 10% and 75% read traffic
		// against 1Paxos with 0% reads, at 3 and 5 clients (tight loop, no
		// think time). The paper's point: the local-read optimization lets
		// 2PC-Joint keep up at 3 nodes and 75% reads, but it does not
		// scale — at 5 nodes 1Paxos wins even against 75% reads.
		ID:    "fig10",
		About: "Figure 10: 2PC-Joint local reads vs 1Paxos",
		Title: "Figure 10 — read workloads: 2PC-Joint local reads vs 1Paxos",
		Cols:  []Column{labelCol("configuration", 22), xCol("clients", 8), rateCol},
		Dur:   60 * time.Millisecond,
		Warm:  10 * time.Millisecond,
		Cells: func() []Cell {
			var cells []Cell
			for _, clients := range []int{3, 5} {
				cells = append(cells, Cell{"1Paxos - 0% read", clients, cluster.Spec{
					Protocol: protocol.OnePaxos,
					Replicas: clients,
					Joint:    true,
				}})
				for _, read := range []int{0, 10, 75} {
					cells = append(cells, Cell{fmt.Sprintf("2PC-Joint - %d%% read", read), clients, cluster.Spec{
						Protocol:    protocol.TwoPC,
						Replicas:    clients,
						Joint:       true,
						ReadPercent: read,
						LocalReads:  true,
					}})
				}
			}
			return cells
		},
		Metrics: []Metric{{Key: "{label}_{x}c_ops", Value: opsOf}},
	},
	{
		// The slow-leader experiment (Section 7.6): 1Paxos drops to zero
		// during the leader change and then recovers to the previous
		// throughput.
		ID:    "fig11",
		About: "Figure 11: 1Paxos throughput with a slow leader (onepaxos takeover path)",
		Title: "Figure 11 — 1Paxos, slow leader",
		Cols:  seriesCols,
		Dur:   400 * time.Millisecond,
		Cells: slowCoreCell(protocol.OnePaxos),
		Fault: slowLeader,
	},
	{
		// 1Paxos must promote a backup acceptor and recover.
		ID:    "acceptor-switch",
		About: "Section 5.2: crash of the active acceptor, backup promotion (PaxosUtility)",
		Title: "Acceptor switch — 1Paxos, crashed active acceptor",
		Cols:  seriesCols,
		Dur:   400 * time.Millisecond,
		Cells: slowCoreCell(protocol.OnePaxos),
		Fault: func(c *cluster.Cluster, at time.Duration) {
			c.CrashAt(at, c.ServerIDs[len(c.ServerIDs)-1]) // the active acceptor
		},
	},
	{
		// Section 8 reports a 2.88x throughput improvement for 1Paxos
		// over Multi-Paxos in an IP network.
		ID:    "lan",
		About: "Section 8 in-text: 1Paxos vs Multi-Paxos over an IP network (LAN cost model)",
		Title: "Section 8 — 1Paxos vs Multi-Paxos over a LAN (40 clients)",
		Cols:  []Column{labelCol("protocol", 12), rateCol},
		Dur:   2 * time.Second,
		Warm:  200 * time.Millisecond,
		Cells: func() []Cell {
			var cells []Cell
			for _, p := range []protocol.ID{protocol.MultiPaxos, protocol.OnePaxos} {
				cells = append(cells, Cell{Label: p.String(), Spec: cluster.Spec{
					Protocol:      p,
					Machine:       topology.Uniform(48, simnet.LANPropagation),
					Cost:          simnet.LAN(),
					Replicas:      3,
					Clients:       40,
					RetryTimeout:  50 * time.Millisecond,
					AcceptTimeout: 20 * time.Millisecond,
				}})
			}
			return cells
		},
		Metrics: []Metric{{Key: "{label}_ops", Value: opsOf}},
		Gain:    Gain{Key: "onepaxos_over_multipaxos", Footer: "ratio: %.2fx"},
	},
	{
		ID:    "ablation-batching",
		About: "DESIGN.md ablation: acceptor learn batching on/off (47 nodes)",
		Title: "Ablation — 1Paxos-Joint learn batching, 47 replicas",
		Cols:  ablationCols,
		Dur:   100 * time.Millisecond,
		Warm:  20 * time.Millisecond,
		Cells: func() []Cell {
			var cells []Cell
			for _, batching := range []bool{false, true} {
				label := "unbatched learns"
				if batching {
					label = "batched learns"
				}
				cells = append(cells, Cell{Label: label, Spec: cluster.Spec{
					Protocol:      protocol.OnePaxos,
					Replicas:      47,
					Joint:         true,
					ThinkTime:     2 * time.Millisecond,
					LearnBatching: batching,
					RetryTimeout:  50 * time.Millisecond,
				}})
			}
			return cells
		},
		Metrics: ablationMetrics,
	},
	{
		// 1Paxos, 3 replicas, one client, closed loop vs a window of 8
		// outstanding commands. A closed-loop client is round-trip-bound
		// (one commit latency per command); the window overlaps that wait
		// across in-flight commands and pushes a single client core toward
		// server saturation.
		ID:    "ablation-pipelining",
		About: "client pipeline ablation: closed loop vs window 8 (1Paxos)",
		Title: "Ablation — client pipelining, 1 client, 3 replicas",
		Cols:  ablationCols,
		Dur:   60 * time.Millisecond,
		Warm:  10 * time.Millisecond,
		Cells: func() []Cell {
			var cells []Cell
			for _, window := range []int{1, 8} {
				label := "closed loop"
				if window > 1 {
					label = "window " + strconv.Itoa(window)
				}
				cells = append(cells, Cell{Label: label, Spec: cluster.Spec{
					Protocol:     protocol.OnePaxos,
					Replicas:     3,
					Clients:      1,
					Window:       window,
					RetryTimeout: 50 * time.Millisecond,
				}})
			}
			return cells
		},
		Metrics: ablationMetrics,
	},
	{
		// Proposer-side command batching: 1Paxos, 3 replicas, one client
		// with a window of 16 outstanding commands, one command per
		// instance vs the adaptive batcher (at most half the window, 8).
		// Batch 1 is the pre-batching system (every command burns one
		// agreement instance); batching amortizes the per-instance message
		// cost across the window.
		ID:    "ablation-cmdbatch",
		About: "command batching ablation: batch 1 vs adaptive at window 16 (1Paxos, simulated)",
		Title: "Ablation — command batching, window 16, 1 client, 3 replicas",
		Cols:  ablationCols,
		Dur:   60 * time.Millisecond,
		Warm:  10 * time.Millisecond,
		Cells: func() []Cell {
			var cells []Cell
			for _, adaptive := range []bool{false, true} {
				label := "batch 1 (off)"
				if adaptive {
					label = "adaptive"
				}
				cells = append(cells, Cell{Label: label, Spec: cluster.Spec{
					Protocol:      protocol.OnePaxos,
					Replicas:      3,
					Clients:       1,
					Window:        16,
					BatchAdaptive: adaptive,
					RetryTimeout:  50 * time.Millisecond,
				}})
			}
			return cells
		},
		Metrics: ablationMetrics,
	},
	{
		// The replica-core budget held fixed on the simulated 48-core
		// machine: the same 12 server cores run one 12-replica group, two
		// 6-replica groups, or four 3-replica groups, driven by the same
		// 24 client cores on disjoint per-shard keys (one pipelined lane
		// per group). Aggregate throughput grows with the group count for
		// two reasons: smaller groups pay fewer learn messages per commit,
		// and each group's leader serializes only its own shard of the
		// keyspace.
		ID:    "shard-sim",
		About: "simulated shard scaling: 12 replica cores as 1x12 / 2x6 / 4x3 groups (shard, workload lanes)",
		Title: "Shard scaling — 1Paxos, 12 replica cores total, 24 clients, disjoint keys",
		Cols:  []Column{labelCol("groups", 16), rateCol, latencyCol(time.Microsecond)},
		Dur:   60 * time.Millisecond,
		Warm:  10 * time.Millisecond,
		Cells: func() []Cell {
			var cells []Cell
			for _, shards := range []int{1, 2, 4} {
				replicas := 12 / shards
				cells = append(cells, Cell{fmt.Sprintf("%2d x %-2d replicas", shards, replicas), shards, cluster.Spec{
					Protocol:     protocol.OnePaxos,
					Replicas:     replicas,
					Shards:       shards,
					Clients:      24,
					Window:       4,
					RetryTimeout: 50 * time.Millisecond,
				}})
			}
			return cells
		},
		Metrics: []Metric{{Key: "shards{x}_ops", Value: opsOf}},
		Gain:    Gain{Key: "speedup_{x}v1", Footer: "aggregate gain at {x} groups: %.2fx"},
	},
	{
		ID:      "mencius",
		About:   "Section 8 related work: Mencius multi-leader load spreading",
		Title:   "Mencius, 3 replicas, offered 100k op/s",
		Cols:    []Column{labelCol("", 28), rateCol},
		Dur:     50 * time.Millisecond,
		Direct:  menciusLoadSpread,
		Metrics: []Metric{{Key: "{key}_ops", Value: opsOf}},
		Gain:    Gain{Key: "spread_gain", Footer: "load-spreading gain: %.2fx"},
	},
	{
		// Seeded fault schedules (crashes, cuts, isolation, slowdowns,
		// loss, skew) against every engine over four deployment cells —
		// sharding, snapshots and every read mode — with each recorded
		// history checked for per-key linearizability. The rows are
		// totals; a violation prints its reproduction command as it
		// happens (scenariofuzz.go).
		ID:    "scenario-fuzz",
		About: "seeded fault-schedule fuzzing + linearizability check, every engine (faultsched, linearize; shards x snapshots x read modes)",
		Title: "Scenario fuzz — seeded fault schedules per engine (crashes, cuts, isolation, slowdowns, loss, skew), per-key linearizability checked",
		Cols: []Column{
			{"protocol", -12, func(r Row) string { return r.Key }},
			{"runs", 8, func(r Row) string { return strconv.Itoa(r.Runs) }},
			{"ops", 8, func(r Row) string { return strconv.Itoa(r.Ops) }},
			{"completed", 10, func(r Row) string { return strconv.Itoa(r.Completed) }},
			{"faults", 10, func(r Row) string { return strconv.Itoa(r.Faults) }},
			{"violations", 12, func(r Row) string { return strconv.Itoa(r.Violations) }},
		},
		Direct: fuzzRows,
		Metrics: []Metric{
			{Key: "{key}_runs", Value: func(r Row) float64 { return float64(r.Runs) }},
			{Key: "{key}_ops", Value: func(r Row) float64 { return float64(r.Ops) }},
			{Key: "{key}_completed", Value: func(r Row) float64 { return float64(r.Completed) }},
			{Key: "{key}_fault_events", Value: func(r Row) float64 { return float64(r.Faults) }},
			{Key: "{key}_violations", Value: func(r Row) float64 { return float64(r.Violations) }},
		},
	},
}

var (
	ablationCols    = []Column{labelCol("config", 20), rateCol, latencyCol(time.Microsecond)}
	ablationMetrics = []Metric{{Key: "{label}_ops", Value: opsOf}, {Key: "{label}_latency_us", Value: latencyUSOf}}

	// The three time series share one table: proposals per bucket with
	// the fault and without it.
	seriesCols = []Column{
		xCol("bucket", 8),
		{"slow-leader", 12, func(r Row) string { return strconv.Itoa(r.Faulty) }},
		{"no-failure", 12, func(r Row) string { return strconv.Itoa(r.Baseline) }},
	}
)

// slowCoreCell is the deployment of the three time series (Sections 2.2
// and 7.6): the 8-core machine, 5 clients, 3 replicas of p.
func slowCoreCell(p protocol.ID) func() []Cell {
	return func() []Cell {
		return []Cell{{Spec: cluster.Spec{
			Protocol:     p,
			Machine:      topology.Opteron8(),
			Cost:         simnet.ManyCoreSlowMachine(),
			Replicas:     3,
			Clients:      5,
			SeriesBucket: 10 * time.Millisecond, // the paper's x-axis unit
			// Clients suspect a slow server only after a conservative
			// timeout; this detection delay is what makes the Figure 11
			// zero-throughput window visible. It must exceed healthy
			// commit latency by orders of magnitude yet sit below the
			// slowed leader's per-op service latency, or clients would
			// keep limping along at the slow leader instead of failing
			// over.
			RetryTimeout: 20 * time.Millisecond,
		}}}
	}
}

// slowLeader slows the leader's core with the paper's CPU hogs mid-run.
func slowLeader(c *cluster.Cluster, at time.Duration) {
	c.SlowAt(at, 0, cluster.CPUHogSlowdown)
}
