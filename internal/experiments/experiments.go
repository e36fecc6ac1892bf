// Package experiments reproduces every table and figure of the paper's
// evaluation (Sections 2, 3 and 7). Each experiment returns structured
// rows and can render itself as text; Registry (registry.go) is the one
// list of them, which cmd/consensusbench runs and TestQuickGolden pins.
//
// The per-experiment index (paper artifact → modules → bench target)
// lives in DESIGN.md; measured-vs-paper numbers in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"time"

	"consensusinside/internal/cluster"
	"consensusinside/internal/mencius"
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/runtime"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

// Opts are common experiment knobs. Zero values select defaults suitable
// for the full benchmark run; tests pass smaller durations.
type Opts struct {
	Seed     int64
	Duration time.Duration // measured run length (after warmup)
	Warmup   time.Duration
	Quick    bool // trade fidelity for runtime (CI); real-time experiments shrink their op counts
}

func (o Opts) withDefaults(dur, warm time.Duration) Opts {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Duration == 0 {
		o.Duration = dur
	}
	if o.Warmup == 0 {
		o.Warmup = warm
	}
	return o
}

// Protocols under test, in the paper's presentation order.
var protocols = []cluster.Protocol{cluster.TwoPC, cluster.MultiPaxos, cluster.OnePaxos}

// ---------------------------------------------------------------------------
// Section 3: network characteristics of a many-core vs a LAN
// ---------------------------------------------------------------------------

// NetChar is the Section 3 measurement table.
type NetChar struct {
	Setting string
	Trans   time.Duration
	Prop    time.Duration
	Ratio   float64
}

// NetCharacteristics measures the transmission delay on the simulated
// many-core and LAN as Section 3 does — a sender issuing messages back
// to back into an unbounded queue; its mean busy time per message is the
// transmission delay — and reads the propagation delay between the two
// cores off the topology, which is the simulator's ground truth for it
// (no ping-pong is run).
func NetCharacteristics(opts Opts) []NetChar {
	opts = opts.withDefaults(10*time.Millisecond, 0)

	measure := func(setting string, machine *topology.Machine, cost simnet.CostModel) NetChar {
		net := simnet.New(machine, cost, opts.Seed)
		const burst = 1000
		net.AddNode(&senderHandler{peer: 1, count: burst})
		net.AddNode(&sinkHandler{})
		net.Start()
		net.RunFor(opts.Duration)
		trans := net.Stats(0).BusyTime / burst
		prop := machine.Propagation(0, 1)
		return NetChar{
			Setting: setting,
			Trans:   trans,
			Prop:    prop,
			Ratio:   float64(trans) / float64(prop),
		}
	}

	return []NetChar{
		measure("many-core", topology.Opteron48(), simnet.ManyCore()),
		measure("LAN", topology.Uniform(2, simnet.LANPropagation), simnet.LAN()),
	}
}

// PrintNetCharacteristics renders the Section 3 table.
func PrintNetCharacteristics(w io.Writer, rows []NetChar) {
	fmt.Fprintf(w, "Section 3 — network characteristics (trans/prop)\n")
	fmt.Fprintf(w, "%-10s %12s %12s %8s\n", "setting", "trans", "prop", "ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12v %12v %8.3f\n", r.Setting, r.Trans, r.Prop, r.Ratio)
	}
}

// ---------------------------------------------------------------------------
// Section 7.2: single-client commit latency
// ---------------------------------------------------------------------------

// LatencyRow is one protocol's single-client latency and throughput.
type LatencyRow struct {
	Protocol   string
	Latency    time.Duration
	Throughput float64
}

// Latency runs the Section 7.2 experiment: one client, three replicas,
// average commit latency per protocol. The paper measures 16 µs for
// 1Paxos, 19.6 µs for Multi-Paxos and 21.4 µs for 2PC. The sweep covers
// every registered engine, so the related-work extensions (Mencius,
// single-decree BasicPaxos) land in the same table as the paper's three.
func Latency(opts Opts) []LatencyRow {
	opts = opts.withDefaults(40*time.Millisecond, 5*time.Millisecond)
	all := cluster.Protocols()
	out := make([]LatencyRow, 0, len(all))
	for _, p := range all {
		c := cluster.MustBuild(cluster.Spec{
			Protocol: p,
			Machine:  topology.Opteron48(),
			Cost:     simnet.ManyCore(),
			Seed:     opts.Seed,
			Replicas: 3,
			Clients:  1,
			Warmup:   opts.Warmup,
		})
		c.Start()
		c.RunFor(opts.Warmup + opts.Duration)
		st := c.ClientStats()
		out = append(out, LatencyRow{
			Protocol:   p.String(),
			Latency:    st.Latency.Mean,
			Throughput: st.Throughput,
		})
	}
	return out
}

// PrintLatency renders the Section 7.2 comparison.
func PrintLatency(w io.Writer, rows []LatencyRow) {
	fmt.Fprintf(w, "Section 7.2 — single-client commit latency (3 replicas)\n")
	fmt.Fprintf(w, "%-12s %12s %14s\n", "protocol", "latency", "throughput")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12v %12.0f/s\n", r.Protocol, r.Latency.Round(100*time.Nanosecond), r.Throughput)
	}
}

// ---------------------------------------------------------------------------
// Figure 8: latency vs throughput while sweeping client count
// ---------------------------------------------------------------------------

// Fig8Point is one (clients, throughput, latency) sample.
type Fig8Point struct {
	Clients    int
	Throughput float64
	Latency    time.Duration
}

// Fig8Default is the paper's client sweep (1..45 on the 48-core machine).
var Fig8Default = []int{1, 2, 3, 5, 7, 9, 13, 17, 21, 25, 30, 35, 40, 45}

// Fig8 sweeps the number of clients for each protocol on the 48-core
// machine with three dedicated replica cores (Section 7.3).
func Fig8(opts Opts, clientCounts []int) map[string][]Fig8Point {
	opts = opts.withDefaults(60*time.Millisecond, 10*time.Millisecond)
	if len(clientCounts) == 0 {
		clientCounts = Fig8Default
	}
	out := make(map[string][]Fig8Point, len(protocols))
	for _, p := range protocols {
		for _, n := range clientCounts {
			c := cluster.MustBuild(cluster.Spec{
				Protocol: p,
				Machine:  topology.Opteron48(),
				Cost:     simnet.ManyCore(),
				Seed:     opts.Seed,
				Replicas: 3,
				Clients:  n,
				Warmup:   opts.Warmup,
			})
			c.Start()
			c.RunFor(opts.Warmup + opts.Duration)
			st := c.ClientStats()
			out[p.String()] = append(out[p.String()], Fig8Point{
				Clients:    n,
				Throughput: st.Throughput,
				Latency:    st.Latency.Mean,
			})
		}
	}
	return out
}

// PrintFig8 renders the latency-vs-throughput series.
func PrintFig8(w io.Writer, series map[string][]Fig8Point) {
	fmt.Fprintf(w, "Figure 8 — latency vs throughput, 3 replicas, 48-core machine\n")
	fmt.Fprintf(w, "%-12s %8s %14s %12s\n", "protocol", "clients", "throughput", "latency")
	for _, p := range protocols {
		for _, pt := range series[p.String()] {
			fmt.Fprintf(w, "%-12s %8d %12.0f/s %12v\n",
				p.String(), pt.Clients, pt.Throughput, pt.Latency.Round(100*time.Nanosecond))
		}
	}
}

// PeakThroughput reports the maximum throughput in a Fig8 series.
func PeakThroughput(points []Fig8Point) float64 {
	peak := 0.0
	for _, pt := range points {
		if pt.Throughput > peak {
			peak = pt.Throughput
		}
	}
	return peak
}

// ---------------------------------------------------------------------------
// Figure 2: Multi-Paxos in a LAN vs inside a many-core
// ---------------------------------------------------------------------------

// Fig2Point is one (clients, throughput) sample.
type Fig2Point struct {
	Clients    int
	Throughput float64
}

// Fig2Default is the paper's logarithmic client sweep.
var Fig2Default = []int{1, 2, 3, 5, 10, 20, 45, 70, 100}

// Fig2 compares Multi-Paxos scalability in a LAN (trans 2 µs, prop
// 135 µs) against the many-core (Section 2.3): the LAN deployment keeps
// scaling to ~100 clients while the many-core one saturates after ~3.
func Fig2(opts Opts, clientCounts []int) map[string][]Fig2Point {
	opts = opts.withDefaults(80*time.Millisecond, 10*time.Millisecond)
	if len(clientCounts) == 0 {
		clientCounts = Fig2Default
	}
	out := make(map[string][]Fig2Point, 2)
	run := func(label string, machine func(n int) *topology.Machine, cost simnet.CostModel, counts []int) {
		for _, n := range counts {
			c := cluster.MustBuild(cluster.Spec{
				Protocol: cluster.MultiPaxos,
				Machine:  machine(n + 3),
				Cost:     cost,
				Seed:     opts.Seed,
				Replicas: 3,
				Clients:  n,
				Warmup:   opts.Warmup,
				// LAN timeouts must exceed the 135µs propagation RTTs.
				RetryTimeout:  20 * time.Millisecond,
				AcceptTimeout: 10 * time.Millisecond,
			})
			c.Start()
			c.RunFor(opts.Warmup + opts.Duration)
			st := c.ClientStats()
			out[label] = append(out[label], Fig2Point{Clients: n, Throughput: st.Throughput})
		}
	}
	manycore := func(n int) *topology.Machine {
		if n <= 48 {
			return topology.Opteron48()
		}
		return topology.Uniform(n, 750*time.Nanosecond)
	}
	lan := func(n int) *topology.Machine { return topology.Uniform(n, simnet.LANPropagation) }
	run("Multi-Paxos Multicore", manycore, simnet.ManyCore(), clientCounts)
	run("Multi-Paxos LAN", lan, simnet.LAN(), clientCounts)
	return out
}

// PrintFig2 renders the comparison.
func PrintFig2(w io.Writer, series map[string][]Fig2Point) {
	fmt.Fprintf(w, "Figure 2 — Multi-Paxos throughput vs clients: LAN vs many-core\n")
	fmt.Fprintf(w, "%-24s %8s %14s\n", "deployment", "clients", "throughput")
	for _, label := range []string{"Multi-Paxos Multicore", "Multi-Paxos LAN"} {
		for _, pt := range series[label] {
			fmt.Fprintf(w, "%-24s %8d %12.0f/s\n", label, pt.Clients, pt.Throughput)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 9: degree of replication (Joint mode)
// ---------------------------------------------------------------------------

// Fig9Point is one (replicas, throughput, latency) sample.
type Fig9Point struct {
	Replicas   int
	Throughput float64
	Latency    time.Duration
}

// Fig9Default is the paper's replica sweep on the 48-core machine.
var Fig9Default = []int{3, 5, 9, 15, 20, 25, 31, 39, 47}

// Fig9 runs the Joint deployments (every client is a replica, commands
// forwarded to the leader, 2 ms think time, Section 7.4). The paper's
// result: 2PC-Joint and Multi-Paxos-Joint saturate around 20 nodes and
// then *decline* (messages per agreement grow with N), while
// 1Paxos-Joint's throughput keeps growing to 47 nodes.
func Fig9(opts Opts, sizes []int) map[string][]Fig9Point {
	opts = opts.withDefaults(100*time.Millisecond, 20*time.Millisecond)
	if len(sizes) == 0 {
		sizes = Fig9Default
	}
	out := make(map[string][]Fig9Point, len(protocols))
	for _, p := range protocols {
		for _, n := range sizes {
			c := cluster.MustBuild(cluster.Spec{
				Protocol:     p,
				Machine:      topology.Opteron48(),
				Cost:         simnet.ManyCore(),
				Seed:         opts.Seed,
				Replicas:     n,
				Joint:        true,
				ThinkTime:    2 * time.Millisecond, // Section 7.4
				Warmup:       opts.Warmup,
				RetryTimeout: 50 * time.Millisecond,
			})
			c.Start()
			c.RunFor(opts.Warmup + opts.Duration)
			st := c.ClientStats()
			out[p.String()+"-Joint"] = append(out[p.String()+"-Joint"], Fig9Point{
				Replicas:   n,
				Throughput: st.Throughput,
				Latency:    st.Latency.Mean,
			})
		}
	}
	return out
}

// PrintFig9 renders the joint-deployment sweep.
func PrintFig9(w io.Writer, series map[string][]Fig9Point) {
	fmt.Fprintf(w, "Figure 9 — throughput vs number of replicas (Joint mode, 2ms think time)\n")
	fmt.Fprintf(w, "%-18s %9s %14s %12s\n", "protocol", "replicas", "throughput", "latency")
	for _, p := range protocols {
		label := p.String() + "-Joint"
		for _, pt := range series[label] {
			fmt.Fprintf(w, "%-18s %9d %12.0f/s %12v\n",
				label, pt.Replicas, pt.Throughput, pt.Latency.Round(time.Microsecond))
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 10: read workloads (2PC-Joint local reads vs 1Paxos)
// ---------------------------------------------------------------------------

// Fig10ReadPercents are the read-traffic mixes Figure 10 sweeps
// (workload.Config.ReadPercent).
var Fig10ReadPercents = []int{0, 10, 75}

// Fig10Row is one bar of Figure 10.
type Fig10Row struct {
	Label      string
	Clients    int
	Throughput float64
}

// Fig10 measures 2PC-Joint with local reads at 0%, 10% and 75% read
// traffic against 1Paxos with 0% reads, at 3 and 5 clients (tight loop,
// no think time). The paper's point: the local-read optimization lets
// 2PC-Joint keep up at 3 nodes and 75% reads, but it does not scale —
// at 5 nodes 1Paxos wins even against 75% reads.
func Fig10(opts Opts) []Fig10Row {
	opts = opts.withDefaults(60*time.Millisecond, 10*time.Millisecond)
	var out []Fig10Row
	for _, clients := range []int{3, 5} {
		onep := cluster.MustBuild(cluster.Spec{
			Protocol:  cluster.OnePaxos,
			Machine:   topology.Opteron48(),
			Cost:      simnet.ManyCore(),
			Seed:      opts.Seed,
			Replicas:  clients,
			Joint:     true,
			ThinkTime: 0,
			Warmup:    opts.Warmup,
		})
		onep.Start()
		onep.RunFor(opts.Warmup + opts.Duration)
		out = append(out, Fig10Row{
			Label:      "1Paxos - 0% read",
			Clients:    clients,
			Throughput: onep.ClientStats().Throughput,
		})
		for _, read := range Fig10ReadPercents {
			c := cluster.MustBuild(cluster.Spec{
				Protocol:    cluster.TwoPC,
				Machine:     topology.Opteron48(),
				Cost:        simnet.ManyCore(),
				Seed:        opts.Seed,
				Replicas:    clients,
				Joint:       true,
				ReadPercent: read,
				LocalReads:  true,
				Warmup:      opts.Warmup,
			})
			c.Start()
			c.RunFor(opts.Warmup + opts.Duration)
			out = append(out, Fig10Row{
				Label:      fmt.Sprintf("2PC-Joint - %d%% read", read),
				Clients:    clients,
				Throughput: c.ClientStats().Throughput,
			})
		}
	}
	return out
}

// PrintFig10 renders the read-workload bars.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintf(w, "Figure 10 — read workloads: 2PC-Joint local reads vs 1Paxos\n")
	fmt.Fprintf(w, "%-22s %8s %14s\n", "configuration", "clients", "throughput")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %12.0f/s\n", r.Label, r.Clients, r.Throughput)
	}
}

// ---------------------------------------------------------------------------
// Figure 11 and Section 2.2: slow cores
// ---------------------------------------------------------------------------

// SlowCoreResult is a throughput time series around a slow-core fault.
type SlowCoreResult struct {
	BucketWidth time.Duration
	FaultAt     time.Duration
	Faulty      []int // proposals per bucket with the fault injected
	Baseline    []int // proposals per bucket, fault-free run
}

// Fig11 reproduces the slow-leader experiment (Section 7.6): the 8-core
// machine, 5 clients, 3 replicas, leader slowed by CPU hogs mid-run.
// 1Paxos drops to zero during the leader change and then recovers to the
// previous throughput.
func Fig11(opts Opts) SlowCoreResult {
	return slowCore(opts, cluster.OnePaxos)
}

// Sec22 reproduces Section 2.2: the same fault under 2PC, where the
// throughput collapses for good.
func Sec22(opts Opts) SlowCoreResult {
	return slowCore(opts, cluster.TwoPC)
}

func slowCore(opts Opts, p cluster.Protocol) SlowCoreResult {
	opts = opts.withDefaults(400*time.Millisecond, 0)
	faultAt := opts.Duration / 4
	run := func(inject bool) []int {
		c := cluster.MustBuild(cluster.Spec{
			Protocol:     p,
			Machine:      topology.Opteron8(),
			Cost:         simnet.ManyCoreSlowMachine(),
			Seed:         opts.Seed,
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
		})
		c.Start()
		if inject {
			c.SlowAt(faultAt, 0, cluster.CPUHogSlowdown)
		}
		c.RunFor(opts.Duration)
		buckets := c.SeriesSum()
		want := int(opts.Duration / (10 * time.Millisecond))
		for len(buckets) < want {
			buckets = append(buckets, 0)
		}
		return buckets
	}
	return SlowCoreResult{
		BucketWidth: 10 * time.Millisecond,
		FaultAt:     faultAt,
		Faulty:      run(true),
		Baseline:    run(false),
	}
}

// PrintSlowCore renders a slow-core time series.
func PrintSlowCore(w io.Writer, title string, r SlowCoreResult) {
	fmt.Fprintf(w, "%s (fault at %v, %v buckets)\n", title, r.FaultAt, r.BucketWidth)
	fmt.Fprintf(w, "%8s %12s %12s\n", "bucket", "slow-leader", "no-failure")
	for i := range r.Faulty {
		base := 0
		if i < len(r.Baseline) {
			base = r.Baseline[i]
		}
		fmt.Fprintf(w, "%8d %12d %12d\n", i, r.Faulty[i], base)
	}
}

// RecoveryStats summarizes a SlowCoreResult: steady-state before the
// fault, the number of stalled buckets, and the post-recovery rate.
type RecoveryStats struct {
	BeforeRate    float64 // ops/s before the fault
	StallBuckets  int     // buckets at (near) zero after the fault
	RecoveredRate float64 // ops/s over the final quarter
}

// Recovery computes RecoveryStats from a SlowCoreResult.
func Recovery(r SlowCoreResult) RecoveryStats {
	perSec := float64(time.Second / r.BucketWidth)
	faultBucket := int(r.FaultAt / r.BucketWidth)
	var stats RecoveryStats
	n := 0
	for i := 1; i < faultBucket && i < len(r.Faulty); i++ {
		stats.BeforeRate += float64(r.Faulty[i]) * perSec
		n++
	}
	if n > 0 {
		stats.BeforeRate /= float64(n)
	}
	threshold := stats.BeforeRate / perSec / 10 // <10% of steady per bucket
	for i := faultBucket; i < len(r.Faulty); i++ {
		if float64(r.Faulty[i]) <= threshold {
			stats.StallBuckets++
		} else {
			break
		}
	}
	// The final bucket is partial (ops landing exactly on the run's end
	// boundary); exclude it from the recovered-rate window.
	end := len(r.Faulty)
	if end > 1 {
		end--
	}
	last := end * 3 / 4
	n = 0
	for i := last; i < end; i++ {
		stats.RecoveredRate += float64(r.Faulty[i]) * perSec
		n++
	}
	if n > 0 {
		stats.RecoveredRate /= float64(n)
	}
	return stats
}

// ---------------------------------------------------------------------------
// Section 8 in-text claim: 1Paxos over an IP network
// ---------------------------------------------------------------------------

// LANRow is one protocol's LAN throughput.
type LANRow struct {
	Protocol   string
	Throughput float64
}

// LANComparison deploys 1Paxos and Multi-Paxos on the LAN cost model
// (Section 8 reports a 2.88x throughput improvement for 1Paxos over
// Multi-Paxos in an IP network).
func LANComparison(opts Opts) []LANRow {
	opts = opts.withDefaults(2*time.Second, 200*time.Millisecond)
	var out []LANRow
	for _, p := range []cluster.Protocol{cluster.MultiPaxos, cluster.OnePaxos} {
		c := cluster.MustBuild(cluster.Spec{
			Protocol:      p,
			Machine:       topology.Uniform(48, simnet.LANPropagation),
			Cost:          simnet.LAN(),
			Seed:          opts.Seed,
			Replicas:      3,
			Clients:       40,
			Warmup:        opts.Warmup,
			RetryTimeout:  50 * time.Millisecond,
			AcceptTimeout: 20 * time.Millisecond,
		})
		c.Start()
		c.RunFor(opts.Warmup + opts.Duration)
		out = append(out, LANRow{Protocol: p.String(), Throughput: c.ClientStats().Throughput})
	}
	return out
}

// PrintLANComparison renders the LAN rows.
func PrintLANComparison(w io.Writer, rows []LANRow) {
	fmt.Fprintf(w, "Section 8 — 1Paxos vs Multi-Paxos over a LAN (40 clients)\n")
	fmt.Fprintf(w, "%-12s %14s\n", "protocol", "throughput")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12.0f/s\n", r.Protocol, r.Throughput)
	}
	if len(rows) == 2 && rows[0].Throughput > 0 {
		fmt.Fprintf(w, "ratio: %.2fx\n", rows[1].Throughput/rows[0].Throughput)
	}
}

// ---------------------------------------------------------------------------
// Ablation: 1Paxos learn batching (DESIGN.md)
// ---------------------------------------------------------------------------

// AblationRow compares a configuration pair.
type AblationRow struct {
	Config     string
	Throughput float64
	Latency    time.Duration
}

// AblationLearnBatching measures 1Paxos-Joint at maximum replication with
// the acceptor's learn broadcast batched vs unbatched.
func AblationLearnBatching(opts Opts) []AblationRow {
	opts = opts.withDefaults(100*time.Millisecond, 20*time.Millisecond)
	var out []AblationRow
	for _, batching := range []bool{false, true} {
		c := cluster.MustBuild(cluster.Spec{
			Protocol:      cluster.OnePaxos,
			Machine:       topology.Opteron48(),
			Cost:          simnet.ManyCore(),
			Seed:          opts.Seed,
			Replicas:      47,
			Joint:         true,
			ThinkTime:     2 * time.Millisecond,
			Warmup:        opts.Warmup,
			LearnBatching: batching,
			RetryTimeout:  50 * time.Millisecond,
		})
		c.Start()
		c.RunFor(opts.Warmup + opts.Duration)
		st := c.ClientStats()
		label := "unbatched learns"
		if batching {
			label = "batched learns"
		}
		out = append(out, AblationRow{Config: label, Throughput: st.Throughput, Latency: st.Latency.Mean})
	}
	return out
}

// AblationPipelining measures the client pipeline: 1Paxos, 3 replicas,
// one client, closed loop vs a window of 8 outstanding commands. A
// closed-loop client is round-trip-bound (one commit latency per
// command); the window overlaps that wait across in-flight commands and
// pushes a single client core toward server saturation.
func AblationPipelining(opts Opts) []AblationRow {
	opts = opts.withDefaults(60*time.Millisecond, 10*time.Millisecond)
	var out []AblationRow
	for _, window := range []int{1, 8} {
		c := cluster.MustBuild(cluster.Spec{
			Protocol:     cluster.OnePaxos,
			Machine:      topology.Opteron48(),
			Cost:         simnet.ManyCore(),
			Seed:         opts.Seed,
			Replicas:     3,
			Clients:      1,
			Window:       window,
			Warmup:       opts.Warmup,
			RetryTimeout: 50 * time.Millisecond,
		})
		c.Start()
		c.RunFor(opts.Warmup + opts.Duration)
		st := c.ClientStats()
		label := "closed loop"
		if window > 1 {
			label = fmt.Sprintf("window %d", window)
		}
		out = append(out, AblationRow{Config: label, Throughput: st.Throughput, Latency: st.Latency.Mean})
	}
	return out
}

// AblationCommandBatching measures proposer-side command batching on
// the simulator: 1Paxos, 3 replicas, one client with a window of 16
// outstanding commands, batch cap 1 vs 8 vs 16. Batch 1 is the
// pre-batching system (every command burns one agreement instance);
// larger caps amortize the per-instance message cost across the window.
// A small BatchDelay lets partial batches wait for the window's
// batched completions, which arrive together.
func AblationCommandBatching(opts Opts) []AblationRow {
	opts = opts.withDefaults(60*time.Millisecond, 10*time.Millisecond)
	var out []AblationRow
	for _, batch := range []int{1, 8, 16} {
		c := cluster.MustBuild(cluster.Spec{
			Protocol:     cluster.OnePaxos,
			Machine:      topology.Opteron48(),
			Cost:         simnet.ManyCore(),
			Seed:         opts.Seed,
			Replicas:     3,
			Clients:      1,
			Window:       16,
			BatchSize:    batch,
			BatchDelay:   5 * time.Microsecond,
			Warmup:       opts.Warmup,
			RetryTimeout: 50 * time.Millisecond,
		})
		c.Start()
		c.RunFor(opts.Warmup + opts.Duration)
		st := c.ClientStats()
		label := "batch 1 (off)"
		if batch > 1 {
			label = fmt.Sprintf("batch %d", batch)
		}
		out = append(out, AblationRow{Config: label, Throughput: st.Throughput, Latency: st.Latency.Mean})
	}
	return out
}

// PrintAblation renders ablation rows.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-20s %14s %12s\n", "config", "throughput", "latency")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %12.0f/s %12v\n", r.Config, r.Throughput, r.Latency.Round(time.Microsecond))
	}
}

// ---------------------------------------------------------------------------
// Shard scaling (simulated): a fixed replica-core budget split into
// 1, 2, 4 independent groups
// ---------------------------------------------------------------------------

// ShardRow is one sharding configuration of the simulated sweep.
type ShardRow struct {
	Shards     int // independent agreement groups
	Replicas   int // replicas per group (budget / shards)
	Throughput float64
	Latency    time.Duration
	GroupOps   []int64 // per-group applied-command counts
}

// ShardScalingBudget is the replica-core budget of the simulated shard
// sweep: 12 cores, so the sweep covers 1x12, 2x6 and 4x3 groups on the
// 48-core machine with identical client cores.
const ShardScalingBudget = 12

// ShardScaling sweeps the shard count on the simulated 48-core machine
// with the replica-core budget held fixed: the same 12 server cores run
// one 12-replica group, two 6-replica groups, or four 3-replica groups,
// driven by the same 24 client cores on disjoint per-shard keys (one
// pipelined lane per group). Aggregate throughput grows with the group
// count for two reasons: smaller groups pay fewer learn messages per
// commit, and each group's leader serializes only its own shard of the
// keyspace.
func ShardScaling(opts Opts, shardCounts []int) []ShardRow {
	opts = opts.withDefaults(60*time.Millisecond, 10*time.Millisecond)
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	out := make([]ShardRow, 0, len(shardCounts))
	for _, shards := range shardCounts {
		if shards < 1 || ShardScalingBudget%shards != 0 {
			// Like MustBuild: sweeps are wired by code, and an uneven
			// split would silently compare unequal core budgets.
			panic(fmt.Sprintf("experiments: shard count %d does not divide the %d-core budget",
				shards, ShardScalingBudget))
		}
		c := cluster.MustBuild(cluster.Spec{
			Protocol:     cluster.OnePaxos,
			Machine:      topology.Opteron48(),
			Cost:         simnet.ManyCore(),
			Seed:         opts.Seed,
			Replicas:     ShardScalingBudget / shards,
			Shards:       shards,
			Clients:      24,
			Window:       4,
			Warmup:       opts.Warmup,
			RetryTimeout: 50 * time.Millisecond,
		})
		c.Start()
		c.RunFor(opts.Warmup + opts.Duration)
		st := c.ClientStats()
		out = append(out, ShardRow{
			Shards:     shards,
			Replicas:   ShardScalingBudget / shards,
			Throughput: st.Throughput,
			Latency:    st.Latency.Mean,
			GroupOps:   c.GroupCommits(),
		})
	}
	return out
}

// PrintShardScaling renders the simulated shard sweep.
func PrintShardScaling(w io.Writer, rows []ShardRow) {
	fmt.Fprintf(w, "Shard scaling — 1Paxos, %d replica cores total, 24 clients, disjoint keys\n",
		ShardScalingBudget)
	fmt.Fprintf(w, "%-16s %14s %12s\n", "groups", "throughput", "latency")
	for _, r := range rows {
		fmt.Fprintf(w, "%2d x %-2d replicas %12.0f/s %12v\n",
			r.Shards, r.Replicas, r.Throughput, r.Latency.Round(time.Microsecond))
	}
	if len(rows) > 1 && rows[0].Throughput > 0 {
		last := rows[len(rows)-1]
		fmt.Fprintf(w, "aggregate gain at %d groups: %.2fx\n",
			last.Shards, last.Throughput/rows[0].Throughput)
	}
}

// ---------------------------------------------------------------------------
// Acceptor switch (Section 5.2 behaviour)
// ---------------------------------------------------------------------------

// AcceptorSwitch crashes the active acceptor mid-run and reports the
// throughput series; 1Paxos must promote a backup acceptor and recover.
func AcceptorSwitch(opts Opts) SlowCoreResult {
	opts = opts.withDefaults(400*time.Millisecond, 0)
	faultAt := opts.Duration / 4
	run := func(inject bool) []int {
		c := cluster.MustBuild(cluster.Spec{
			Protocol:     cluster.OnePaxos,
			Machine:      topology.Opteron8(),
			Cost:         simnet.ManyCoreSlowMachine(),
			Seed:         opts.Seed,
			Replicas:     3,
			Clients:      5,
			SeriesBucket: 10 * time.Millisecond,
			RetryTimeout: 20 * time.Millisecond,
		})
		c.Start()
		if inject {
			c.CrashAt(faultAt, c.ServerIDs[len(c.ServerIDs)-1]) // the active acceptor
		}
		c.RunFor(opts.Duration)
		buckets := c.SeriesSum()
		want := int(opts.Duration / (10 * time.Millisecond))
		for len(buckets) < want {
			buckets = append(buckets, 0)
		}
		return buckets
	}
	return SlowCoreResult{
		BucketWidth: 10 * time.Millisecond,
		FaultAt:     faultAt,
		Faulty:      run(true),
		Baseline:    run(false),
	}
}

// MenciusLoadSpread measures the Section 8 related-work point: Mencius's
// multi-leader design raises aggregate throughput when clients spread
// across leaders. It reports commits/s with all traffic funnelled at one
// replica vs spread round-robin over all three.
func MenciusLoadSpread(opts Opts) (funnel, spread float64) {
	opts = opts.withDefaults(50*time.Millisecond, 0)
	run := func(doSpread bool) float64 {
		machine := topology.Opteron48()
		net := simnet.New(machine, simnet.ManyCore(), opts.Seed)
		ids := []msg.NodeID{0, 1, 2}
		for _, id := range ids {
			net.AddNode(mencius.New(protocol.Config{ID: id, Replicas: ids}))
		}
		done := 0
		sink := runtime.HandlerFunc{
			OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
				if rep, ok := m.(msg.ClientReply); ok && rep.OK {
					done++
				}
			},
		}
		clientID := net.AddNode(sink)
		net.Start()
		seq := uint64(0)
		for i := 0; i < 4000; i++ {
			seq++
			s := seq
			to := msg.NodeID(0)
			if doSpread {
				to = msg.NodeID(i % 3)
			}
			at := time.Duration(i) * 10 * time.Microsecond
			net.At(at, func() {
				net.Inject(clientID, to, msg.ClientRequest{
					Client: clientID, Seq: s,
					Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"},
				})
			})
		}
		net.RunFor(opts.Duration)
		return float64(done) / opts.Duration.Seconds()
	}
	return run(false), run(true)
}

// Throughputs is a convenience for asserting experiment shapes in tests.
func Throughputs(points []Fig9Point) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = p.Throughput
	}
	return out
}

// MeanRate converts a bucket series to ops/s over a bucket index range.
func MeanRate(buckets []int, width time.Duration, from, to int) float64 {
	if to > len(buckets) {
		to = len(buckets)
	}
	if from >= to {
		return 0
	}
	sum := 0
	for _, b := range buckets[from:to] {
		sum += b
	}
	return float64(sum) / (float64(to-from) * width.Seconds())
}

// senderHandler issues count messages back to back at start — the
// Section 3 transmission-delay probe.
type senderHandler struct {
	peer  msg.NodeID
	count int
}

func (s *senderHandler) Start(ctx runtime.Context) {
	for i := 0; i < s.count; i++ {
		ctx.Send(s.peer, pingMsg{})
	}
}
func (s *senderHandler) Receive(runtime.Context, msg.NodeID, msg.Message) {}
func (s *senderHandler) Timer(runtime.Context, runtime.TimerTag)          {}

type sinkHandler struct{}

func (sinkHandler) Start(runtime.Context)                            {}
func (sinkHandler) Receive(runtime.Context, msg.NodeID, msg.Message) {}
func (sinkHandler) Timer(runtime.Context, runtime.TimerTag)          {}

type pingMsg struct{}

func (pingMsg) Kind() string { return "ping" }
