// Command consensusbench regenerates the paper's evaluation tables and
// figures on the simulated many-core machine.
//
// Usage:
//
//	consensusbench -run all
//	consensusbench -run fig8
//	consensusbench -run latency -seed 7
//	consensusbench -run all -json BENCH_results.json
//	consensusbench -list
//
// Experiment ids mirror DESIGN.md's per-experiment index: netchar, fig2,
// sec2.2, latency, fig8, fig9, fig10, fig11, acceptor-switch, lan,
// ablation-batching, ablation-pipelining, ablation-cmdbatch,
// batch-sweep, hotpath-sweep, recovery-sweep, read-sweep,
// shard-sweep, shard-sim, mencius, scenario-fuzz, trace-sweep.
//
// With -json the run also writes a machine-readable BENCH_*.json file:
// one object per executed experiment with its headline metrics, so
// successive commits can be compared without parsing the tables.
//
// The -cpuprofile, -memprofile and -mutexprofile flags capture pprof
// profiles spanning whatever experiments the invocation runs — the
// usual way to find a hot path's next bottleneck is
//
//	consensusbench -run hotpath-sweep -cpuprofile cpu.out
//	go tool pprof -top cpu.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"consensusinside"
	"consensusinside/internal/experiments"
)

type experiment struct {
	id    string
	about string
	run   func(w io.Writer, opts experiments.Opts) map[string]float64
}

// metricName flattens a display label ("1Paxos", "Multi-Paxos") into a
// metric-key-safe token ("1paxos", "multipaxos") for the -json dump.
func metricName(label string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(label) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	return b.String()
}

var all = []experiment{
	{
		id:    "netchar",
		about: "Section 3: transmission/propagation delay, many-core vs LAN",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			rows := experiments.NetCharacteristics(opts)
			experiments.PrintNetCharacteristics(w, rows)
			m := map[string]float64{}
			for _, r := range rows {
				m[r.Setting+"_trans_prop_ratio"] = r.Ratio
			}
			return m
		},
	},
	{
		id:    "fig2",
		about: "Figure 2: Multi-Paxos scalability, LAN vs many-core",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			series := experiments.Fig2(opts, nil)
			experiments.PrintFig2(w, series)
			m := map[string]float64{}
			for name, pts := range series {
				peak := 0.0
				for _, p := range pts {
					if p.Throughput > peak {
						peak = p.Throughput
					}
				}
				m[name+"_peak_ops"] = peak
			}
			return m
		},
	},
	{
		id:    "sec2.2",
		about: "Section 2.2: 2PC throughput with a slow coordinator",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			r := experiments.Sec22(opts)
			experiments.PrintSlowCore(w, "Section 2.2 — 2PC, slow coordinator", r)
			return printRecovery(w, r)
		},
	},
	{
		id:    "latency",
		about: "Section 7.2: single-client commit latency, all engines",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			rows := experiments.Latency(opts)
			experiments.PrintLatency(w, rows)
			m := map[string]float64{}
			for _, r := range rows {
				m[r.Protocol+"_latency_us"] = float64(r.Latency) / 1e3
				m[r.Protocol+"_ops"] = r.Throughput
			}
			return m
		},
	},
	{
		id:    "fig8",
		about: "Figure 8: latency vs throughput sweeping 1..45 clients",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			series := experiments.Fig8(opts, nil)
			experiments.PrintFig8(w, series)
			m := map[string]float64{}
			for name, pts := range series {
				m[name+"_peak_ops"] = experiments.PeakThroughput(pts)
			}
			return m
		},
	},
	{
		id:    "fig9",
		about: "Figure 9: Joint deployments, throughput vs replica count",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			series := experiments.Fig9(opts, nil)
			experiments.PrintFig9(w, series)
			m := map[string]float64{}
			for name, pts := range series {
				if len(pts) > 0 {
					m[name+"_max_replicas_ops"] = pts[len(pts)-1].Throughput
				}
			}
			return m
		},
	},
	{
		id:    "fig10",
		about: "Figure 10: 2PC-Joint local reads vs 1Paxos",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			rows := experiments.Fig10(opts)
			experiments.PrintFig10(w, rows)
			m := map[string]float64{}
			for _, r := range rows {
				m[fmt.Sprintf("%s_%dc_ops", r.Label, r.Clients)] = r.Throughput
			}
			return m
		},
	},
	{
		id:    "fig11",
		about: "Figure 11: 1Paxos throughput with a slow leader",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			r := experiments.Fig11(opts)
			experiments.PrintSlowCore(w, "Figure 11 — 1Paxos, slow leader", r)
			return printRecovery(w, r)
		},
	},
	{
		id:    "acceptor-switch",
		about: "Section 5.2: crash of the active acceptor, backup promotion",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			r := experiments.AcceptorSwitch(opts)
			experiments.PrintSlowCore(w, "Acceptor switch — 1Paxos, crashed active acceptor", r)
			return printRecovery(w, r)
		},
	},
	{
		id:    "lan",
		about: "Section 8: 1Paxos vs Multi-Paxos over an IP network",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			rows := experiments.LANComparison(opts)
			experiments.PrintLANComparison(w, rows)
			m := map[string]float64{}
			for _, r := range rows {
				m[r.Protocol+"_ops"] = r.Throughput
			}
			if len(rows) == 2 && rows[0].Throughput > 0 {
				m["onepaxos_over_multipaxos"] = rows[1].Throughput / rows[0].Throughput
			}
			return m
		},
	},
	{
		id:    "ablation-batching",
		about: "DESIGN.md ablation: acceptor learn batching on/off (47 nodes)",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			rows := experiments.AblationLearnBatching(opts)
			experiments.PrintAblation(w, "Ablation — 1Paxos-Joint learn batching, 47 replicas", rows)
			return ablationMetrics(rows)
		},
	},
	{
		id:    "ablation-pipelining",
		about: "client pipeline ablation: closed loop vs window 8 (1Paxos)",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			rows := experiments.AblationPipelining(opts)
			experiments.PrintAblation(w, "Ablation — client pipelining, 1 client, 3 replicas", rows)
			return ablationMetrics(rows)
		},
	},
	{
		id:    "ablation-cmdbatch",
		about: "command batching ablation: batch 1/8/16 at window 16 (1Paxos, simulated)",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			rows := experiments.AblationCommandBatching(opts)
			experiments.PrintAblation(w, "Ablation — command batching, window 16, 1 client, 3 replicas", rows)
			return ablationMetrics(rows)
		},
	},
	{
		id:    "batch-sweep",
		about: "command batching on the real runtimes: batch 1 vs 8 at window 16, InProc + TCP",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			m := map[string]float64{}
			for _, tr := range []struct {
				name string
				kind consensusinside.TransportKind
			}{
				{"inproc", consensusinside.InProc},
				{"tcp", consensusinside.TCP},
			} {
				sweep := consensusinside.BatchSweepOptions{Transport: tr.kind, BatchSizes: []int{1, 8, 16}}
				if opts.Quick {
					sweep.Ops = 3000
					sweep.BatchSizes = []int{1, 8}
				}
				pts, err := consensusinside.BatchSweep(sweep)
				if err != nil {
					fmt.Fprintf(w, "batch sweep over %s failed: %v\n", tr.name, err)
					continue
				}
				fmt.Fprintf(w, "Batch sweep — 1Paxos over %s, window %d, same ops per configuration\n",
					tr.name, consensusinside.DefaultPipeline)
				fmt.Fprintf(w, "%-8s %8s %14s %12s %12s\n", "batch", "ops", "throughput", "instances", "cmds/inst")
				for _, p := range pts {
					fmt.Fprintf(w, "%-8d %8d %12.0f/s %12d %12.2f\n",
						p.Batch, p.Ops, p.Throughput, p.Batches, p.CommandsPerInst)
					m[fmt.Sprintf("%s_batch%d_ops", tr.name, p.Batch)] = p.Throughput
					m[fmt.Sprintf("%s_batch%d_instances", tr.name, p.Batch)] = float64(p.Batches)
					m[fmt.Sprintf("%s_batch%d_cmds_per_instance", tr.name, p.Batch)] = p.CommandsPerInst
				}
				if len(pts) > 1 && pts[0].Throughput > 0 {
					for _, p := range pts[1:] {
						gain := p.Throughput / pts[0].Throughput
						fmt.Fprintf(w, "gain at batch %d: %.2fx\n", p.Batch, gain)
						m[fmt.Sprintf("%s_speedup_%dv1", tr.name, p.Batch)] = gain
					}
				}
			}
			return m
		},
	},
	{
		id:    "hotpath-sweep",
		about: "InProc hot-path overhaul: {1,4} shards x {static 1, static 8, adaptive} batching, sim + InProc",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			sweep := consensusinside.HotpathSweepOptions{Seed: opts.Seed}
			if opts.Quick {
				// The CI smoke: InProc cells only (the gate reads them),
				// fewer ops, two passes.
				sweep.Ops = 6000
				sweep.Repeats = 2
				sweep.SkipSim = true
			}
			pts, err := consensusinside.HotpathSweep(sweep)
			if err != nil {
				fmt.Fprintf(w, "hotpath sweep failed: %v\n", err)
				return map[string]float64{}
			}
			m := map[string]float64{}
			fmt.Fprintf(w, "Hotpath sweep — 1Paxos, 3 replicas per group, window %d, same ops per cell\n",
				consensusinside.DefaultPipeline)
			fmt.Fprintf(w, "%-8s %7s %-10s %8s %14s %12s %12s\n",
				"runtime", "shards", "config", "ops", "throughput", "instances", "cmds/inst")
			type group struct {
				transport string
				shards    int
			}
			bestStatic := map[group]float64{}
			adaptive := map[group]float64{}
			for _, p := range pts {
				fmt.Fprintf(w, "%-8s %7d %-10s %8d %12.0f/s %12d %12.2f\n",
					p.Transport, p.Shards, p.Config, p.Ops, p.Throughput, p.Batches, p.CommandsPerInst)
				key := fmt.Sprintf("%s_shards%d_%s", p.Transport, p.Shards, p.Config)
				m[key+"_ops"] = p.Throughput
				m[key+"_instances"] = float64(p.Batches)
				m[key+"_cmds_per_instance"] = p.CommandsPerInst
				g := group{p.Transport, p.Shards}
				if p.Config == "adaptive" {
					adaptive[g] = p.Throughput
				} else if p.Throughput > bestStatic[g] {
					bestStatic[g] = p.Throughput
				}
			}
			// Gate 1: the best InProc 1-shard cell against PR 3's recorded
			// batch-8 baseline. Gate 2: adaptive within 5% of the best
			// static cell at every (runtime, shards) load level.
			bestInproc1 := 0.0
			for _, p := range pts {
				if p.Transport == "inproc" && p.Shards == 1 && p.Throughput > bestInproc1 {
					bestInproc1 = p.Throughput
				}
			}
			if bestInproc1 > 0 {
				vs := bestInproc1 / consensusinside.PR3InProcBatch8Baseline
				fmt.Fprintf(w, "best inproc 1-shard cell vs PR 3 baseline (%.0f op/s): %.2fx\n",
					consensusinside.PR3InProcBatch8Baseline, vs)
				m["inproc_shards1_best_ops"] = bestInproc1
				m["inproc_shards1_best_vs_pr3_baseline"] = vs
			}
			for g, ad := range adaptive {
				if base := bestStatic[g]; base > 0 {
					ratio := ad / base
					fmt.Fprintf(w, "adaptive vs best static (%s, %d shards): %.2fx\n",
						g.transport, g.shards, ratio)
					m[fmt.Sprintf("%s_shards%d_adaptive_vs_best_static", g.transport, g.shards)] = ratio
				}
			}
			return m
		},
	},
	{
		id:    "trace-sweep",
		about: "end-to-end tracing: all engines x {inproc, tcp} x {off, 1-in-64}, stage breakdown + overhead",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			sweep := consensusinside.TraceSweepOptions{}
			if opts.Quick {
				// The CI smoke: InProc only. Window length and repeat
				// count stay at the defaults — a short window's
				// traced/off ratio is pure scheduling noise, and the
				// median needs three quadruples to shrug off a stall.
				sweep.Transports = []consensusinside.TransportKind{consensusinside.InProc}
			}
			pts, err := consensusinside.TraceSweep(sweep)
			if err != nil {
				fmt.Fprintf(w, "trace sweep failed: %v\n", err)
				return map[string]float64{}
			}
			m := map[string]float64{}
			fmt.Fprintf(w, "Trace sweep — 3 replicas, window %d, 1-in-%d sampling on traced cells\n",
				consensusinside.DefaultPipeline, consensusinside.TraceSweepInterval)
			fmt.Fprintf(w, "%-12s %-8s %8s %8s %14s %9s %10s\n",
				"protocol", "runtime", "traced", "ops", "throughput", "sampled", "overhead")
			worstInproc := 1.0e9
			var logSum float64
			var nInproc int
			for _, p := range pts {
				traced := "off"
				overhead := ""
				if p.Interval > 0 {
					traced = fmt.Sprintf("1/%d", p.Interval)
					overhead = fmt.Sprintf("%.3fx", p.Overhead)
				}
				fmt.Fprintf(w, "%-12s %-8s %8s %8d %12.0f/s %9d %10s\n",
					p.Protocol, p.Transport, traced, p.Ops, p.Throughput, p.Sampled, overhead)
				key := fmt.Sprintf("%s_%s", metricName(p.Protocol), p.Transport)
				if p.Interval == 0 {
					m[key+"_off_ops"] = p.Throughput
					continue
				}
				m[key+"_traced_ops"] = p.Throughput
				m[key+"_overhead"] = p.Overhead
				m[key+"_sampled"] = float64(p.Sampled)
				for _, st := range p.Stages {
					if st.Count == 0 {
						continue
					}
					m[fmt.Sprintf("%s_stage_%s_p50_us", key, st.Stage)] = float64(st.P50) / 1e3
					m[fmt.Sprintf("%s_stage_%s_p99_us", key, st.Stage)] = float64(st.P99) / 1e3
				}
				m[key+"_total_p50_us"] = float64(p.Total.P50) / 1e3
				if p.Transport == "inproc" && p.Overhead > 0 {
					logSum += math.Log(p.Overhead)
					nInproc++
					if p.Overhead < worstInproc {
						worstInproc = p.Overhead
					}
				}
				fmt.Fprintf(w, "%14s stage breakdown:", "")
				for _, st := range p.Stages {
					if st.Count == 0 {
						continue
					}
					fmt.Fprintf(w, " %s p50=%v", st.Stage, st.P50)
				}
				fmt.Fprintf(w, " total p50=%v\n", p.Total.P50)
			}
			// The gate: 1-in-64 sampling must cost < 5% of InProc
			// throughput against the off cells of the same run. The
			// gated statistic is the geometric mean across engines —
			// the sampling cost mechanism is identical in every engine
			// (the same hooks on the same hot path), so the per-engine
			// ratios are five measurements of one quantity and pooling
			// them divides the wall-clock noise a single cell carries;
			// the worst single cell stays reported for visibility.
			if nInproc > 0 {
				geomean := math.Exp(logSum / float64(nInproc))
				m["inproc_geomean_traced_over_off"] = geomean
				m["inproc_worst_traced_over_off"] = worstInproc
				verdict := "PASS"
				if geomean < 0.95 {
					verdict = "FAIL"
				}
				fmt.Fprintf(w, "inproc traced/off ratio: geomean %.3f (>= 0.95 required) %s, worst cell %.3f\n",
					geomean, verdict, worstInproc)
			}
			return m
		},
	},
	{
		id:    "recovery-sweep",
		about: "crash→restart→rejoin: throughput dip and time-to-rejoin, all engines, both transports, 2 shards",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			sweep := consensusinside.RecoverySweepOptions{}
			if opts.Quick {
				sweep.Phase = 150 * time.Millisecond
			}
			pts, err := consensusinside.RecoverySweep(sweep)
			if err != nil {
				fmt.Fprintf(w, "recovery sweep failed: %v\n", err)
				return map[string]float64{}
			}
			m := map[string]float64{}
			fmt.Fprintf(w, "Recovery sweep — replica 1 of shard 0 crashed and restarted mid-load, %d shards\n", 2)
			fmt.Fprintf(w, "%-12s %-8s %12s %12s %12s %10s %10s %10s\n",
				"protocol", "runtime", "steady", "crashed", "recovered", "dip", "rejoin_ms", "restores")
			for _, p := range pts {
				key := fmt.Sprintf("%v_%v", p.Protocol, p.Transport)
				fmt.Fprintf(w, "%-12v %-8v %10.0f/s %10.0f/s %10.0f/s %9.0f%% %10.1f %10d\n",
					p.Protocol, p.Transport, p.SteadyOps, p.CrashedOps, p.RecoveredOps,
					100*p.DipFraction(), float64(p.Rejoin)/1e6, p.Snap.Restores)
				m[key+"_steady_ops"] = p.SteadyOps
				m[key+"_crashed_ops"] = p.CrashedOps
				m[key+"_recovered_ops"] = p.RecoveredOps
				m[key+"_dip_fraction"] = p.DipFraction()
				m[key+"_rejoin_ms"] = float64(p.Rejoin) / 1e6
				m[key+"_snapshots"] = float64(p.Snap.Snapshots)
				m[key+"_entries_truncated"] = float64(p.Snap.EntriesTruncated)
				m[key+"_restores"] = float64(p.Snap.Restores)
			}
			return m
		},
	},
	{
		id:    "read-sweep",
		about: "read fast path: mode (consensus/lease/read-index/follower) x read% (50/90/99), both transports",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			m := map[string]float64{}
			for _, tr := range []struct {
				name string
				kind consensusinside.TransportKind
			}{
				{"inproc", consensusinside.InProc},
				{"tcp", consensusinside.TCP},
			} {
				sweep := consensusinside.ReadSweepOptions{Transport: tr.kind}
				if opts.Quick {
					sweep.Ops = 3000
					sweep.ReadPercents = []int{90}
				}
				pts, err := consensusinside.ReadSweep(sweep)
				if err != nil {
					fmt.Fprintf(w, "read sweep over %s failed: %v\n", tr.name, err)
					continue
				}
				fmt.Fprintf(w, "Read sweep — 1Paxos over %s, window %d, same ops per configuration\n",
					tr.name, consensusinside.DefaultPipeline)
				fmt.Fprintf(w, "%-12s %6s %8s %14s %10s %10s %10s %10s %12s\n",
					"mode", "read%", "ops", "throughput", "read_p50", "read_p99", "write_p50", "write_p99", "local_reads")
				baseline := map[int]float64{} // consensus throughput per read%
				for _, p := range pts {
					key := fmt.Sprintf("%s_%v_read%d", tr.name, p.Mode, p.ReadPercent)
					fmt.Fprintf(w, "%-12v %6d %8d %12.0f/s %10v %10v %10v %10v %12d\n",
						p.Mode, p.ReadPercent, p.Ops, p.Throughput,
						p.ReadP50.Round(time.Microsecond), p.ReadP99.Round(time.Microsecond),
						p.WriteP50.Round(time.Microsecond), p.WriteP99.Round(time.Microsecond),
						p.Reads.LocalReads)
					m[key+"_ops"] = p.Throughput
					m[key+"_read_p50_us"] = float64(p.ReadP50) / 1e3
					m[key+"_read_p99_us"] = float64(p.ReadP99) / 1e3
					m[key+"_write_p50_us"] = float64(p.WriteP50) / 1e3
					m[key+"_write_p99_us"] = float64(p.WriteP99) / 1e3
					m[key+"_local_reads"] = float64(p.Reads.LocalReads)
					m[key+"_index_rounds"] = float64(p.Reads.IndexRounds)
					m[key+"_reads_per_round"] = p.Reads.ReadsPerRound()
					if p.Mode == consensusinside.ReadConsensus {
						baseline[p.ReadPercent] = p.Throughput
					} else if base := baseline[p.ReadPercent]; base > 0 {
						gain := p.Throughput / base
						fmt.Fprintf(w, "gain at %v %d%% reads: %.2fx consensus\n", p.Mode, p.ReadPercent, gain)
						m[key+"_speedup_v_consensus"] = gain
					}
				}
			}
			return m
		},
	},
	{
		id:    "shard-sweep",
		about: "shard scaling on the real runtimes: 12 replica cores as 1/2/4 groups, InProc + TCP",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			m := map[string]float64{}
			for _, tr := range []struct {
				name string
				kind consensusinside.TransportKind
			}{
				{"inproc", consensusinside.InProc},
				{"tcp", consensusinside.TCP},
			} {
				sweep := consensusinside.ShardSweepOptions{Transport: tr.kind, CoreBudget: 12}
				if opts.Quick {
					sweep.Ops = 3000
				}
				pts, err := consensusinside.ShardSweep(sweep)
				if err != nil {
					fmt.Fprintf(w, "shard sweep over %s failed: %v\n", tr.name, err)
					continue
				}
				fmt.Fprintf(w, "Shard sweep — 1Paxos over %s, %d replica cores total, disjoint keys\n",
					tr.name, sweep.CoreBudget)
				fmt.Fprintf(w, "%-16s %8s %14s\n", "groups", "ops", "throughput")
				for _, p := range pts {
					fmt.Fprintf(w, "%2d x %-2d replicas %8d %12.0f/s\n",
						p.Shards, p.Replicas, p.Ops, p.Throughput)
					m[fmt.Sprintf("%s_shards%d_ops", tr.name, p.Shards)] = p.Throughput
				}
				if len(pts) > 1 && pts[0].Throughput > 0 {
					last := pts[len(pts)-1]
					gain := last.Throughput / pts[0].Throughput
					fmt.Fprintf(w, "aggregate gain at %d groups: %.2fx\n", last.Shards, gain)
					m[fmt.Sprintf("%s_speedup_%dv1", tr.name, last.Shards)] = gain
				}
			}
			return m
		},
	},
	{
		id:    "shard-sim",
		about: "simulated shard scaling: 12 replica cores as 1x12 / 2x6 / 4x3 groups",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			rows := experiments.ShardScaling(opts, nil)
			experiments.PrintShardScaling(w, rows)
			m := map[string]float64{}
			for _, r := range rows {
				m[fmt.Sprintf("shards%d_ops", r.Shards)] = r.Throughput
			}
			if len(rows) > 1 && rows[0].Throughput > 0 {
				last := rows[len(rows)-1]
				m[fmt.Sprintf("speedup_%dv1", last.Shards)] = last.Throughput / rows[0].Throughput
			}
			return m
		},
	},
	{
		id:    "scenario-fuzz",
		about: "seeded fault-schedule fuzzing + linearizability check, every engine",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			perCell := 10
			if opts.Quick {
				perCell = 3
			}
			cells := []struct {
				shards, snap int
				read         consensusinside.ReadMode
			}{
				{1, 0, consensusinside.ReadConsensus},
				{1, 0, consensusinside.ReadLease},
				{1, 16, consensusinside.ReadIndex},
				{2, 16, consensusinside.ReadFollower},
			}
			m := map[string]float64{}
			fmt.Fprintf(w, "Scenario fuzz — %d seeded fault schedules per engine (crashes, cuts, isolation, slowdowns, loss, skew), per-key linearizability checked\n",
				perCell*len(cells))
			fmt.Fprintf(w, "%-12s %8s %8s %10s %10s %12s\n",
				"protocol", "runs", "ops", "completed", "faults", "violations")
			for _, proto := range consensusinside.ScenarioFuzzProtocols() {
				name := consensusinside.ScenarioFuzzProtoFlag(proto)
				var runs, ops, completed, faults, violations int
				for ci, cell := range cells {
					for i := 0; i < perCell; i++ {
						cfg := consensusinside.ScenarioFuzzConfig{
							Protocol:         proto,
							Seed:             opts.Seed*1_000_000 + int64(ci)*1000 + int64(i),
							Shards:           cell.shards,
							SnapshotInterval: cell.snap,
							ReadMode:         cell.read,
						}
						res, err := consensusinside.ScenarioFuzz(cfg)
						if err != nil {
							fmt.Fprintf(w, "scenario fuzz %s: %v\n", name, err)
							continue
						}
						runs++
						ops += res.Ops
						completed += res.Completed
						faults += res.Events
						if res.Violation != nil {
							violations++
							fmt.Fprintf(w, "VIOLATION (%s): %v\n  reproduce: %s\n  event log:\n%s\n",
								name, res.Violation, consensusinside.ScenarioFuzzRepro(cfg), res.EventDump())
						}
					}
				}
				fmt.Fprintf(w, "%-12s %8d %8d %10d %10d %12d\n",
					name, runs, ops, completed, faults, violations)
				m[name+"_runs"] = float64(runs)
				m[name+"_ops"] = float64(ops)
				m[name+"_completed"] = float64(completed)
				m[name+"_fault_events"] = float64(faults)
				m[name+"_violations"] = float64(violations)
			}
			return m
		},
	},
	{
		id:    "mencius",
		about: "Section 8 extension: Mencius multi-leader load spreading",
		run: func(w io.Writer, opts experiments.Opts) map[string]float64 {
			funnel, spread := experiments.MenciusLoadSpread(opts)
			fmt.Fprintf(w, "Mencius, 3 replicas, offered 100k op/s\n")
			fmt.Fprintf(w, "%-28s %12.0f/s\n", "all traffic at one leader", funnel)
			fmt.Fprintf(w, "%-28s %12.0f/s\n", "spread across all leaders", spread)
			m := map[string]float64{"funnel_ops": funnel, "spread_ops": spread}
			if funnel > 0 {
				fmt.Fprintf(w, "load-spreading gain: %.2fx\n", spread/funnel)
				m["spread_gain"] = spread / funnel
			}
			return m
		},
	},
}

func ablationMetrics(rows []experiments.AblationRow) map[string]float64 {
	m := map[string]float64{}
	for _, r := range rows {
		m[r.Config+"_ops"] = r.Throughput
		m[r.Config+"_latency_us"] = float64(r.Latency) / 1e3
	}
	return m
}

func printRecovery(w io.Writer, r experiments.SlowCoreResult) map[string]float64 {
	rec := experiments.Recovery(r)
	fmt.Fprintf(w, "steady %.0f op/s | stalled %d buckets (%v) | recovered %.0f op/s\n",
		rec.BeforeRate, rec.StallBuckets, time.Duration(rec.StallBuckets)*r.BucketWidth, rec.RecoveredRate)
	return map[string]float64{
		"steady_ops":    rec.BeforeRate,
		"stall_ms":      float64(rec.StallBuckets) * float64(r.BucketWidth/time.Millisecond),
		"recovered_ops": rec.RecoveredRate,
	}
}

// benchReport is the -json output shape.
type benchReport struct {
	Seed        int64                         `json:"seed"`
	Quick       bool                          `json:"quick"`
	DurationSec float64                       `json:"wall_clock_sec"`
	Experiments map[string]map[string]float64 `json:"experiments"`
}

func main() {
	runID := flag.String("run", "", "experiment id, or 'all'")
	list := flag.Bool("list", false, "list experiment ids")
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "shorter runs (CI-friendly)")
	jsonPath := flag.String("json", "", "write machine-readable results to this BENCH_*.json file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	mutexProfile := flag.String("mutexprofile", "", "write an end-of-run mutex-contention profile to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProfile != "" {
		// Sample every contention event: the experiments are short and
		// the point is finding hot locks, not minimizing overhead.
		runtime.SetMutexProfileFraction(1)
		defer func() {
			f, err := os.Create(*mutexProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "create %s: %v\n", *mutexProfile, err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "write mutex profile: %v\n", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "create %s: %v\n", *memProfile, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "write heap profile: %v\n", err)
			}
		}()
	}

	if *list || *runID == "" {
		ids := make([]string, 0, len(all))
		for _, e := range all {
			ids = append(ids, fmt.Sprintf("  %-20s %s", e.id, e.about))
		}
		sort.Strings(ids)
		fmt.Println("experiments:")
		for _, line := range ids {
			fmt.Println(line)
		}
		if *runID == "" && !*list {
			os.Exit(2)
		}
		return
	}

	opts := experiments.Opts{Seed: *seed, Quick: *quick}
	if *quick {
		opts.Duration = 20 * time.Millisecond
		opts.Warmup = 5 * time.Millisecond
	}

	report := benchReport{Seed: *seed, Quick: *quick, Experiments: map[string]map[string]float64{}}
	wallStart := time.Now()
	ran := 0
	for _, e := range all {
		if *runID != "all" && e.id != *runID {
			continue
		}
		start := time.Now()
		metrics := e.run(os.Stdout, opts)
		fmt.Printf("[%s done in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
		report.Experiments[e.id] = metrics
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *runID)
		os.Exit(2)
	}
	if *jsonPath != "" {
		report.DurationSec = time.Since(wallStart).Seconds()
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encode results: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *jsonPath)
	}
}
