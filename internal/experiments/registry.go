package experiments

import (
	"fmt"
	"io"
	"time"
)

// Experiment is one deterministic simulator experiment: an id, a
// one-line description, and a runner that prints the experiment's
// table to w and returns its headline metrics.
type Experiment struct {
	ID    string
	About string
	Run   func(w io.Writer, opts Opts) map[string]float64
}

// Registry is the one list of the deterministic paper experiments.
// cmd/consensusbench runs it (-run <id>, -run all, -json) and
// TestQuickGolden pins what it prints, so an experiment added here is
// listed, runnable and golden-checked without being named anywhere else.
var Registry = []Experiment{
	{
		ID:    "netchar",
		About: "Section 3: transmission/propagation delay, many-core vs LAN",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			rows := NetCharacteristics(opts)
			PrintNetCharacteristics(w, rows)
			m := map[string]float64{}
			for _, r := range rows {
				m[r.Setting+"_trans_prop_ratio"] = r.Ratio
			}
			return m
		},
	},
	{
		ID:    "fig2",
		About: "Figure 2: Multi-Paxos scalability, LAN vs many-core",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			series := Fig2(opts, nil)
			PrintFig2(w, series)
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
		ID:    "sec2.2",
		About: "Section 2.2: 2PC throughput with a slow coordinator",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			return printSlowCoreRun(w, "Section 2.2 — 2PC, slow coordinator", Sec22(opts))
		},
	},
	{
		ID:    "latency",
		About: "Section 7.2: single-client commit latency, all engines",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			rows := Latency(opts)
			PrintLatency(w, rows)
			m := map[string]float64{}
			for _, r := range rows {
				m[r.Protocol+"_latency_us"] = float64(r.Latency) / 1e3
				m[r.Protocol+"_ops"] = r.Throughput
			}
			return m
		},
	},
	{
		ID:    "fig8",
		About: "Figure 8: latency vs throughput sweeping 1..45 clients",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			series := Fig8(opts, nil)
			PrintFig8(w, series)
			m := map[string]float64{}
			for name, pts := range series {
				m[name+"_peak_ops"] = PeakThroughput(pts)
			}
			return m
		},
	},
	{
		ID:    "fig9",
		About: "Figure 9: Joint deployments, throughput vs replica count",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			series := Fig9(opts, nil)
			PrintFig9(w, series)
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
		ID:    "fig10",
		About: "Figure 10: 2PC-Joint local reads vs 1Paxos",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			rows := Fig10(opts)
			PrintFig10(w, rows)
			m := map[string]float64{}
			for _, r := range rows {
				m[fmt.Sprintf("%s_%dc_ops", r.Label, r.Clients)] = r.Throughput
			}
			return m
		},
	},
	{
		ID:    "fig11",
		About: "Figure 11: 1Paxos throughput with a slow leader",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			return printSlowCoreRun(w, "Figure 11 — 1Paxos, slow leader", Fig11(opts))
		},
	},
	{
		ID:    "acceptor-switch",
		About: "Section 5.2: crash of the active acceptor, backup promotion",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			return printSlowCoreRun(w, "Acceptor switch — 1Paxos, crashed active acceptor", AcceptorSwitch(opts))
		},
	},
	{
		ID:    "lan",
		About: "Section 8: 1Paxos vs Multi-Paxos over an IP network",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			rows := LANComparison(opts)
			PrintLANComparison(w, rows)
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
		ID:    "ablation-batching",
		About: "DESIGN.md ablation: acceptor learn batching on/off (47 nodes)",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			return printAblationRun(w, "Ablation — 1Paxos-Joint learn batching, 47 replicas", AblationLearnBatching(opts))
		},
	},
	{
		ID:    "ablation-pipelining",
		About: "client pipeline ablation: closed loop vs window 8 (1Paxos)",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			return printAblationRun(w, "Ablation — client pipelining, 1 client, 3 replicas", AblationPipelining(opts))
		},
	},
	{
		ID:    "ablation-cmdbatch",
		About: "command batching ablation: batch 1/8/16 at window 16 (1Paxos, simulated)",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			return printAblationRun(w, "Ablation — command batching, window 16, 1 client, 3 replicas", AblationCommandBatching(opts))
		},
	},
	{
		ID:    "shard-sim",
		About: "simulated shard scaling: 12 replica cores as 1x12 / 2x6 / 4x3 groups",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			rows := ShardScaling(opts, nil)
			PrintShardScaling(w, rows)
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
		ID:    "mencius",
		About: "Section 8 extension: Mencius multi-leader load spreading",
		Run: func(w io.Writer, opts Opts) map[string]float64 {
			funnel, spread := MenciusLoadSpread(opts)
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

func printAblationRun(w io.Writer, title string, rows []AblationRow) map[string]float64 {
	PrintAblation(w, title, rows)
	m := map[string]float64{}
	for _, r := range rows {
		m[r.Config+"_ops"] = r.Throughput
		m[r.Config+"_latency_us"] = float64(r.Latency) / 1e3
	}
	return m
}

func printSlowCoreRun(w io.Writer, title string, r SlowCoreResult) map[string]float64 {
	PrintSlowCore(w, title, r)
	rec := Recovery(r)
	fmt.Fprintf(w, "steady %.0f op/s | stalled %d buckets (%v) | recovered %.0f op/s\n",
		rec.BeforeRate, rec.StallBuckets, time.Duration(rec.StallBuckets)*r.BucketWidth, rec.RecoveredRate)
	return map[string]float64{
		"steady_ops":    rec.BeforeRate,
		"stall_ms":      float64(rec.StallBuckets) * float64(r.BucketWidth/time.Millisecond),
		"recovered_ops": rec.RecoveredRate,
	}
}
