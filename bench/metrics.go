package main

import "consensusinside/internal/trace"

// metricDef names one metric of the benchmark. Later issues refer to these
// names verbatim; BENCHMARK.json at the repository root lists the same
// names, units, directions and bounds (bench_test.go checks the two agree).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base value by which an end-to-end metric
	// may get worse before -aa and compare call it a regression; 0 on
	// per-layer metrics, which are reported and never gated.
	Bound float64
	// Tie is the absolute difference below which -aa and compare call two
	// values equal whatever the bound: a set-up takes 2-10 ms here, and a
	// millisecond of scheduling is a quarter of that.
	Tie float64
}

// endToEnd lists the metrics a caller of the library sees, in table order.
// The first six are defined on every workload and are BENCHMARK.json's
// end_to_end list. get_p50_us and get_p99_us exist only where Gets are
// issued (inproc-mixed-lease) and failed_frac is 0 on a healthy run, so
// BENCHMARK.json carries those three in per_layer (its end-to-end metrics
// must be non-zero on every workload); -aa and compare still gate them
// wherever they are defined.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Tie: 0.05},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "put_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "put_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "get_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "get_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "failed_frac", Unit: "frac", Better: "lower"}, // no tolerance: any increase is a regression
}

// everywhere is how many leading entries of endToEnd every workload reports.
const everywhere = 6

// layer names a per-layer metric: reported, never gated.
func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

var engineNames = []string{"onepaxos", "multipaxos", "twopc", "mencius", "basicpaxos"}

// ladderLayer lists the per-layer metrics that do not depend on the
// workload: micro-benchmarks of one layer each, bottom (the queue) to top,
// and the deterministic simulator. README.md says which end-to-end metric
// each should move, and on which workload.
var ladderLayer = buildLadderLayer()

func buildLadderLayer() []metricDef {
	defs := []metricDef{
		layer("queue.batch_xfer_ns", "ns", "lower"),
		layer("queue.single_xfer_ns", "ns", "lower"),
		layer("runtime.hop_ns", "ns", "lower"),
		layer("runtime.flood_msgs_per_s", "1/s", "higher"),
		layer("msg.encode_ns", "ns", "lower"),
		layer("msg.decode_ns", "ns", "lower"),
		layer("msg.bytes_per_cmd", "B", "lower"),
		layer("msg.codec_allocs", "count", "lower"),
		layer("wire.frame_rt_ns", "ns", "lower"),
		layer("transport.rtt_us", "us", "lower"),
		layer("transport.flood_msgs_per_s", "1/s", "higher"),
	}
	for _, e := range engineNames {
		defs = append(defs,
			layer("engine."+e+".commit_ns", "ns", "lower"),
			layer("engine."+e+".msgs_per_commit", "count", "lower"))
	}
	defs = append(defs,
		layer("rsm.apply_ns", "ns", "lower"),
		layer("rsm.screen_ns", "ns", "lower"),
		layer("snapshot.encode_us", "us", "lower"),
		layer("snapshot.decode_us", "us", "lower"),
	)
	for _, e := range engineNames {
		defs = append(defs,
			layer("sim."+e+".msgs_per_op", "count", "lower"),
			layer("sim."+e+".ops_per_vs", "1/s", "higher"))
	}
	return append(defs, layer("sim.events_per_s", "1/s", "higher"))
}

// workloadLayer lists the per-layer metrics read off a workload's own runs:
// counters of the service and the tracer's stage histograms.
var workloadLayer = buildWorkloadLayer()

func buildWorkloadLayer() []metricDef {
	defs := []metricDef{
		layer("runtime.allocs_per_op", "count", "lower"),
		layer("runtime.gc_pause_ms", "ms", "lower"),
		layer("transport.frames_per_flush", "count", "higher"),
		layer("transport.bytes_per_op", "B", "lower"),
		layer("transport.dropped", "count", "lower"),
		layer("transport.reconnects", "count", "lower"),
		layer("snapshot.taken", "count", "higher"),
		layer("snapshot.bytes", "B", "lower"),
		layer("snapshot.truncated", "count", "higher"),
		layer("readpath.local_frac", "frac", "higher"),
		layer("readpath.fallbacks", "count", "lower"),
		layer("readpath.redirects", "count", "lower"),
		layer("readpath.lease_expiries", "count", "lower"),
		layer("readpath.reads_per_round", "count", "higher"),
		layer("kv.cmds_per_instance", "count", "higher"),
		layer("kv.max_in_flight", "count", "higher"),
		layer("kv.call_self_us", "us", "lower"),
	}
	for st := trace.StageEnqueue; st < trace.NumStages; st++ {
		defs = append(defs,
			layer("stage."+st.String()+".p50_us", "us", "lower"),
			layer("stage."+st.String()+".p99_us", "us", "lower"))
	}
	return append(defs,
		layer("stage.total.p50_us", "us", "lower"),
		layer("stage.trace_overhead_frac", "frac", "higher"),
		layer("shard.scaling", "frac", "higher"),
		layer("shard.imbalance", "frac", "lower"),
	)
}

// faultLayer lists what is derived from the open loop's fault history. Only
// inproc-failover defines these, and BENCHMARK.json lists neither it (see
// workload.NotGated) nor them.
var faultLayer = []metricDef{
	layer("fault.rejoin_p50_ms", "ms", "lower"),
	layer("fault.outage_p50_ms", "ms", "lower"),
	layer("fault.outage_max_ms", "ms", "lower"),
	layer("fault.stalled_ops", "count", "lower"),
	layer("fault.gen_lag_p99_us", "us", "lower"),
	layer("linearize.violations", "count", "lower"),
	layer("linearize.check_ms", "ms", "lower"),
}

// ownLayer is a workload's per-layer table: the three end-to-end metrics
// that are not defined (or not non-zero) on every workload, then what is
// read off its runs.
func ownLayer() []metricDef {
	own := append([]metricDef(nil), endToEnd[everywhere:]...)
	return append(append(own, workloadLayer...), faultLayer...)
}

// driverPerLayer is BENCHMARK.json's per_layer list: ownLayer without the
// fault history, then the ladder.
func driverPerLayer() []metricDef {
	own := append([]metricDef(nil), endToEnd[everywhere:]...)
	return append(append(own, workloadLayer...), ladderLayer...)
}

func lookupDef(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, workloadLayer, faultLayer, ladderLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
