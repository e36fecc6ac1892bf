package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"

	"consensusinside/internal/trace"
)

// value is one reported metric. Windows is how many windows the value is the
// median of (0 when it is not windowed), Samples how many operations or
// iterations stand behind it, Spread the distance between the first and
// third quartile over its windows (or repeats) as a share of the median.
type value struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Windows int     `json:"windows"`
	Samples int64   `json:"samples"`
	Spread  float64 `json:"spread"`
	// Series is the per-window (or per-repeat) readings behind a median.
	Series []float64 `json:"series,omitempty"`
}

// workloadResult is one workload's row group in a report.
type workloadResult struct {
	Name      string   `json:"name"`
	Load      string   `json:"load"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"` // returned an error or a wrong value
	Correct   bool     `json:"correct"`
	Metrics   []value  `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
}

func (w *workloadResult) get(name string) (value, bool) { return findValue(w.Metrics, name) }

func findValue(vals []value, name string) (value, bool) {
	for _, v := range vals {
		if v.Name == name {
			return v, true
		}
	}
	return value{}, false
}

// stamp records where and how a report was taken; every artifact carries it.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Windows    int     `json:"windows"`
	WindowS    float64 `json:"window_s"`
	WallS      float64 `json:"wall_s"`
	Delay      string  `json:"message_delay"`
}

const delayNote = "none injected: InProc is shared memory and TCP is loopback, so latency is processor and scheduler time (the paper's setting)"

func newStamp(o runOpts) stamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			commit += "+dirty"
		}
	}
	return stamp{
		Commit: commit, GoVersion: goruntime.Version(), NumCPU: goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0), Seed: o.Seed, Windows: o.Windows,
		WindowS: o.WindowDur.Seconds(), Delay: delayNote,
	}
}

// report is what one invocation measured: the end-to-end table of each
// workload (tracing off), or with -trace 1 each workload's per-layer table
// plus the layer ladder, which does not depend on the workload.
// The two kinds of report, which are also BENCHMARK.json's two metric lists.
const (
	modeEndToEnd = "end_to_end"
	modePerLayer = "per_layer"
)

type report struct {
	Stamp     stamp            `json:"stamp"`
	Mode      string           `json:"mode"` // modeEndToEnd or modePerLayer
	Workloads []workloadResult `json:"workloads"`
	Ladder    []value          `json:"ladder,omitempty"`
}

func (w workload) load() string {
	if w.Open {
		return fmt.Sprintf("open loop, %d Put/s due on a fixed schedule into %d callers, leader crashed every %v", openRate, w.Callers, crashEvery)
	}
	return fmt.Sprintf("closed loop, %d callers, %d%% Get", w.Callers, w.GetPct)
}

// windowSeries turns the coordinator's marks into per-window rates, CPU per
// operation and live heap.
func (d *runData) windowSeries() (rates, cpus, heaps []float64, ops int64) {
	for k := 1; k < len(d.marks); k++ {
		a, b := d.marks[k-1], d.marks[k]
		n := b.ops - a.ops
		ops += n
		rates = append(rates, float64(n)/(float64(b.t-a.t)/1e9))
		if n > 0 {
			cpus = append(cpus, (b.cpu-a.cpu)*1e6/float64(n))
		}
		if b.heapLive > d.heapBase {
			heaps = append(heaps, float64(b.heapLive-d.heapBase)/1e6)
		}
	}
	return
}

func windowed(name string, xs []float64, samples int64) value {
	def, _ := lookupDef(name)
	return value{Name: name, Unit: def.Unit, Spread: iqrFrac(xs), Windows: len(xs), Samples: samples,
		Value: median(append([]float64(nil), xs...)), Series: xs}
}

func plain(name string, v float64, samples int64) value {
	def, _ := lookupDef(name)
	return value{Name: name, Value: v, Unit: def.Unit, Samples: samples}
}

// endToEndValues derives the end-to-end metrics of an untraced run.
func (d *runData) endToEndValues() []value {
	rates, cpus, heaps, ops := d.windowSeries()
	setup := windowed("setup_s", d.setupS, int64(len(d.setupS)))
	setup.Windows = 0
	out := []value{
		setup,
		windowed("ops_per_s", rates, ops),
		windowed("put_p50_us", d.putP50, d.putN),
		windowed("put_p99_us", d.putP99, d.putN),
		windowed("cpu_us_per_op", cpus, ops),
		windowed("heap_mb", heaps, int64(len(heaps))),
	}
	if d.getN > 0 {
		out = append(out,
			windowed("get_p50_us", d.getP50, d.getN),
			windowed("get_p99_us", d.getP99, d.getN))
	}
	return append(out, plain("failed_frac", float64(d.failed+d.wrong)/float64(d.attempted), d.attempted))
}

func (d *runData) result(metrics []value) workloadResult {
	return workloadResult{
		Name: d.w.Name, Load: d.w.load(), Attempted: d.attempted, Failed: d.failed + d.wrong,
		Correct: d.wrong == 0, Metrics: metrics, Notes: d.notes,
	}
}

// perLayerValues derives a workload's own per-layer metrics from its
// untraced reference run and its traced run: counts and the three
// end-to-end metrics BENCHMARK.json lists under per_layer come from the
// reference, stage.* and kv.call_self_us from the traced run, and the
// tracing overhead from the two together. satRef is the inproc-put-sat
// reference shard.scaling is taken against (nil on other workloads).
func perLayerValues(ref, traced, satRef *runData) []value {
	var out []value
	add := func(name string, v float64, samples int64) { out = append(out, plain(name, v, samples)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, v := range ref.endToEndValues() {
		if v.Name == "get_p50_us" || v.Name == "get_p99_us" || v.Name == "failed_frac" {
			out = append(out, v)
		}
	}
	refRates, _, _, refOps := ref.windowSeries()
	measured := float64(ref.marks[len(ref.marks)-1].t-ref.marks[0].t) / 1e9
	add("runtime.allocs_per_op", ratio(float64(ref.mallocs), float64(refOps)), refOps)
	add("runtime.gc_pause_ms", ratio(float64(ref.pauseNs)/1e6, measured), refOps)

	o := ref.obs
	if o["wire.frames_out"] > 0 {
		add("transport.frames_per_flush", ratio(o["wire.frames_out"], o["wire.flushes"]), int64(o["wire.flushes"]))
		add("transport.bytes_per_op", ratio(o["wire.bytes_out"], float64(ref.attempted)), ref.attempted)
		add("transport.dropped", o["wire.dropped"], 0)
		add("transport.reconnects", o["wire.reconnects"], 0)
	}
	add("snapshot.taken", o["snap.snapshots"], 0)
	add("snapshot.bytes", ratio(o["snap.snapshot_bytes"], o["snap.snapshots"]), int64(o["snap.snapshots"]))
	add("snapshot.truncated", o["snap.entries_truncated"], 0)
	if ref.w.GetPct > 0 {
		add("readpath.local_frac", ratio(o["read.local_reads"], float64(ref.getsDone)), ref.getsDone)
		add("readpath.fallbacks", o["read.fallbacks"], 0)
		add("readpath.redirects", o["read.redirects"], 0)
		add("readpath.lease_expiries", o["read.lease_expiries"], 0)
		add("readpath.reads_per_round", ratio(o["read.index_reads"], o["read.index_rounds"]), int64(o["read.index_rounds"]))
	}
	add("kv.cmds_per_instance", ratio(float64(ref.cmds), float64(ref.batches)), ref.batches)
	add("kv.max_in_flight", float64(ref.maxInFlight), 0)

	t := traced.obs
	finished := int64(t["trace.finished"])
	for st := trace.StageEnqueue; st < trace.NumStages; st++ {
		// The tracer records each stage as the time since the previous
		// stage, so enqueue — a span's origin — reads 0 by construction.
		add("stage."+st.String()+".p50_us", t["trace.stage."+st.String()+".p50_us"], finished)
		add("stage."+st.String()+".p99_us", t["trace.stage."+st.String()+".p99_us"], finished)
	}
	add("stage.total.p50_us", t["trace.total.p50_us"], finished)
	add("kv.call_self_us", traced.callP50Us-t["trace.total.p50_us"], finished)
	if !ref.w.Open {
		// An open loop completes what the schedule sends, traced or not.
		tracedRates, _, _, tracedOps := traced.windowSeries()
		add("stage.trace_overhead_frac", ratio(median(tracedRates), median(refRates)), tracedOps)
	}
	if satRef != nil {
		satRates, _, _, _ := satRef.windowSeries()
		add("shard.scaling", ratio(median(refRates), median(satRates)), refOps)
		busiest, sum := int64(0), int64(0)
		for _, n := range ref.shardOps {
			sum += n
			if n > busiest {
				busiest = n
			}
		}
		add("shard.imbalance", ratio(float64(busiest)*float64(len(ref.shardOps)), float64(sum)), sum)
	}
	for _, def := range faultLayer {
		if v, ok := traced.faultVals[def.Name]; ok {
			add(def.Name, v, int64(len(traced.fault.due)))
		}
	}
	return out
}

// --- output ---

func (s stamp) print(w io.Writer) {
	fmt.Fprintf(w, "# commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d  windows %d x %.3gs  wall %.1fs\n",
		s.Commit, s.GoVersion, s.NumCPU, s.GOMAXPROCS, s.Seed, s.Windows, s.WindowS, s.WallS)
	fmt.Fprintf(w, "# message delay: %s\n", s.Delay)
}

// printTable writes one fixed-order table: every def has a row, and a
// metric the workload does not define reads "-".
func printTable(w io.Writer, title string, defs []metricDef, have func(string) (value, bool)) {
	fmt.Fprintf(w, "\n== %s\n", title)
	fmt.Fprintf(w, "%-34s %16s %-6s %8s %12s\n", "metric", "value", "unit", "windows", "samples")
	for _, def := range defs {
		v, ok := have(def.Name)
		if !ok {
			fmt.Fprintf(w, "%-34s %16s %-6s %8s %12s\n", def.Name, "-", def.Unit, "-", "-")
			continue
		}
		fmt.Fprintf(w, "%-34s %16.4f %-6s %8d %12d\n", def.Name, v.Value, def.Unit, v.Windows, v.Samples)
	}
}

func (r *report) print(w io.Writer) {
	r.Stamp.print(w)
	defs := endToEnd
	if r.Mode == modePerLayer {
		defs = ownLayer()
	}
	for i := range r.Workloads {
		wl := &r.Workloads[i]
		printTable(w, fmt.Sprintf("%s  (%s; attempted %d, failed %d, correct %v)", wl.Name, wl.Load, wl.Attempted, wl.Failed, wl.Correct), defs, wl.get)
		for _, n := range wl.Notes {
			fmt.Fprintf(w, "# %s\n", n)
		}
	}
	if r.Mode == modePerLayer {
		printTable(w, "layer ladder and simulator  (the same whatever the workload)", ladderLayer,
			func(name string) (value, bool) { return findValue(r.Ladder, name) })
	}
}

func (r *report) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// driverLine prints the one JSON object the benchmark driver reads as the
// last line of stdout: every BENCHMARK.json metric of the mode, by name. A
// per-layer metric the workload does not define reads 0 there.
func (r *report) driverLine(w io.Writer) error {
	wl := r.Workloads[0]
	defs := endToEnd[:everywhere]
	if r.Mode == modePerLayer {
		defs = driverPerLayer()
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, def := range defs {
		v, ok := wl.get(def.Name)
		if !ok {
			v, _ = findValue(r.Ladder, def.Name)
		}
		metrics[def.Name] = mv{v.Value, def.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wl.Correct, wl.Attempted, wl.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// --- comparing two reports ---

// worseBy reports by what share of base the new value is worse (negative:
// better), given the metric's direction; 0 inside the metric's tie range.
func worseBy(def metricDef, base, new float64) float64 {
	if math.Abs(new-base) < def.Tie {
		return 0
	}
	if base == 0 {
		if new == 0 {
			return 0
		}
		if (new > 0) == (def.Better == "lower") {
			return 1
		}
		return -1
	}
	rel := (new - base) / base
	if def.Better == "higher" {
		return -rel
	}
	return rel
}

// verdict classifies a pair: same within the bound; otherwise better or
// worse, unless the difference is smaller than the window spread of either
// side, in which case it is unresolved. failed_frac has no tolerance.
func verdict(def metricDef, base, new value) string {
	rel := worseBy(def, base.Value, new.Value)
	abs := rel
	if abs < 0 {
		abs = -abs
	}
	if abs <= def.Bound {
		return "same"
	}
	if spread := max(base.Spread, new.Spread); spread > abs {
		return "unresolved"
	}
	if rel > 0 {
		return "worse"
	}
	return "better"
}

// notGated reports whether the named workload's rows are printed but count
// for nothing (workload.NotGated).
func notGated(name string) bool {
	w, ok := findWorkload(name)
	return ok && w.NotGated != ""
}

// compareReports prints one row per workload and end-to-end metric both
// reports define, and reports how many rows of gated workloads are worse.
func compareReports(w io.Writer, base, new *report) (worse int) {
	fmt.Fprintf(w, "# base: ")
	base.Stamp.print(w)
	fmt.Fprintf(w, "# new:  ")
	new.Stamp.print(w)
	fmt.Fprintf(w, "\n%-20s %-14s %14s %14s %9s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for i := range base.Workloads {
		bw := &base.Workloads[i]
		var nw *workloadResult
		for j := range new.Workloads {
			if new.Workloads[j].Name == bw.Name {
				nw = &new.Workloads[j]
			}
		}
		if nw == nil {
			continue
		}
		for _, def := range endToEnd {
			b, ok1 := bw.get(def.Name)
			n, ok2 := nw.get(def.Name)
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(def, b, n)
			if notGated(bw.Name) {
				v += " (not gated)"
			} else if v == "worse" {
				worse++
			}
			ratio := "-"
			if b.Value != 0 {
				ratio = fmt.Sprintf("%.3f", n.Value/b.Value)
			}
			fmt.Fprintf(w, "%-20s %-14s %14.4f %14.4f %9s %6.2f  %s\n", bw.Name, def.Name, b.Value, n.Value, ratio, def.Bound, v)
		}
	}
	return worse
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printAA prints two back-to-back sets of the same code side by side and
// reports how many end-to-end pairs of gated workloads differ by more than
// their bound.
func printAA(w io.Writer, a, b *report) (over int) {
	fmt.Fprintf(w, "\n== A/A: two sets of the same code, back to back\n")
	fmt.Fprintf(w, "%-20s %-14s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range a.Workloads {
		aw, bw := &a.Workloads[i], &b.Workloads[i]
		for _, def := range endToEnd {
			av, ok1 := aw.get(def.Name)
			bv, ok2 := bw.get(def.Name)
			if !ok1 || !ok2 {
				continue
			}
			diff := worseBy(def, av.Value, bv.Value)
			if diff < 0 {
				diff = -diff
			}
			flag := ""
			if diff > def.Bound {
				if notGated(aw.Name) {
					flag = "  over (not gated)"
				} else {
					over++
					flag = "  OVER"
				}
			}
			fmt.Fprintf(w, "%-20s %-14s %14.4f %14.4f %7.1f%% %6.2f%s\n", aw.Name, def.Name, av.Value, bv.Value, 100*diff, def.Bound, flag)
		}
	}
	return over
}
