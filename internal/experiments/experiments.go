// Package experiments reproduces every table and figure of the paper's
// evaluation (Sections 2, 3 and 7) on the simulator. The evaluation is
// one measurement — build a deployment, warm it up, run it, read the
// clients' throughput and latency — repeated over a grid, so an
// experiment is data: a title, a column layout, default run lengths,
// the metrics it reports and a list of cells (label, swept value,
// cluster.Spec). One runner (run) builds, starts, faults and runs a
// cell; one renderer (Experiment.report) prints the rows and derives the
// headline metrics. Registry (registry.go) is the one list of
// experiments, which cmd/consensusbench runs and TestQuickGolden pins;
// adding an experiment is adding a stanza there.
//
// `consensusbench -list` prints the ids; measured-vs-paper numbers are
// in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"consensusinside/internal/cluster"
	"consensusinside/internal/mencius"
	"consensusinside/internal/msg"
	"consensusinside/internal/protocol"
	"consensusinside/internal/runtime"
	"consensusinside/internal/simnet"
	"consensusinside/internal/topology"
)

// Opts are common experiment knobs. Zero values select each
// experiment's own defaults, sized for the full benchmark run; tests
// and -quick pass smaller durations.
type Opts struct {
	Seed     int64
	Duration time.Duration // measured run length (after warmup)
	Warmup   time.Duration
	Quick    bool // trade fidelity for runtime (CI); real-time experiments shrink their op counts
}

// Experiment is one deterministic simulator experiment, declared as
// data. Its rows come from exactly one of three sources: Cells alone (a
// steady-state grid, one row per cell), Cells plus Fault (a time series:
// the single cell run with and without the fault, one row per bucket),
// or Direct (the two experiments that drive simnet without a cluster).
type Experiment struct {
	ID    string
	About string // one line for -list: the paper artifact and what it exercises

	Title string   // first line of the table
	Cols  []Column // table layout; no header line is printed when the first Head is empty

	// Dur and Warm are the measured run length and warm-up when Opts
	// leaves them zero.
	Dur, Warm time.Duration

	Cells  func() []Cell
	Fault  func(c *cluster.Cluster, at time.Duration)
	Direct func(Opts) []Row

	// Metrics are the per-row headline numbers -json reports. Gain, when
	// its Key is set, adds last-row over first-row throughput as one
	// more metric and as the table's closing line.
	Metrics []Metric
	Gain    Gain
}

// Cell is one deployment of an experiment's grid. The runner fills in
// Spec.Seed and Spec.Warmup from Opts, and a Spec without a Machine gets
// the paper's testbed: the 48-core Opteron at the many-core cost model.
type Cell struct {
	Label string // series or configuration name
	X     int    // the swept value (clients, replicas, groups); 0 when nothing is swept
	Spec  cluster.Spec
}

// Row is one line of any experiment's table. Each experiment fills the
// fields its columns and metrics read and leaves the rest zero.
type Row struct {
	Label      string
	Key        string        // metric-name stem, where Label is prose (mencius)
	X          int           // the cell's swept value; the bucket index in a time series
	Throughput float64       // commits/s over the measured window
	Latency    time.Duration // mean commit latency
	GroupOps   []int64       // commands applied per agreement group

	Trans, Prop time.Duration // netchar: per-message transmission and propagation delay
	Ratio       float64       // netchar: Trans/Prop

	Faulty, Baseline int // time series: completions in this bucket with and without the fault
}

// Column is one column of a table: a header, a printed width (negative
// for left-aligned) and the text of a row's cell.
type Column struct {
	Head  string
	Width int
	Text  func(Row) string
}

func labelCol(head string, width int) Column {
	return Column{head, -width, func(r Row) string { return r.Label }}
}

func xCol(head string, width int) Column {
	return Column{head, width, func(r Row) string { return strconv.Itoa(r.X) }}
}

var rateCol = Column{"throughput", 14, func(r Row) string { return fmt.Sprintf("%.0f/s", r.Throughput) }}

// latencyCol prints the mean latency rounded to unit.
func latencyCol(unit time.Duration) Column {
	return Column{"latency", 12, func(r Row) string { return r.Latency.Round(unit).String() }}
}

// Metric is one headline number per row. Key is a template over the
// row ({label}, {key}, {x}); rows whose keys coincide fold into one
// metric — the last row's value, or the largest with Peak — which is how
// a sweep reports "throughput at the largest size" or "peak throughput"
// per series.
type Metric struct {
	Key   string
	Value func(Row) float64
	Peak  bool
}

func opsOf(r Row) float64       { return r.Throughput }
func latencyUSOf(r Row) float64 { return float64(r.Latency) / 1e3 }

// Gain names the last-over-first throughput ratio: its metric key (a
// template over the last row) and the format of the table's closing
// line, which takes the ratio.
type Gain struct {
	Key, Footer string
}

// fill expands a metric-key or footer template over r.
func fill(tmpl string, r Row) string {
	return strings.NewReplacer("{label}", r.Label, "{key}", r.Key, "{x}", strconv.Itoa(r.X)).Replace(tmpl)
}

// Run measures the experiment, prints its table to w and returns its
// headline metrics.
func (e Experiment) Run(w io.Writer, opts Opts) map[string]float64 {
	var cells []Cell
	if e.Cells != nil {
		cells = e.Cells()
	}
	return e.report(w, e.measure(opts, cells))
}

// result is what an experiment measured: its table rows and, for a
// time series, the bucket vectors the rows were cut from.
type result struct {
	Rows   []Row
	Series SlowCoreResult
}

// measure runs the experiment over cells — e.Cells(), or a subset of it
// when a test wants a shorter sweep.
func (e Experiment) measure(opts Opts, cells []Cell) result {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Duration == 0 {
		opts.Duration = e.Dur
	}
	if opts.Warmup == 0 {
		opts.Warmup = e.Warm
	}
	switch {
	case e.Direct != nil:
		return result{Rows: e.Direct(opts)}
	case e.Fault != nil:
		return runSeries(opts, cells[0], e.Fault)
	}
	rows := make([]Row, len(cells))
	for i, cell := range cells {
		c := run(opts, cell.Spec, nil, 0)
		st := c.ClientStats()
		rows[i] = Row{
			Label:      cell.Label,
			X:          cell.X,
			Throughput: st.Throughput,
			Latency:    st.Latency.Mean,
			GroupOps:   c.GroupCommits(),
		}
	}
	return result{Rows: rows}
}

// run builds the deployment, starts it, schedules the fault (if any) at
// virtual time at and runs it for the warm-up plus the measured window.
func run(opts Opts, spec cluster.Spec, fault func(*cluster.Cluster, time.Duration), at time.Duration) *cluster.Cluster {
	spec.Seed, spec.Warmup = opts.Seed, opts.Warmup
	if spec.Machine == nil {
		spec.Machine, spec.Cost = topology.Opteron48(), simnet.ManyCore()
	}
	c := cluster.MustBuild(spec)
	c.Start()
	if fault != nil {
		fault(c, at)
	}
	c.RunFor(opts.Warmup + opts.Duration)
	return c
}

// SlowCoreResult is a throughput time series around an injected fault.
type SlowCoreResult struct {
	BucketWidth time.Duration
	FaultAt     time.Duration
	Faulty      []int // proposals per bucket with the fault injected
	Baseline    []int // proposals per bucket, fault-free run
}

// runSeries runs cell twice over the whole of opts.Duration (a time
// series has no warm-up: the start is on the plot) — once with fault
// scheduled a quarter of the way in, once fault-free — and returns the
// clients' completions per Spec.SeriesBucket side by side.
func runSeries(opts Opts, cell Cell, fault func(*cluster.Cluster, time.Duration)) result {
	opts.Warmup = 0
	width, at := cell.Spec.SeriesBucket, opts.Duration/4
	series := func(fault func(*cluster.Cluster, time.Duration)) []int {
		buckets := run(opts, cell.Spec, fault, at).SeriesSum()
		for len(buckets) < int(opts.Duration/width) {
			buckets = append(buckets, 0)
		}
		return buckets
	}
	res := result{Series: SlowCoreResult{
		BucketWidth: width,
		FaultAt:     at,
		Faulty:      series(fault),
		Baseline:    series(nil),
	}}
	for i, n := range res.Series.Faulty {
		row := Row{X: i, Faulty: n}
		if i < len(res.Series.Baseline) {
			row.Baseline = res.Series.Baseline[i]
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// report prints res as the experiment's table — title, header, one line
// per row, closing line — and returns the headline metrics: the per-row
// Metrics, the Gain, and for a time series the recovery summary.
func (e Experiment) report(w io.Writer, res result) map[string]float64 {
	line := func(text func(Column) string) {
		cells := make([]string, len(e.Cols))
		for i, c := range e.Cols {
			cells[i] = fmt.Sprintf("%*s", c.Width, text(c))
		}
		fmt.Fprintln(w, strings.Join(cells, " "))
	}
	title := e.Title
	if e.Fault != nil {
		title += fmt.Sprintf(" (fault at %v, %v buckets)", res.Series.FaultAt, res.Series.BucketWidth)
	}
	fmt.Fprintln(w, title)
	if e.Cols[0].Head != "" {
		line(func(c Column) string { return c.Head })
	}
	m := map[string]float64{}
	for _, r := range res.Rows {
		line(func(c Column) string { return c.Text(r) })
		for _, mt := range e.Metrics {
			key, v := fill(mt.Key, r), mt.Value(r)
			if prev, ok := m[key]; !ok || !mt.Peak || v > prev {
				m[key] = v
			}
		}
	}
	if n := len(res.Rows); e.Gain.Key != "" && n > 1 && res.Rows[0].Throughput > 0 {
		last := res.Rows[n-1]
		gain := last.Throughput / res.Rows[0].Throughput
		fmt.Fprintf(w, fill(e.Gain.Footer, last)+"\n", gain)
		m[fill(e.Gain.Key, last)] = gain
	}
	if e.Fault != nil {
		rec, width := Recovery(res.Series), res.Series.BucketWidth
		fmt.Fprintf(w, "steady %.0f op/s | stalled %d buckets (%v) | recovered %.0f op/s\n",
			rec.BeforeRate, rec.StallBuckets, time.Duration(rec.StallBuckets)*width, rec.RecoveredRate)
		m["steady_ops"] = rec.BeforeRate
		m["stall_ms"] = float64(rec.StallBuckets) * float64(width/time.Millisecond)
		m["recovered_ops"] = rec.RecoveredRate
	}
	return m
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
	// Steady state is every whole bucket before the fault but the first,
	// which holds the start-up.
	stats := RecoveryStats{BeforeRate: MeanRate(r.Faulty, r.BucketWidth, 1, faultBucket)}
	threshold := stats.BeforeRate / perSec / 10 // <10% of steady per bucket
	for i := faultBucket; i < len(r.Faulty) && float64(r.Faulty[i]) <= threshold; i++ {
		stats.StallBuckets++
	}
	// The final bucket is partial (ops landing exactly on the run's end
	// boundary); exclude it from the recovered-rate window.
	end := len(r.Faulty)
	if end > 1 {
		end--
	}
	stats.RecoveredRate = MeanRate(r.Faulty, r.BucketWidth, end*3/4, end)
	return stats
}

// MeanRate converts a bucket series to ops/s over a bucket index range.
func MeanRate(buckets []int, width time.Duration, from, to int) float64 {
	to = min(to, len(buckets))
	if from >= to {
		return 0
	}
	perSec := float64(time.Second / width)
	sum := 0.0
	for _, b := range buckets[from:to] {
		sum += float64(b) * perSec
	}
	return sum / float64(to-from)
}

// netCharacteristics is the Section 3 table. It measures the
// transmission delay on the simulated many-core and LAN as the paper
// does — a sender issuing messages back to back into an unbounded queue;
// its mean busy time per message is the transmission delay — and reads
// the propagation delay between the two cores off the topology, which is
// the simulator's ground truth for it (no ping-pong is run).
func netCharacteristics(opts Opts) []Row {
	measure := func(setting string, machine *topology.Machine, cost simnet.CostModel) Row {
		net := simnet.New(machine, cost, opts.Seed)
		const burst = 1000
		net.AddNode(runtime.HandlerFunc{OnStart: func(ctx runtime.Context) {
			for i := 0; i < burst; i++ {
				ctx.Send(1, pingMsg{})
			}
		}})
		net.AddNode(runtime.HandlerFunc{})
		net.Start()
		net.RunFor(opts.Duration)
		trans := net.Stats(0).BusyTime / burst
		prop := machine.Propagation(0, 1)
		return Row{Label: setting, Trans: trans, Prop: prop, Ratio: float64(trans) / float64(prop)}
	}
	return []Row{
		measure("many-core", topology.Opteron48(), simnet.ManyCore()),
		measure("LAN", topology.Uniform(2, simnet.LANPropagation), simnet.LAN()),
	}
}

// menciusLoadSpread measures the Section 8 related-work point: Mencius's
// multi-leader design raises aggregate throughput when clients spread
// across leaders. It offers 100k op/s open loop (nothing waits for a
// reply, so there is no workload client and no cluster) and reports
// commits/s with all traffic funnelled at one replica vs spread
// round-robin over all three.
func menciusLoadSpread(opts Opts) []Row {
	offer := func(label, key string, spread bool) Row {
		net := simnet.New(topology.Opteron48(), simnet.ManyCore(), opts.Seed)
		ids := []msg.NodeID{0, 1, 2}
		for _, id := range ids {
			net.AddNode(mencius.New(protocol.Config{ID: id, Replicas: ids}))
		}
		done := 0
		clientID := net.AddNode(runtime.HandlerFunc{
			OnReceive: func(ctx runtime.Context, from msg.NodeID, m msg.Message) {
				if rep, ok := m.(msg.ClientReply); ok && rep.OK {
					done++
				}
			},
		})
		net.Start()
		for i := 0; i < 4000; i++ {
			seq := uint64(i + 1)
			to := msg.NodeID(0)
			if spread {
				to = msg.NodeID(i % 3)
			}
			net.At(time.Duration(i)*10*time.Microsecond, func() {
				net.Inject(clientID, to, msg.ClientRequest{
					Client: clientID, Seq: seq,
					Cmd: msg.Command{Op: msg.OpPut, Key: "k", Val: "v"},
				})
			})
		}
		net.RunFor(opts.Duration)
		return Row{Label: label, Key: key, Throughput: float64(done) / opts.Duration.Seconds()}
	}
	return []Row{
		offer("all traffic at one leader", "funnel", false),
		offer("spread across all leaders", "spread", true),
	}
}

// pingMsg is the Section 3 transmission-delay probe's payload.
type pingMsg struct{}

func (pingMsg) Kind() string { return "ping" }
