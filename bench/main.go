// Command bench is the repository's one benchmark for the replicated KV: six
// named workloads, the end-to-end metrics a caller of the library sees, a
// per-layer ladder and a traced run. README.md in this directory says what
// each workload and metric is for; BENCHMARK.json at the repository root is
// the contract a driver runs it by.
//
//	go run -C bench . [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out dir] [-aa] [-quick]
//	go run -C bench . compare base.json new.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	aa       bool
	quick    bool
	ladder   bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all six, each in a process of its own) and print the driver's JSON line last")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds: the number of 1 s windows a value is the median of")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run plus the layer ladder")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the JSON reports and the traced runs' spans")
	flag.BoolVar(&o.aa, "aa", false, "run the end-to-end suite twice back to back and compare the two sets against the bounds")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: 3 windows of 100 ms and the ladder at minimum iterations")
	flag.BoolVar(&o.ladder, "ladder", true, "with -trace 1, also run the layer ladder and the simulator (the suite turns it off in the processes it starts and runs it once itself)")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || (o.aa && o.trace == 1) {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run1(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func (o options) runOpts() runOpts {
	ro := runOpts{Seed: o.seed, Windows: o.seconds, WindowDur: time.Second, Warmup: 2 * time.Second, Setups: 15}
	if o.quick {
		ro.Windows, ro.WindowDur, ro.Warmup, ro.Setups = 3, 100*time.Millisecond, 100*time.Millisecond, 1
	}
	return ro
}

func (o options) mode() string {
	if o.trace == 1 {
		return modePerLayer
	}
	return modeEndToEnd
}

func (o options) selected() ([]workload, error) {
	if o.workload == "" {
		return workloads, nil
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return []workload{w}, nil
}

// run1 runs what the options ask for and reports the process exit code: 1
// when an operation returned a wrong value or an -aa pair is over its bound.
func run1(o options, stdout io.Writer) (int, error) {
	sel, err := o.selected()
	if err != nil {
		return 2, err
	}
	spawn := len(sel) > 1
	var first *report
	if o.aa {
		if first, err = suite(o, sel, spawn); err != nil {
			return 1, err
		}
		first.print(stdout)
		if err := first.write(o.out, modeEndToEnd+".first.json"); err != nil {
			return 1, err
		}
	}
	rep, err := suite(o, sel, spawn)
	if err != nil {
		return 1, err
	}
	rep.print(stdout)
	name := rep.Mode + ".json"
	if o.workload != "" {
		name = rep.Mode + "." + o.workload + ".json"
	}
	if err := rep.write(o.out, name); err != nil {
		return 1, err
	}
	code := 0
	for _, wl := range rep.Workloads {
		if !wl.Correct {
			fmt.Fprintf(stdout, "# %s: an operation returned a wrong value\n", wl.Name)
			code = 1
		}
	}
	if first != nil {
		if over := printAA(stdout, first, rep); over > 0 {
			fmt.Fprintf(stdout, "# %d end-to-end pairs differ by more than their bound\n", over)
			code = 1
		}
	}
	if o.workload != "" {
		if err := rep.driverLine(stdout); err != nil {
			return 1, err
		}
	}
	return code, nil
}

// suite measures the selected workloads one after the other and merges
// their tables into one report. With spawn, each workload runs in a process
// of its own, exactly as a driver runs it: what an earlier workload leaves
// behind in a process — pooled buffers, pending timers, a larger heap — would
// otherwise be measured as part of the next (inproc-put-sat read 2.5 MB or
// 4.1 MB of heap_mb depending on what had run before it).
func suite(o options, sel []workload, spawn bool) (*report, error) {
	rep := &report{Stamp: newStamp(o.runOpts()), Mode: o.mode()}
	t0 := time.Now()
	for _, w := range sel {
		run := runWorkload
		if spawn {
			run = runChild
		}
		res, err := run(o, w)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, *res)
	}
	if o.trace == 1 && o.ladder {
		scale := 1.0
		if o.quick {
			scale = 0
		}
		spans := newSpanLog()
		var err error
		if rep.Ladder, err = runLadder(o.seed, scale, spans); err != nil {
			return nil, err
		}
		if err := spans.write(o.out, "ladder"); err != nil {
			return nil, err
		}
	}
	rep.Stamp.WallS = time.Since(t0).Seconds()
	return rep, nil
}

// runChild runs one workload in a fresh process of this same program and
// reads back the report it wrote.
func runChild(o options, w workload) (*workloadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-out", o.out, "-ladder=false"}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // exit status 1 still leaves a report: a wrong value is in it
	rep, err := readReport(filepath.Join(o.out, o.mode()+"."+w.Name+".json"))
	if err != nil {
		return nil, errors.Join(runErr, err)
	}
	return &rep.Workloads[0], nil
}

// runWorkload measures one workload in this process: with tracing off its
// end-to-end table; with -trace 1 an untraced reference run and a traced
// run (TraceInterval 64, the benchmark's own spans recorded and written out
// when the run ends), each over half the measured seconds.
func runWorkload(o options, w workload) (*workloadResult, error) {
	ro := o.runOpts()
	if o.trace == 0 {
		d, err := measure(w, ro)
		if err != nil {
			return nil, err
		}
		res := d.result(d.endToEndValues())
		return &res, nil
	}
	ro.Setups = 1
	if !o.quick {
		ro.Warmup = time.Second
	}
	half := ro
	half.Windows = max(ro.Windows/2, 3)
	var ref, satRef *runData
	var err error
	tro := half
	if w.Open {
		// One run serves as both: an open loop completes what its schedule
		// sends whether traced or not, and a second run would only be a
		// second, different fault history.
		tro = ro
	} else if ref, err = measure(w, half); err != nil {
		return nil, err
	}
	if w.Name == "inproc-shard4-put" {
		sat, _ := findWorkload("inproc-put-sat")
		if satRef, err = measure(sat, half); err != nil {
			return nil, err
		}
	}
	spans := newSpanLog()
	tro.TraceInterval, tro.Spans = 64, spans
	traced, err := measure(w, tro)
	if err != nil {
		return nil, err
	}
	if ref == nil {
		ref = traced
	}
	res := ref.result(perLayerValues(ref, traced, satRef))
	if traced != ref {
		res.Attempted += traced.attempted
		res.Failed += traced.failed + traced.wrong
		res.Correct = res.Correct && traced.wrong == 0
		res.Notes = append(res.Notes, traced.notes...)
	}
	if _, dropped := spans.stored(); dropped > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d spans beyond the log's capacity were dropped", dropped))
	}
	if err := spans.write(o.out, w.Name); err != nil {
		return nil, err
	}
	return &res, nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare base.json new.json")
		return 2
	}
	var reps [2]*report
	for i, path := range args {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		reps[i] = rep
	}
	if compareReports(os.Stdout, reps[0], reps[1]) > 0 {
		return 1
	}
	return 0
}
