// Command consensusbench regenerates the paper's evaluation tables and
// figures on the simulated many-core machine.
//
// Usage:
//
//	consensusbench -run all
//	consensusbench -run fig8
//	consensusbench -run latency -seed 7
//	consensusbench -run all -json results.json
//	consensusbench -list
//
// The experiments are internal/experiments.Registry (-list prints the
// ids) — all virtual time, deterministic per seed, pinned by
// TestQuickGolden — plus scenario-fuzz, which lives in the root
// package. Wall-clock measurement of the real runtimes is bench/
// (`bash bench/run.sh`), not this command.
//
// With -json the run also writes one object per executed experiment
// with its headline metrics, so successive commits can be compared
// without parsing the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"consensusinside"
	"consensusinside/internal/experiments"
)

// experiment is one -run id: what -list prints and the function that
// prints the table and returns the -json metrics.
type experiment struct {
	id, about string
	run       func(io.Writer, experiments.Opts) map[string]float64
}

// all is the registry plus the one experiment that needs the root
// package (internal/experiments cannot import it).
func all() []experiment {
	var out []experiment
	for _, e := range experiments.Registry {
		out = append(out, experiment{e.ID, e.About, e.Run})
	}
	return append(out, experiment{
		"scenario-fuzz",
		"seeded fault-schedule fuzzing + linearizability check, every engine (faultsched, linearize; shards x snapshots x read modes)",
		scenarioFuzz,
	})
}

// scenarioFuzz runs seeded fault schedules against every engine over
// four deployment cells and checks per-key linearizability.
func scenarioFuzz(w io.Writer, opts experiments.Opts) map[string]float64 {
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
	jsonPath := flag.String("json", "", "write machine-readable results to this file")
	flag.Parse()

	if *list || *runID == "" {
		var ids []string
		for _, e := range all() {
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
	for _, e := range all() {
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
