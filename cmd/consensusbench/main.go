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
// TestQuickGolden. Wall-clock measurement of the real runtimes is bench/
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

	"consensusinside/internal/experiments"
)

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
		for _, e := range experiments.Registry {
			ids = append(ids, fmt.Sprintf("  %-20s %s", e.ID, e.About))
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

	report := benchReport{Seed: *seed, Quick: *quick}
	wallStart := time.Now()
	report.Experiments = runExperiments(os.Stdout, *runID, benchOpts(*seed, *quick))
	if len(report.Experiments) == 0 {
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

// benchOpts is the experiment configuration of -seed and -quick.
func benchOpts(seed int64, quick bool) experiments.Opts {
	opts := experiments.Opts{Seed: seed, Quick: quick}
	if quick {
		opts.Duration = 20 * time.Millisecond
		opts.Warmup = 5 * time.Millisecond
	}
	return opts
}

// runExperiments runs the Registry experiment id, or every one for "all",
// writing each table to w followed by a wall-clock trailer line. It
// returns the metrics of each experiment it ran, keyed by id.
func runExperiments(w io.Writer, id string, opts experiments.Opts) map[string]map[string]float64 {
	ran := map[string]map[string]float64{}
	for _, e := range experiments.Registry {
		if id != "all" && e.ID != id {
			continue
		}
		start := time.Now()
		ran[e.ID] = e.Run(w, opts)
		fmt.Fprintf(w, "[%s done in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return ran
}
