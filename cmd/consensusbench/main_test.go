package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"consensusinside/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/scenario_fuzz_quick.golden from this run")

// TestScenarioFuzzQuickGolden pins what `consensusbench -run
// scenario-fuzz -quick` prints at seed 1 (minus the wall-clock trailer).
// scenario-fuzz is the one experiment outside internal/experiments, so
// TestQuickGolden there cannot see it; every schedule is seeded and runs
// on the simulator, so a row that moves (ops, completions, fault events)
// means the fuzzer's schedules or an engine's behaviour under them
// changed. Regenerate with -update only when that is intended.
func TestScenarioFuzzQuickGolden(t *testing.T) {
	var got bytes.Buffer
	scenarioFuzz(&got, experiments.Opts{Seed: 1, Quick: true})
	path := filepath.Join("testdata", "scenario_fuzz_quick.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("scenario-fuzz -quick output differs from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
