package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/scenario_fuzz_quick.golden from this run")

// trailer matches the wall-clock line printed after each experiment.
var trailer = regexp.MustCompile(`(?m)^\[[^\]]* done in [^\]]*\]\n`)

// TestScenarioFuzzQuickGolden pins what `consensusbench -run
// scenario-fuzz -quick` prints at seed 1 (minus the wall-clock trailer),
// through the command's own option handling and Registry lookup. Every
// schedule is seeded and runs on the simulator, so a row that moves (ops,
// completions, fault events) means the fuzzer's schedules or an engine's
// behaviour under them changed. Regenerate with -update only when that
// is intended.
func TestScenarioFuzzQuickGolden(t *testing.T) {
	var out bytes.Buffer
	metrics := runExperiments(&out, "scenario-fuzz", benchOpts(1, true))
	if len(metrics) != 1 || metrics["scenario-fuzz"] == nil {
		t.Fatalf("ran %d experiments, want only scenario-fuzz", len(metrics))
	}
	got := trailer.ReplaceAll(out.Bytes(), nil)
	path := filepath.Join("testdata", "scenario_fuzz_quick.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scenario-fuzz -quick output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
