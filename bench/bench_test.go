package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark program, so that
// TestSuiteSpawnsAProcessPerWorkload can exercise runChild: with
// BENCH_TEST_CHILD set, the process runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_CHILD") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalogue keeps the driver's contract and the
// program's own catalogue from drifting apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	gated := gatedWorkloads()
	if len(bj.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d gated ones", len(bj.Workloads), len(gated))
	}
	for i, w := range gated {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, program %q / %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	e2e := endToEnd[:everywhere]
	if len(bj.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(e2e))
	}
	seen := map[string]bool{}
	for i, def := range e2e {
		got := bj.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, got, def)
		}
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
		seen[def.Name] = true
	}
	layer := driverPerLayer()
	if len(bj.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(layer))
	}
	for i, def := range layer {
		got := bj.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, got, def)
		}
		if seen[def.Name] {
			t.Errorf("metric %s is listed twice", def.Name)
		}
		seen[def.Name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", name)
		}
	}
}

// countRows reports how many table rows of out start with name.
func countRows(out, name string) int {
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			n++
		}
	}
	return n
}

// TestQuickSmoke runs every workload and the whole ladder at smoke length
// and checks the shape of what comes out, not the numbers.
func TestQuickSmoke(t *testing.T) {
	o := options{seed: 1, seconds: 3, quick: true, ladder: true, out: t.TempDir()}

	e2e, err := suite(o, workloads, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	e2e.print(&buf)
	out := buf.String()
	for _, w := range workloads {
		if n := strings.Count(out, "== "+w.Name+" "); n != 1 {
			t.Errorf("workload %s has %d end-to-end tables, want 1", w.Name, n)
		}
	}
	for _, def := range endToEnd {
		if n := countRows(out, def.Name); n != len(workloads) {
			t.Errorf("end-to-end metric %s has %d rows, want one per workload", def.Name, n)
		}
	}
	for i, res := range e2e.Workloads {
		if !res.Correct {
			t.Errorf("%s: an operation returned a wrong value", res.Name)
		}
		for _, def := range endToEnd[:everywhere] {
			if v, ok := res.get(def.Name); !ok || v.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", res.Name, def.Name, v.Value)
			}
		}
		if ff, _ := res.get("failed_frac"); !workloads[i].Open && ff.Value != 0 {
			t.Errorf("%s: failed_frac = %v on a closed loop, want 0", res.Name, ff.Value)
		}
	}

	// A report compared against itself is the same throughout.
	if err := e2e.write(o.out, "self.json"); err != nil {
		t.Fatal(err)
	}
	self, err := readReport(filepath.Join(o.out, "self.json"))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if worse := compareReports(&buf, self, self); worse != 0 {
		t.Errorf("a report compared against itself has %d worse rows", worse)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 7 && f[0] != "workload" && f[0] != "#" && f[6] != "same" {
			t.Errorf("self-compare row is not same: %s", line)
		}
	}
	if n := strings.Count(buf.String(), " same"); n < len(workloads)*(everywhere+1) {
		t.Errorf("self-compare printed %d same rows, want at least %d", n, len(workloads)*(everywhere+1))
	}

	o.trace = 1
	layers, err := suite(o, workloads, false)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	layers.print(&buf)
	out = buf.String()
	for _, def := range ownLayer() {
		if n := countRows(out, def.Name); n != len(workloads) {
			t.Errorf("per-layer metric %s has %d rows, want one per workload", def.Name, n)
		}
	}
	for _, def := range ladderLayer {
		if n := countRows(out, def.Name); n != 1 {
			t.Errorf("ladder metric %s has %d rows, want 1", def.Name, n)
		}
		found := false
		for _, v := range layers.Ladder {
			found = found || v.Name == def.Name
		}
		if !found {
			t.Errorf("ladder metric %s was not measured", def.Name)
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(o.out, "spans-"+w.Name+".json")); err != nil {
			t.Errorf("traced run of %s wrote no spans: %v", w.Name, err)
		}
	}

	// The driver's line names every BENCHMARK.json metric of its mode.
	for _, rep := range []*report{e2e, layers} {
		buf.Reset()
		if err := rep.driverLine(&buf); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool                       `json:"correct"`
			Attempted int64                      `json:"attempted"`
			Failed    int64                      `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		want := endToEnd[:everywhere]
		if rep.Mode == modePerLayer {
			want = driverPerLayer()
		}
		if len(line.Metrics) != len(want) || line.Attempted < 1 || !line.Correct {
			t.Errorf("%s driver line: %d metrics (want %d), attempted %d, correct %v", rep.Mode, len(line.Metrics), len(want), line.Attempted, line.Correct)
		}
		for _, def := range want {
			if _, ok := line.Metrics[def.Name]; !ok {
				t.Errorf("%s driver line lacks %s", rep.Mode, def.Name)
			}
		}
	}
}

// TestSuiteSpawnsAProcessPerWorkload runs two workloads the way the suite
// does from the command line — each in a process of its own — and checks
// that their tables come back merged in order.
func TestSuiteSpawnsAProcessPerWorkload(t *testing.T) {
	t.Setenv("BENCH_TEST_CHILD", "1")
	o := options{seed: 2, seconds: 3, quick: true, out: t.TempDir()}
	rep, err := suite(o, workloads[:2], true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != 2 || rep.Workloads[0].Name != workloads[0].Name || rep.Workloads[1].Name != workloads[1].Name {
		t.Fatalf("merged report has workloads %+v", rep.Workloads)
	}
	for _, res := range rep.Workloads {
		if v, ok := res.get("ops_per_s"); !ok || v.Value <= 0 || !res.Correct {
			t.Errorf("%s: ops_per_s = %v, correct %v", res.Name, v.Value, res.Correct)
		}
		if _, err := os.Stat(filepath.Join(o.out, "end_to_end."+res.Name+".json")); err != nil {
			t.Errorf("%s: the child left no report: %v", res.Name, err)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := int64(1); i <= 100_000; i++ {
		h.record(i * 100) // 100 ns .. 10 ms, uniform
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100_000*100
		if d := (got - want) / want; d > 0.02 || d < -0.02 {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", q, got, want)
		}
	}
	if got := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7}); got != 1 {
		t.Errorf("iqrFrac(1..7) = %v, want (6-2)/4", got)
	}
}
