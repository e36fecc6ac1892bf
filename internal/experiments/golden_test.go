package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden and quick_metrics.golden from this run")

// TestQuickGolden pins the simulator: every Registry experiment at
// consensusbench's -quick options and the default seed must print
// exactly testdata/quick.golden (what `consensusbench -run <id> -quick`
// prints, minus the wall-clock "[done in ...]" trailer), and return
// exactly the headline metrics in testdata/quick_metrics.golden (what
// -json writes, as sorted "id.key value" lines). A change that is meant
// to leave protocol behaviour alone (a refactor, a data-structure swap)
// passes with both files untouched; a change that moves a message, a
// timer or an ordering shows up as a diff here. Regenerate with
//
//	go test ./internal/experiments -run TestQuickGolden -update
//
// only when the behaviour change is intended, and say so in the commit.
func TestQuickGolden(t *testing.T) {
	opts := Opts{Seed: 1, Quick: true, Duration: 20 * time.Millisecond, Warmup: 5 * time.Millisecond}
	var tables bytes.Buffer
	var lines []string
	for _, e := range Registry {
		fmt.Fprintf(&tables, "== %s\n", e.ID)
		for k, v := range e.Run(&tables, opts) {
			lines = append(lines, fmt.Sprintf("%s.%s %v\n", e.ID, k, v))
		}
		tables.WriteByte('\n')
	}
	sort.Strings(lines)
	checkGolden(t, "quick.golden", tables.Bytes())
	checkGolden(t, "quick_metrics.golden", []byte(strings.Join(lines, "")))
}

// checkGolden compares got with testdata/<name> line by line, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("simulator output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			return
		}
	}
}
