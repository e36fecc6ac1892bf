package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// TestQuickGolden pins the simulator: every Registry experiment at
// consensusbench's -quick options and the default seed must print
// exactly testdata/quick.golden (what `consensusbench -run <id> -quick`
// prints, minus the wall-clock "[done in ...]" trailer). A change that
// is meant to leave protocol behaviour alone (a refactor, a
// data-structure swap) passes with the file untouched; a change that
// moves a message, a timer or an ordering shows up as a diff here.
// Regenerate with
//
//	go test ./internal/experiments -run TestQuickGolden -update
//
// only when the behaviour change is intended, and say so in the commit.
func TestQuickGolden(t *testing.T) {
	opts := Opts{Seed: 1, Quick: true, Duration: 20 * time.Millisecond, Warmup: 5 * time.Millisecond}
	var buf bytes.Buffer
	for _, e := range Registry {
		fmt.Fprintf(&buf, "== %s\n", e.ID)
		e.Run(&buf, opts)
		buf.WriteByte('\n')
	}
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("simulator output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
