package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// goldenRuns are the fifteen deterministic simulator experiments, in
// the order consensusbench lists them. Each prints what its
// `consensusbench -run <id> -quick` invocation prints (minus the
// wall-clock "[done in ...]" trailer).
var goldenRuns = []struct {
	id  string
	run func(w io.Writer, opts Opts)
}{
	{"netchar", func(w io.Writer, o Opts) { PrintNetCharacteristics(w, NetCharacteristics(o)) }},
	{"fig2", func(w io.Writer, o Opts) { PrintFig2(w, Fig2(o, nil)) }},
	{"sec2.2", func(w io.Writer, o Opts) { printSlowCoreRun(w, "Section 2.2 — 2PC, slow coordinator", Sec22(o)) }},
	{"latency", func(w io.Writer, o Opts) { PrintLatency(w, Latency(o)) }},
	{"fig8", func(w io.Writer, o Opts) { PrintFig8(w, Fig8(o, nil)) }},
	{"fig9", func(w io.Writer, o Opts) { PrintFig9(w, Fig9(o, nil)) }},
	{"fig10", func(w io.Writer, o Opts) { PrintFig10(w, Fig10(o)) }},
	{"fig11", func(w io.Writer, o Opts) { printSlowCoreRun(w, "Figure 11 — 1Paxos, slow leader", Fig11(o)) }},
	{"acceptor-switch", func(w io.Writer, o Opts) {
		printSlowCoreRun(w, "Acceptor switch — 1Paxos, crashed active acceptor", AcceptorSwitch(o))
	}},
	{"lan", func(w io.Writer, o Opts) { PrintLANComparison(w, LANComparison(o)) }},
	{"ablation-batching", func(w io.Writer, o Opts) {
		PrintAblation(w, "Ablation — 1Paxos-Joint learn batching, 47 replicas", AblationLearnBatching(o))
	}},
	{"ablation-pipelining", func(w io.Writer, o Opts) {
		PrintAblation(w, "Ablation — client pipelining, 1 client, 3 replicas", AblationPipelining(o))
	}},
	{"ablation-cmdbatch", func(w io.Writer, o Opts) {
		PrintAblation(w, "Ablation — command batching, window 16, 1 client, 3 replicas", AblationCommandBatching(o))
	}},
	{"shard-sim", func(w io.Writer, o Opts) { PrintShardScaling(w, ShardScaling(o, nil)) }},
	{"mencius", func(w io.Writer, o Opts) {
		funnel, spread := MenciusLoadSpread(o)
		fmt.Fprintf(w, "Mencius, 3 replicas, offered 100k op/s\n")
		fmt.Fprintf(w, "%-28s %12.0f/s\n", "all traffic at one leader", funnel)
		fmt.Fprintf(w, "%-28s %12.0f/s\n", "spread across all leaders", spread)
		if funnel > 0 {
			fmt.Fprintf(w, "load-spreading gain: %.2fx\n", spread/funnel)
		}
	}},
}

func printSlowCoreRun(w io.Writer, title string, r SlowCoreResult) {
	PrintSlowCore(w, title, r)
	rec := Recovery(r)
	fmt.Fprintf(w, "steady %.0f op/s | stalled %d buckets (%v) | recovered %.0f op/s\n",
		rec.BeforeRate, rec.StallBuckets, time.Duration(rec.StallBuckets)*r.BucketWidth, rec.RecoveredRate)
}

// TestQuickGolden pins the simulator: the deterministic experiments at
// consensusbench's -quick options and the default seed must print
// exactly testdata/quick.golden. A change that is meant to leave
// protocol behaviour alone (a refactor, a data-structure swap) passes
// with the file untouched; a change that moves a message, a timer or an
// ordering shows up as a diff here. Regenerate with
//
//	go test ./internal/experiments -run TestQuickGolden -update
//
// only when the behaviour change is intended, and say so in the commit.
func TestQuickGolden(t *testing.T) {
	opts := Opts{Seed: 1, Quick: true, Duration: 20 * time.Millisecond, Warmup: 5 * time.Millisecond}
	var buf bytes.Buffer
	for _, g := range goldenRuns {
		fmt.Fprintf(&buf, "== %s\n", g.id)
		g.run(&buf, opts)
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
