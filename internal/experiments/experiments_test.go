package experiments

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// quick returns opts small enough for CI while keeping steady state.
func quick() Opts {
	return Opts{Seed: 1, Duration: 15 * time.Millisecond, Warmup: 5 * time.Millisecond}
}

// measure runs Registry's experiment id — over only the cells whose X is
// in keepX when a test wants a shorter sweep — and returns what it
// measured and the headline metrics, checking that the table renders.
func measure(t *testing.T, id string, opts Opts, keepX ...int) (result, map[string]float64) {
	t.Helper()
	i := slices.IndexFunc(Registry, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		t.Fatalf("no experiment %q in Registry", id)
	}
	e := Registry[i]
	var cells []Cell
	if e.Cells != nil {
		cells = e.Cells()
	}
	if len(keepX) > 0 {
		cells = slices.DeleteFunc(cells, func(c Cell) bool { return !slices.Contains(keepX, c.X) })
	}
	res := e.measure(opts, cells)
	var buf bytes.Buffer
	m := e.report(&buf, res)
	if buf.Len() == 0 {
		t.Error("print produced nothing")
	}
	return res, m
}

// throughputs lists the throughput of every row labelled label, in
// sweep order.
func throughputs(rows []Row, label string) []float64 {
	var out []float64
	for _, r := range rows {
		if r.Label == label {
			out = append(out, r.Throughput)
		}
	}
	return out
}

func TestNetCharacteristicsShape(t *testing.T) {
	res, _ := measure(t, "netchar", quick())
	rows := res.Rows
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	mc, lan := rows[0], rows[1]
	// The paper's headline: trans/prop ≈ 1 inside the machine, ≈ 0.015
	// in a LAN — two orders of magnitude apart.
	if mc.Ratio < 0.5 || mc.Ratio > 2 {
		t.Errorf("many-core ratio = %.3f, want ~1", mc.Ratio)
	}
	if lan.Ratio > 0.05 {
		t.Errorf("LAN ratio = %.3f, want ~0.015", lan.Ratio)
	}
	if mc.Ratio/lan.Ratio < 20 {
		t.Errorf("ratio gap = %.1fx, want orders of magnitude", mc.Ratio/lan.Ratio)
	}
}

func TestLatencyOrdering(t *testing.T) {
	res, _ := measure(t, "latency", quick())
	byName := map[string]time.Duration{}
	for _, r := range res.Rows {
		byName[r.Label] = r.Latency
	}
	if !(byName["1Paxos"] < byName["Multi-Paxos"] && byName["Multi-Paxos"] < byName["2PC"]) {
		t.Fatalf("latency ordering broken: %v", byName)
	}
}

func TestFig8Shape(t *testing.T) {
	_, m := measure(t, "fig8", quick(), 1, 3, 13)
	onePeak := m["1Paxos_peak_ops"]
	mpPeak := m["Multi-Paxos_peak_ops"]
	tpcPeak := m["2PC_peak_ops"]
	if !(onePeak > mpPeak && mpPeak > tpcPeak) {
		t.Fatalf("peak ordering broken: 1P=%.0f MP=%.0f 2PC=%.0f", onePeak, mpPeak, tpcPeak)
	}
	// The paper's factor: baselines around half of 1Paxos.
	if ratio := mpPeak / onePeak; ratio < 0.4 || ratio > 0.8 {
		t.Errorf("MP/1P = %.2f, want roughly one half", ratio)
	}
}

func TestFig2Shape(t *testing.T) {
	res, _ := measure(t, "fig2", quick(), 1, 3, 20)
	mc := throughputs(res.Rows, "Multi-Paxos Multicore")
	lan := throughputs(res.Rows, "Multi-Paxos LAN")
	// Many-core saturates after ~3 clients; the LAN keeps scaling.
	if mc[2] > mc[1]*1.2 {
		t.Errorf("many-core should be flat after 3 clients: %v -> %v", mc[1], mc[2])
	}
	if lan[2] < lan[1]*2 {
		t.Errorf("LAN should keep scaling: %v -> %v", lan[1], lan[2])
	}
}

func TestFig9Shape(t *testing.T) {
	opts := Opts{Seed: 1, Duration: 40 * time.Millisecond, Warmup: 10 * time.Millisecond}
	res, _ := measure(t, "fig9", opts, 3, 20, 47)
	one := throughputs(res.Rows, "1Paxos-Joint")
	mp := throughputs(res.Rows, "Multi-Paxos-Joint")
	// 1Paxos-Joint grows all the way to 47 replicas.
	if !(one[2] > one[1] && one[1] > one[0]) {
		t.Fatalf("1Paxos-Joint must scale: %v", one)
	}
	// The baselines fall away from 1Paxos at 47 nodes (paper: they peak
	// around 20 and then decline).
	if mp[2] > one[2]/2 {
		t.Errorf("Multi-Paxos-Joint at 47 nodes = %.0f, want well below 1Paxos %.0f", mp[2], one[2])
	}
}

func TestFig10Shape(t *testing.T) {
	res, _ := measure(t, "fig10", quick())
	get := func(label string, clients int) float64 {
		for _, r := range res.Rows {
			if r.Label == label && r.X == clients {
				return r.Throughput
			}
		}
		t.Fatalf("row %q/%d missing", label, clients)
		return 0
	}
	// Reads help 2PC-Joint monotonically.
	if !(get("2PC-Joint - 75% read", 3) > get("2PC-Joint - 10% read", 3) &&
		get("2PC-Joint - 10% read", 3) > get("2PC-Joint - 0% read", 3)) {
		t.Error("read fraction must help 2PC-Joint at 3 clients")
	}
	// At 5 clients 1Paxos beats even 75% reads (the paper's punchline).
	if get("1Paxos - 0% read", 5) <= get("2PC-Joint - 75% read", 5) {
		t.Error("1Paxos must win at 5 clients despite 0% reads")
	}
}

func TestFig11Recovery(t *testing.T) {
	opts := Opts{Seed: 1, Duration: 200 * time.Millisecond}
	res, _ := measure(t, "fig11", opts)
	rec := Recovery(res.Series)
	if rec.BeforeRate == 0 {
		t.Fatal("no steady-state throughput")
	}
	if rec.StallBuckets == 0 {
		t.Error("the leader change must produce a visible stall")
	}
	if rec.RecoveredRate < rec.BeforeRate*0.9 {
		t.Errorf("throughput must recover to the pre-fault level: %.0f vs %.0f",
			rec.RecoveredRate, rec.BeforeRate)
	}
}

func TestSec22Collapse(t *testing.T) {
	opts := Opts{Seed: 1, Duration: 200 * time.Millisecond}
	res, _ := measure(t, "sec2.2", opts)
	rec := Recovery(res.Series)
	if rec.BeforeRate == 0 {
		t.Fatal("no steady-state throughput")
	}
	if rec.RecoveredRate > rec.BeforeRate/10 {
		t.Errorf("2PC must collapse for good: before %.0f, after %.0f",
			rec.BeforeRate, rec.RecoveredRate)
	}
}

func TestAcceptorSwitchRecovery(t *testing.T) {
	opts := Opts{Seed: 1, Duration: 200 * time.Millisecond}
	res, _ := measure(t, "acceptor-switch", opts)
	rec := Recovery(res.Series)
	if rec.RecoveredRate < rec.BeforeRate*0.9 {
		t.Errorf("acceptor switch must restore throughput: %.0f vs %.0f",
			rec.RecoveredRate, rec.BeforeRate)
	}
}

func TestMenciusLoadSpread(t *testing.T) {
	res, _ := measure(t, "mencius", Opts{Seed: 1, Duration: 30 * time.Millisecond})
	funnel, spread := res.Rows[0].Throughput, res.Rows[1].Throughput
	if spread < funnel {
		t.Errorf("spreading load across leaders must not hurt: funnel %.0f spread %.0f", funnel, spread)
	}
}

func TestAblationPipeliningGain(t *testing.T) {
	res, _ := measure(t, "ablation-pipelining", Opts{Seed: 1})
	rows := res.Rows
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	closed, window := rows[0], rows[1]
	if closed.Throughput <= 0 {
		t.Fatal("closed loop produced no throughput")
	}
	if window.Throughput < closed.Throughput*1.5 {
		t.Errorf("window-8 pipeline must clearly beat the closed loop: %.0f vs %.0f op/s",
			window.Throughput, closed.Throughput)
	}
}

func TestMeanRate(t *testing.T) {
	buckets := []int{10, 20, 30}
	if got := MeanRate(buckets, 10*time.Millisecond, 0, 3); got != 2000 {
		t.Errorf("MeanRate = %v, want 2000/s", got)
	}
	if got := MeanRate(buckets, 10*time.Millisecond, 2, 99); got != 3000 {
		t.Errorf("clamped MeanRate = %v, want 3000/s", got)
	}
	if got := MeanRate(buckets, 10*time.Millisecond, 3, 3); got != 0 {
		t.Errorf("empty MeanRate = %v, want 0", got)
	}
}

func TestShardScalingShape(t *testing.T) {
	res, _ := measure(t, "shard-sim", quick())
	rows := res.Rows
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	// Splitting the same 12 replica cores into more groups must grow
	// aggregate throughput monotonically, and clearly at 4 groups.
	tp := []float64{rows[0].Throughput, rows[1].Throughput, rows[2].Throughput}
	if !(tp[2] > tp[1] && tp[1] > tp[0]) {
		t.Fatalf("shard scaling not monotone: %v", tp)
	}
	if tp[2] < 1.5*tp[0] {
		t.Errorf("4 groups = %.0f, want >= 1.5x one group's %.0f", tp[2], tp[0])
	}
	// Every group must have done real work (the keyspace is partitioned).
	for _, r := range rows {
		if len(r.GroupOps) != r.X {
			t.Fatalf("row %q reports %d groups", r.Label, len(r.GroupOps))
		}
		for g, ops := range r.GroupOps {
			if ops == 0 {
				t.Errorf("%d-shard run: group %d applied nothing", r.X, g)
			}
		}
	}
}
