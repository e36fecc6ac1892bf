package obs

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"consensusinside/internal/metrics"
	"consensusinside/internal/trace"
)

// TestMergeEqualsGlobal is the registry's core property: splitting a
// workload's updates across per-client registries and merging their
// snapshots must equal driving the same updates into one global
// registry, whatever order the parts merge in. Counters are exact, and
// so are histograms: a merge adds bucket counts, so the merged summary,
// percentiles included, is the global one. Every value
// arrives the way a deployment's does: a subsystem owns its counters
// and a registered source adds them at capture time — several sources
// adding to one name (one per replica) must sum.
func TestMergeEqualsGlobal(t *testing.T) {
	const parts = 4
	global := NewRegistry()
	shards := make([]*Registry, parts)
	for i := range shards {
		shards[i] = NewRegistry()
	}

	// A deterministic pseudo-workload: counter increments and histogram
	// samples fanned across the shards round-robin. Each shard keeps two
	// "replicas" worth of live counters, collected by two sources.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	names := []string{"ops.put", "ops.get", "wire.frames_out"}
	collect := func(live map[string]int64) func(*Snapshot) {
		return func(s *Snapshot) {
			for name, v := range live {
				s.Add(name, v)
			}
		}
	}
	var shardLive [parts][2]map[string]int64
	globalLive := map[string]int64{}
	global.AddSource(collect(globalLive))
	for i, r := range shards {
		for j := range shardLive[i] {
			shardLive[i][j] = map[string]int64{}
			r.AddSource(collect(shardLive[i][j]))
		}
	}
	for i := 0; i < 4000; i++ {
		name := names[next()%uint64(len(names))]
		d := int64(next()%100) + 1
		shardLive[i%parts][(i/parts)%2][name] += d
		globalLive[name] += d
	}

	// Histogram samples go through sources, the path the KV uses for
	// its per-stage trace histograms.
	var shardHists [parts]metrics.Histogram
	var globalHist metrics.Histogram
	for i := 0; i < 5000; i++ {
		d := time.Duration(next()%1_000_000) * time.Nanosecond
		shardHists[i%parts].Record(d)
		globalHist.Record(d)
	}
	for i := range shards {
		h := &shardHists[i]
		shards[i].AddSource(func(s *Snapshot) { s.AddHist("lat", h) })
	}
	global.AddSource(func(s *Snapshot) { s.AddHist("lat", &globalHist) })

	merged, reversed := NewSnapshot(), NewSnapshot()
	for i := range shards {
		merged.Merge(shards[i].Snapshot())
		reversed.Merge(shards[parts-1-i].Snapshot())
	}
	want := global.Snapshot()

	if len(want.Counters) != len(names) {
		t.Fatalf("global registry reports %d counters, want %d", len(want.Counters), len(names))
	}
	for name, v := range want.Counters {
		if merged.Counters[name] != v || reversed.Counters[name] != v {
			t.Errorf("counter %s: merged %d, merged in reverse %d, global %d",
				name, merged.Counters[name], reversed.Counters[name], v)
		}
	}
	if len(merged.Counters) != len(want.Counters) {
		t.Errorf("counter sets differ: merged %d names, global %d", len(merged.Counters), len(want.Counters))
	}

	mh, rh, gh := merged.Hists["lat"], reversed.Hists["lat"], want.Hists["lat"]
	if mh == nil || rh == nil || gh == nil {
		t.Fatal("lat histogram missing from a snapshot")
	}
	if mh.Count() != gh.Count() {
		t.Errorf("hist count: merged %d, global %d", mh.Count(), gh.Count())
	}
	if mh.Mean() != gh.Mean() {
		t.Errorf("hist mean: merged %v, global %v", mh.Mean(), gh.Mean())
	}
	if mh.Min() != gh.Min() || mh.Max() != gh.Max() {
		t.Errorf("hist extremes: merged [%v,%v], global [%v,%v]", mh.Min(), mh.Max(), gh.Min(), gh.Max())
	}
	if m, r, g := mh.Summarize(), rh.Summarize(), gh.Summarize(); m != g || r != g {
		t.Errorf("hist summary: merged %+v, merged in reverse %+v, global %+v", m, r, g)
	}
}

// TestMergeCommutative: merging A into B and B into A must agree on
// every aggregate, percentiles included — snapshot merge order is
// whatever order shard goroutines happen to report in.
func TestMergeCommutative(t *testing.T) {
	build := func(seed int64, n int) Snapshot {
		s := NewSnapshot()
		h := &metrics.Histogram{}
		for i := 0; i < n; i++ {
			s.Add("c", seed+int64(i))
			h.Record(time.Duration(seed)*time.Millisecond + time.Duration(i))
		}
		s.AddHist("h", h)
		return s
	}
	ab := build(3, 100)
	ab.Merge(build(11, 200))
	ba := build(11, 200)
	ba.Merge(build(3, 100))

	if ab.Counters["c"] != ba.Counters["c"] {
		t.Errorf("counters not commutative: %d vs %d", ab.Counters["c"], ba.Counters["c"])
	}
	x, y := ab.Hists["h"], ba.Hists["h"]
	if x.Summarize() != y.Summarize() {
		t.Errorf("hist summaries not commutative: %+v vs %+v", x.Summarize(), y.Summarize())
	}
}

// TestHistogramMergePercentiles checks percentile sanity under
// merging with a distribution whose quantiles are knowable: two
// disjoint bands, 80% low / 20% high. The estimate must keep p50 in the
// low band, p99 in the high band, stay within [min,max], and stay
// monotone in p.
func TestHistogramMergePercentiles(t *testing.T) {
	low, high := &metrics.Histogram{}, &metrics.Histogram{}
	for i := 0; i < 8000; i++ {
		low.Record(time.Duration(1+i%1000) * time.Microsecond) // 1–1000µs
	}
	for i := 0; i < 2000; i++ {
		high.Record(time.Duration(10_000+i%1000) * time.Microsecond) // 10–11ms
	}

	s := NewSnapshot()
	s.AddHist("lat", low)
	s.AddHist("lat", high)
	h := s.Hists["lat"]

	if h.Count() != 10000 {
		t.Fatalf("count %d, want 10000", h.Count())
	}
	if h.Min() != time.Microsecond || h.Max() != 10_999*time.Microsecond {
		t.Fatalf("extremes [%v,%v]", h.Min(), h.Max())
	}
	p50, p90, p99 := h.Percentile(50), h.Percentile(90), h.Percentile(99)
	if p50 < h.Min() || p99 > h.Max() {
		t.Errorf("percentiles escape [min,max]: p50=%v p99=%v", p50, p99)
	}
	if !(p50 <= p90 && p90 <= p99) {
		t.Errorf("percentiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	if p50 > 1000*time.Microsecond {
		t.Errorf("p50 %v landed in the high band (80%% of mass is ≤1000µs)", p50)
	}
	if p99 < 10_000*time.Microsecond {
		t.Errorf("p99 %v landed in the low band (top 20%% of mass is ≥10ms)", p99)
	}
	// AddHist must not have mutated the contributing histograms.
	if low.Count() != 8000 || high.Count() != 2000 {
		t.Errorf("contributors mutated: low=%d high=%d", low.Count(), high.Count())
	}
}

// TestFlattenShape pins the uniform -json contract: counters keep
// their names, each histogram contributes .count and microsecond
// summary fields, and Names lists the union sorted.
func TestFlattenShape(t *testing.T) {
	s := NewSnapshot()
	s.Add("ops", 42)
	s.Add("depth", 3)
	h := &metrics.Histogram{}
	h.Record(2 * time.Millisecond)
	s.AddHist("lat", h)

	flat := s.Flatten()
	if flat["ops"] != 42 || flat["depth"] != 3 {
		t.Errorf("scalar fields: ops=%v depth=%v", flat["ops"], flat["depth"])
	}
	if flat["lat.count"] != 1 || flat["lat.p50_us"] != 2000 {
		t.Errorf("hist fields: count=%v p50_us=%v", flat["lat.count"], flat["lat.p50_us"])
	}
	want := []string{"depth", "lat", "ops"}
	got := s.Names()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

// TestEventLogRing pins the ring semantics the fuzz dump and /debug
// tail rely on: bounded retention, newest-last order, total counts
// overwritten emissions, and the nil log swallows silently.
func TestEventLogRing(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Emitf(time.Duration(i), 1, "k", "e%d", i)
	}
	if l.Total() != 10 {
		t.Errorf("total %d, want 10", l.Total())
	}
	tail := l.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("ring holds %d, want 4", len(tail))
	}
	for i, e := range tail {
		if want := fmt.Sprintf("e%d", 6+i); e.Detail != want {
			t.Errorf("tail[%d] = %s, want %s (oldest first)", i, e.Detail, want)
		}
	}
	if got := l.Tail(2); len(got) != 2 || got[1].Detail != "e9" {
		t.Errorf("Tail(2) = %v", got)
	}

	var nilLog *EventLog
	nilLog.Emit(0, 0, "k", "d") // must not panic
	if nilLog.Total() != 0 || nilLog.Tail(0) != nil {
		t.Error("nil log should swallow and report empty")
	}
}

// TestSnapshotMarshals: the snapshot must serialize (the /debug and
// -json surfaces) without tripping over the histograms' buckets.
func TestSnapshotMarshals(t *testing.T) {
	s := NewSnapshot()
	s.Add("ops", 1)
	h := &metrics.Histogram{}
	h.Record(time.Millisecond)
	s.AddHist("lat", h)
	s.Events = append(s.Events, Event{Virtual: 5, Node: 2, Kind: "fault", Detail: "crash 1"})

	out, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back map[string]any
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if _, ok := back["counters"]; !ok {
		t.Error("counters missing from JSON")
	}
}

// TestAddTracerCopies: AddTracer reports the tracer's span counts and
// histograms, and the snapshot keeps copies — a span the tracer finishes
// later does not reach a snapshot already taken.
func TestAddTracerCopies(t *testing.T) {
	tr := trace.New(1, trace.VirtualClock())
	tr.Begin(1, 1, 0, 1, 10)
	tr.Finish(1, 1, 40)
	s := NewSnapshot()
	s.AddTracer(tr)
	tr.Begin(1, 2, 0, 1, 10)
	tr.Finish(1, 2, 90)

	if s.Counters["trace.started"] != 1 || s.Counters["trace.finished"] != 1 {
		t.Errorf("span counts %v, want 1 started and 1 finished", s.Counters)
	}
	if h := s.Hists["trace.total"]; h == nil || h.Count() != 1 || h.Max() != 40 {
		t.Errorf("trace.total = %+v, want the one span of 40ns", h)
	}
	if h := s.Hists["trace.stage.reply"]; h == nil || h.Count() != 1 || h.Max() != 30 {
		t.Errorf("trace.stage.reply = %+v, want the one delta of 30ns", h)
	}
}
