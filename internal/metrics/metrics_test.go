package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatalf("zero histogram should report zeros, got count=%d mean=%v p50=%v", h.Count(), h.Mean(), h.Percentile(50))
	}
	for _, d := range []time.Duration{30, 10, 20} {
		h.Record(d * time.Microsecond)
	}
	if got := h.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := h.Mean(); got != 20*time.Microsecond {
		t.Errorf("Mean = %v, want 20µs", got)
	}
	if got := h.Min(); got != 10*time.Microsecond {
		t.Errorf("Min = %v, want 10µs", got)
	}
	if got := h.Max(); got != 30*time.Microsecond {
		t.Errorf("Max = %v, want 30µs", got)
	}
	if got := h.Median(); got != 20*time.Microsecond {
		t.Errorf("Median = %v, want 20µs", got)
	}
}

func TestHistogramPercentileNearestRank(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i))
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{1, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100}, {0, 1},
	}
	for _, tc := range tests {
		if got := h.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	f := func(raw []uint16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, r := range raw {
			h.Record(time.Duration(r))
		}
		pa := float64(a % 101)
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return h.Percentile(pa) <= h.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramRecordAfterPercentile(t *testing.T) {
	// Recording after a percentile query must re-sort correctly.
	var h Histogram
	h.Record(5)
	h.Record(1)
	if got := h.Median(); got != 1 {
		t.Fatalf("median of {1,5} = %v, want 1", got)
	}
	h.Record(0)
	if got := h.Percentile(1); got != 0 {
		t.Fatalf("p1 after late insert = %v, want 0", got)
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	var a, b Histogram
	a.Record(10)
	b.Record(20)
	b.Record(30)
	a.Merge(&b)
	if a.Count() != 3 || a.Max() != 30 {
		t.Fatalf("after merge: count=%d max=%v, want 3/30", a.Count(), a.Max())
	}
	a.Reset()
	if a.Count() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatalf("after reset: %+v", a.Summarize())
	}
}

func TestHistogramReservoirStability(t *testing.T) {
	// A million records drawn uniformly from [1µs, 1000µs]. The true
	// p50 and p99 sit at ~500µs and ~990µs; the reservoir's kept set is
	// a uniform sample of HistogramCap durations, so both estimates
	// must hold within a few percent at every checkpoint — and the
	// histogram's memory must stop growing at the cap.
	var h Histogram
	rng := rand.New(rand.NewSource(42))
	const n = 1_000_000
	var sum time.Duration
	for i := 1; i <= n; i++ {
		d := time.Duration(rng.Intn(1000)+1) * time.Microsecond
		h.Record(d)
		sum += d
		if i%100_000 != 0 {
			continue
		}
		const tol = 30 * time.Microsecond // 3% of the value range
		if p50 := h.Percentile(50); p50 < 500*time.Microsecond-tol || p50 > 500*time.Microsecond+tol {
			t.Fatalf("after %d records: p50 = %v, want 500µs ± %v", i, p50, tol)
		}
		if p99 := h.Percentile(99); p99 < 990*time.Microsecond-tol || p99 > 990*time.Microsecond+tol {
			t.Fatalf("after %d records: p99 = %v, want 990µs ± %v", i, p99, tol)
		}
	}
	if got := len(h.samples); got != HistogramCap {
		t.Errorf("kept samples = %d, want exactly the cap %d", got, HistogramCap)
	}
	if got := cap(h.samples); got > 2*HistogramCap {
		t.Errorf("sample capacity = %d — the reservoir should stop growing at the cap", got)
	}
	// The scalar statistics stay exact at any volume.
	if h.Count() != n {
		t.Errorf("Count = %d, want %d", h.Count(), n)
	}
	if got := h.Mean(); got != sum/n {
		t.Errorf("Mean = %v, want exact %v", got, sum/n)
	}
	if h.Min() != 1*time.Microsecond || h.Max() != 1000*time.Microsecond {
		t.Errorf("Min/Max = %v/%v, want exact 1µs/1000µs", h.Min(), h.Max())
	}
}

func TestHistogramReservoirDeterministic(t *testing.T) {
	// Identical record sequences must keep identical reservoirs — the
	// generator is self-seeded, never wall-clock-seeded.
	run := func() Summary {
		var h Histogram
		for i := 0; i < 3*HistogramCap; i++ {
			h.Record(time.Duration(i%997) * time.Microsecond)
		}
		return h.Summarize()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs disagree: %v vs %v", a, b)
	}
}

func TestSummary(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Summarize()
	if s.Count != 10 || s.Median != 5*time.Microsecond || s.P95 != 10*time.Microsecond {
		t.Fatalf("unexpected summary %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String should render")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Errorf("Throughput = %v, want 1000", got)
	}
	if got := Throughput(500, 500*time.Millisecond); got != 1000 {
		t.Errorf("Throughput = %v, want 1000", got)
	}
	if got := Throughput(10, 0); got != 0 {
		t.Errorf("Throughput over zero time = %v, want 0", got)
	}
}

func TestHistogramLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	for i := 0; i < 10000; i++ {
		h.Record(time.Duration(rng.Intn(1_000_000)))
	}
	if h.Percentile(50) > h.Percentile(99) {
		t.Fatal("p50 > p99")
	}
	if h.Min() > h.Percentile(1) || h.Percentile(99) > h.Max() {
		t.Fatal("percentiles outside [min,max]")
	}
}

func TestBatchOccupancy(t *testing.T) {
	var b BatchOccupancy
	if b.Batches() != 0 || b.Commands() != 0 || b.Mean() != 0 {
		t.Fatal("zero occupancy must report zeros")
	}
	b.Record(0) // nonsense sample: ignored
	for _, n := range []int{1, 1, 2, 4, 8, 8, 33} {
		b.Record(n)
	}
	if b.Batches() != 7 || b.Commands() != 57 {
		t.Fatalf("batches=%d commands=%d, want 7/57", b.Batches(), b.Commands())
	}
	if got := b.Mean(); got < 8.1 || got > 8.2 {
		t.Fatalf("Mean = %v, want 57/7", got)
	}
	labels := b.BucketLabels()
	want := map[string]int64{"<=1": 2, "<=2": 1, "<=4": 1, "<=8": 2, "<=16": 0, "<=32": 0, ">32": 1}
	for i, label := range labels {
		if b.Bucket(i) != want[label] {
			t.Errorf("bucket %s = %d, want %d", label, b.Bucket(i), want[label])
		}
	}

	var sum BatchOccupancy
	sum.Record(16)
	sum.Merge(&b)
	if sum.Batches() != 8 || sum.Commands() != 73 {
		t.Fatalf("merged batches=%d commands=%d", sum.Batches(), sum.Commands())
	}
	if sum.Bucket(4) != 1 { // the 16 landed in <=16
		t.Fatalf("merged <=16 bucket = %d", sum.Bucket(4))
	}
}
