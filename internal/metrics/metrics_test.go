package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// within reports whether got is within one bucket width of want — the
// histogram's stated percentile error.
func within(got, want time.Duration) bool {
	_, width := bucketBounds(bucketOf(int64(want)))
	return math.Abs(float64(got-want)) <= width
}

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
	if got := h.Percentile(50); !within(got, 20*time.Microsecond) {
		t.Errorf("p50 = %v, want 20µs within a bucket", got)
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
		if got := h.Percentile(tc.p); !within(got, tc.want) {
			t.Errorf("Percentile(%v) = %v, want %v within a bucket", tc.p, got, tc.want)
		}
	}
}

// TestHistogramPercentileMonotonic: percentiles never leave [Min, Max]
// and never fall as p rises.
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
		return h.Min() <= h.Percentile(pa) && h.Percentile(pa) <= h.Percentile(pb) && h.Percentile(pb) <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramRecordAfterPercentile(t *testing.T) {
	// Recording after a percentile query must still count.
	var h Histogram
	h.Record(5)
	h.Record(1)
	if got := h.Percentile(50); !within(got, 1) {
		t.Fatalf("median of {1,5} = %v, want 1 within a bucket", got)
	}
	h.Record(0)
	if got := h.Percentile(1); got != 0 {
		t.Fatalf("p1 after late insert = %v, want 0", got)
	}
}

func TestHistogramAtVolume(t *testing.T) {
	// A million records drawn uniformly from [1µs, 1000µs]. The true
	// p50 and p99 sit at ~500µs and ~990µs, and both estimates must hold
	// within a few percent at every checkpoint; the scalar statistics
	// stay exact at any volume.
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

// TestHistogramRelativeError holds p50, p90 and p99 within 1/32 of the
// nearest-rank sample, on values spread log-uniformly from 1 ns to 60 s
// and on narrow bands at several scales.
func TestHistogramRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	spans := [][2]float64{{1, 60e9}, {100, 300}, {10e3, 30e3}, {1e6, 3e6}, {100e6, 300e6}, {20e9, 60e9}}
	for _, span := range spans {
		var h Histogram
		xs := make([]time.Duration, 100_000)
		for i := range xs {
			xs[i] = time.Duration(span[0] * math.Pow(span[1]/span[0], rng.Float64()))
			h.Record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, p := range []float64{50, 90, 99} {
			want := xs[int(math.Ceil(p/100*float64(len(xs))))-1]
			got := h.Percentile(p)
			if err := math.Abs(float64(got-want)) / float64(want); err > 1.0/32 {
				t.Errorf("values in [%v, %v]: p%v = %v, nearest rank %v, relative error %.4f > 1/32",
					time.Duration(span[0]), time.Duration(span[1]), p, got, want, err)
			}
		}
	}
}

// TestMergeOrderIndependent: merging adds bucket counts, so both orders
// give one histogram. A million samples of 1 ms and 8 192 of 100 ms put
// p90 and p99 at 1 ms; a merge that lets the smaller side's samples
// stand for the larger side's reported 100 ms in one order.
func TestMergeOrderIndependent(t *testing.T) {
	build := func(d time.Duration, n int) *Histogram {
		h := &Histogram{}
		for i := 0; i < n; i++ {
			h.Record(d)
		}
		return h
	}
	bigSmall := build(time.Millisecond, 1_000_000)
	bigSmall.Merge(build(100*time.Millisecond, 8192))
	smallBig := build(100*time.Millisecond, 8192)
	smallBig.Merge(build(time.Millisecond, 1_000_000))
	for _, h := range []*Histogram{bigSmall, smallBig} {
		for _, p := range []float64{90, 99} {
			if got := h.Percentile(p); !within(got, time.Millisecond) {
				t.Errorf("p%v = %v, want 1ms within a bucket", p, got)
			}
		}
	}
	if a, b := bigSmall.Summarize(), smallBig.Summarize(); a != b {
		t.Errorf("merge order changes the summary: %+v vs %+v", a, b)
	}
}

// TestRecordAllocatesNothing: the bucket array is allocated by the
// first Record, and no later one allocates.
func TestRecordAllocatesNothing(t *testing.T) {
	var h Histogram
	h.Record(1)
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(time.Millisecond) }); allocs != 0 {
		t.Errorf("Record allocates %.0f times after the first call", allocs)
	}
}

func TestHistogramMergeAndClone(t *testing.T) {
	var a, b Histogram
	a.Record(10)
	b.Record(20)
	b.Record(30)
	c := a.Clone()
	a.Merge(&b)
	if a.Count() != 3 || a.Min() != 10 || a.Max() != 30 || a.Mean() != 20 {
		t.Fatalf("after merge: %+v, want count 3, min 10, max 30, mean 20", a.Summarize())
	}
	if c.Count() != 1 || c.Max() != 10 || c.Percentile(100) != 10 {
		t.Fatalf("a clone shares its original's state: %+v", c.Summarize())
	}
	var empty Histogram
	empty.Merge(&a)
	if empty.Summarize() != a.Summarize() {
		t.Fatalf("merge into an empty histogram: %+v, want %+v", empty.Summarize(), a.Summarize())
	}
}

func TestSummary(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Summarize()
	if s.Count != 10 || s.Mean != 5500*time.Nanosecond || s.Min != time.Microsecond || s.Max != 10*time.Microsecond {
		t.Fatalf("unexpected summary %+v", s)
	}
	if !within(s.P50, 5*time.Microsecond) || !within(s.P90, 9*time.Microsecond) || !within(s.P99, 10*time.Microsecond) {
		t.Fatalf("summary percentiles %+v, want 5, 9 and 10µs within a bucket", s)
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
