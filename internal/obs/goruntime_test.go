package obs

import (
	"math"
	"runtime/metrics"
	"testing"
)

// TestGoRuntimeNames pins the three process-wide names and the
// percentile rule they are read with.
func TestGoRuntimeNames(t *testing.T) {
	s := NewSnapshot()
	AddGoRuntime(&s)
	for _, name := range []string{"go.sched_p99_us", "go.gc_pause_p99_us", "go.mutex_wait_ns"} {
		if v, ok := s.Counters[name]; !ok || v < 0 {
			t.Errorf("%s = %d (present %v), want >= 0", name, v, ok)
		}
	}

	inf := math.Inf(1)
	for _, tc := range []struct {
		buckets []float64
		counts  []uint64
		want    float64
	}{
		{[]float64{0, 1, 2, 3}, []uint64{0, 0, 0}, 0},
		{[]float64{0, 1, 2, 3}, []uint64{98, 1, 1}, 2},   // rank 99 is the 99th value
		{[]float64{0, 1, 2, 3}, []uint64{99, 0, 1}, 1},   // 99 of 100 at or below 1
		{[]float64{0, 1, 2, inf}, []uint64{0, 1, 99}, 2}, // open top bucket: its lower bound
		{[]float64{0, 1, 2, 3}, []uint64{1, 0, 0}, 1},
	} {
		if got := p99(&metrics.Float64Histogram{Buckets: tc.buckets, Counts: tc.counts}); got != tc.want {
			t.Errorf("p99(%v over %v) = %v, want %v", tc.counts, tc.buckets, got, tc.want)
		}
	}
}
