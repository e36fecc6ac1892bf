package obs

import (
	"math"
	"runtime/metrics"
)

// AddGoRuntime contributes three process-wide values read from the Go
// runtime (runtime/metrics), cumulative since the process started:
// go.sched_p99_us, the 99th percentile of the time goroutines spent
// runnable before running; go.gc_pause_p99_us, the 99th percentile of
// the stop-the-world pauses of the collector; and go.mutex_wait_ns, the
// total time goroutines spent blocked on a sync.Mutex, an RWMutex or a
// lock inside the runtime, such as the scheduler's. They are the host
// terms of a latency tail: scheduler, collector, lock. A deployment
// registers it once; the names do not sum (see the package comment).
func AddGoRuntime(s *Snapshot) {
	samples := []metrics.Sample{
		{Name: "/sched/latencies:seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sync/mutex/wait/total:seconds"},
	}
	metrics.Read(samples)
	for i, name := range []string{"go.sched_p99_us", "go.gc_pause_p99_us"} {
		if v := samples[i].Value; v.Kind() == metrics.KindFloat64Histogram {
			s.Add(name, secondsToInt(p99(v.Float64Histogram()), 1e6))
		}
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64 {
		s.Add("go.mutex_wait_ns", secondsToInt(v.Float64(), 1e9))
	}
}

// p99 reports the upper bound of the bucket that holds h's 99th
// percentile (its lower bound for the open top bucket), 0 for an empty
// histogram.
func p99(h *metrics.Float64Histogram) float64 {
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100 // ⌈0.99·total⌉
	var seen uint64
	for i, n := range h.Counts {
		if seen += n; seen >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return 0
}

func secondsToInt(sec, unit float64) int64 { return int64(math.Round(sec * unit)) }
