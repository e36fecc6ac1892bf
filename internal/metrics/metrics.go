// Package metrics provides the measurement primitives: latency
// histograms with percentile queries and the commands-per-batch
// occupancy counts. It holds shapes, not subsystem
// counters: each subsystem keeps its own counters struct and reports
// it by name through internal/obs.
//
// All types in this package are safe for single-goroutine use; the
// discrete-event simulator is single-threaded, and the real runtime
// aggregates per-client instances, so no locking is required on the hot
// path. A type shared across goroutines is guarded by its owner —
// except BatchOccupancy, which one goroutine records and any may read.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// HistogramCap bounds how many samples a Histogram keeps. Up to the cap
// every sample is retained and percentiles are exact; past it the
// histogram switches to reservoir sampling (Algorithm R): each new
// sample replaces a uniformly-chosen kept one with probability cap/n,
// so the kept set stays a uniform sample of everything recorded and
// percentile queries become unbiased estimates whose error shrinks with
// the cap, not with the record count. Count, Mean, Min and Max stay
// exact at any volume. The cap keeps a week-long run's histogram at a
// fixed 64 KiB instead of growing (and GC-scanning) one append per op —
// allocation on the measurement path skews the latencies it measures.
const HistogramCap = 1 << 13 // 8192 samples, 64 KiB of durations

// Histogram records duration samples and answers percentile queries.
// The zero value is ready to use.
type Histogram struct {
	samples []time.Duration
	sorted  bool
	n       int64         // total recorded, exact
	sum     time.Duration // exact
	min     time.Duration // exact
	max     time.Duration // exact
	rng     uint64        // xorshift64* state for the reservoir, lazily seeded
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if h.n == 0 || d > h.max {
		h.max = d
	}
	h.n++
	h.sum += d
	if len(h.samples) < HistogramCap {
		h.samples = append(h.samples, d)
		h.sorted = false
		return
	}
	if j := h.randN(h.n); j < HistogramCap {
		h.samples[j] = d
		h.sorted = false
	}
}

// randN draws a deterministic pseudo-random integer in [0, n). The
// generator is self-seeded with a fixed constant so identical record
// sequences keep identical reservoirs — runs reproduce exactly.
func (h *Histogram) randN(n int64) int64 {
	if h.rng == 0 {
		h.rng = 0x9E3779B97F4A7C15
	}
	h.rng ^= h.rng >> 12
	h.rng ^= h.rng << 25
	h.rng ^= h.rng >> 27
	return int64((h.rng * 2685821657736338717) % uint64(n))
}

// Count reports the number of recorded samples (all of them, not just
// the reservoir's kept subset).
func (h *Histogram) Count() int { return int(h.n) }

// Mean reports the arithmetic mean of the samples, or 0 with no
// samples. The mean is exact regardless of reservoir truncation.
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Histogram) Min() time.Duration { return h.min }

// Max reports the largest sample, or 0 with no samples.
func (h *Histogram) Max() time.Duration { return h.max }

// Percentile reports the p-th percentile (0 < p <= 100) using
// nearest-rank on the sorted kept samples — exact below HistogramCap,
// a uniform-reservoir estimate above it. It reports 0 with no samples.
func (h *Histogram) Percentile(p float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(h.samples) {
		rank = len(h.samples)
	}
	return h.samples[rank-1]
}

// Median reports the 50th percentile.
func (h *Histogram) Median() time.Duration { return h.Percentile(50) }

// Reset discards all samples (and the reservoir's generator state, so a
// reset histogram replays identically).
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
	h.sorted = false
	h.rng = 0
}

// Clone returns an independent copy of h: same exact aggregates, same
// kept samples, same reservoir generator state (so a clone's future
// records replay like the original's would). Snapshot/Merge aggregation
// clones histograms so merging never mutates a live recorder.
func (h *Histogram) Clone() *Histogram {
	out := *h
	out.samples = append([]time.Duration(nil), h.samples...)
	return &out
}

// Merge folds other into h. Count, sum, min and max merge exactly.
// Kept samples append exactly while both sides fit the cap; past it the
// merge treats each of other's kept samples as one reservoir candidate,
// which keeps percentiles representative but is an approximation (each
// kept sample may stand for many recorded ones).
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.n == 0 || other.max > h.max {
		h.max = other.max
	}
	for _, s := range other.samples {
		if len(h.samples) < HistogramCap {
			h.samples = append(h.samples, s)
		} else if j := h.randN(h.n + 1); j < HistogramCap {
			h.samples[j] = s
		}
	}
	h.sorted = false
	h.n += other.n
	h.sum += other.sum
}

// Summary is an immutable snapshot of a histogram, convenient for tables.
type Summary struct {
	Count  int
	Mean   time.Duration
	Median time.Duration
	P95    time.Duration
	P99    time.Duration
	Min    time.Duration
	Max    time.Duration
}

// Summarize captures the usual percentile spread.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.Count(),
		Mean:   h.Mean(),
		Median: h.Median(),
		P95:    h.Percentile(95),
		P99:    h.Percentile(99),
		Min:    h.Min(),
		Max:    h.Max(),
	}
}

// String renders the summary on one line, microsecond precision.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fµs p50=%.1fµs p95=%.1fµs p99=%.1fµs min=%.1fµs max=%.1fµs",
		s.Count, us(s.Mean), us(s.Median), us(s.P95), us(s.P99), us(s.Min), us(s.Max))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// BatchOccupancyBuckets are the upper bounds (inclusive) of the
// commands-per-batch histogram; the last bucket is open-ended. The
// bounds are powers of two because batch sizes are: the adaptive
// batcher fills up to half its pipeline window, so occupancy clusters at
// 1, the window remainder, and the cap.
var BatchOccupancyBuckets = []int{1, 2, 4, 8, 16, 32}

// BatchOccupancy tracks how full proposed batches run: how many batches
// were proposed, how many commands they carried in total, and a
// commands-per-batch histogram over BatchOccupancyBuckets. Client-side
// batchers (the KV bridge, workload clients) record one sample per
// proposed batch; the zero value is ready to use.
//
// One goroutine records, any goroutine may read: the fields stay plain
// int64 so a value copies, and every access to a live one goes through
// sync/atomic. Record adds the commands before the batch and readers
// load the batches before the commands, so a concurrent reader never
// sees a batch without its commands.
type BatchOccupancy struct {
	batches  int64
	commands int64
	buckets  [7]int64 // len(BatchOccupancyBuckets) + 1 overflow bucket
}

// Record counts one proposed batch of n commands.
func (b *BatchOccupancy) Record(n int) {
	if n < 1 {
		return
	}
	i := 0
	for i < len(BatchOccupancyBuckets) && n > BatchOccupancyBuckets[i] {
		i++
	}
	atomic.AddInt64(&b.commands, int64(n))
	atomic.AddInt64(&b.buckets[i], 1)
	atomic.AddInt64(&b.batches, 1)
}

// Batches reports how many batches were proposed.
func (b *BatchOccupancy) Batches() int64 { return atomic.LoadInt64(&b.batches) }

// Commands reports the total commands across all batches.
func (b *BatchOccupancy) Commands() int64 { return atomic.LoadInt64(&b.commands) }

// Mean reports the average commands per batch (0 with no batches).
func (b *BatchOccupancy) Mean() float64 {
	batches := b.Batches()
	if batches == 0 {
		return 0
	}
	return float64(b.Commands()) / float64(batches)
}

// Bucket reports the histogram count for bucket i of Labels order.
func (b *BatchOccupancy) Bucket(i int) int64 { return atomic.LoadInt64(&b.buckets[i]) }

// BucketLabels names the histogram buckets ("<=1", "<=2", ..., ">32"),
// aligned with Bucket indices.
func (b *BatchOccupancy) BucketLabels() []string {
	out := make([]string, 0, len(b.buckets))
	for _, bound := range BatchOccupancyBuckets {
		out = append(out, fmt.Sprintf("<=%d", bound))
	}
	return append(out, fmt.Sprintf(">%d", BatchOccupancyBuckets[len(BatchOccupancyBuckets)-1]))
}

// Merge folds other's counts into b; other may be live, b is the
// caller's own.
func (b *BatchOccupancy) Merge(other *BatchOccupancy) {
	b.batches += other.Batches()
	b.commands += other.Commands()
	for i := range b.buckets {
		b.buckets[i] += other.Bucket(i)
	}
}

// Throughput converts an operation count over an elapsed duration into
// operations per second. It reports 0 for a non-positive elapsed time.
func Throughput(ops int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}
