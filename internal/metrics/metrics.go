// Package metrics provides the measurement primitives: the latency
// histogram with its one summary, and the commands-per-batch occupancy
// counts. It holds shapes, not subsystem counters: each subsystem keeps
// its own counters struct and reports it by name through internal/obs.
//
// The histogram is log-linear, after HdrHistogram (Tene) and DDSketch
// (Masson, Rim and Lee, VLDB 2019): fixed buckets, so recording is one
// increment and merging adds the bucket arrays — exact, and the same in
// any order.
//
// All types in this package are safe for single-goroutine use; the
// discrete-event simulator is single-threaded, and the real runtime
// aggregates per-client instances, so no locking is required on the hot
// path. A type shared across goroutines is guarded by its owner —
// except BatchOccupancy, which one goroutine records and any may read.
package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// The bucket layout: values below 32 ns get a bucket each, and every
// power of two above splits into 32 equal buckets, so a bucket is at
// most 1/32 of its lowest value wide. 31 octaves above the linear range
// reach 2^36 ns (68 s); larger values share the last bucket.
const (
	subBits    = 5
	subBuckets = 1 << subBits
	numBuckets = 32 * subBuckets
)

// bucketOf reports the bucket holding ns.
func bucketOf(ns int64) int {
	if ns < subBuckets {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - subBits - 1
	return min((e+1)<<subBits+int(ns>>uint(e))-subBuckets, numBuckets-1)
}

// bucketBounds reports the lowest value of bucket idx and its width.
func bucketBounds(idx int) (lo, width float64) {
	if idx < subBuckets {
		return float64(idx), 1
	}
	e := uint(idx>>subBits - 1)
	m := int64(idx&(subBuckets-1) + subBuckets)
	return float64(m << e), float64(int64(1) << e)
}

// Histogram records duration samples into fixed log-linear buckets and
// answers percentile queries. Count, Mean, Min and Max are exact; a
// percentile is within one bucket width of the sample at its rank. The
// zero value is ready to use and holds no bucket array until the first
// Record, so an idle histogram costs a few words. Copy one with Clone:
// a plain copy shares the buckets.
type Histogram struct {
	counts *[numBuckets]uint64
	n      int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	if h.counts == nil {
		h.counts = new([numBuckets]uint64)
	}
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if h.n == 0 || d > h.max {
		h.max = d
	}
	h.n++
	h.sum += d
	h.counts[bucketOf(int64(d))]++
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int { return int(h.n) }

// Mean reports the arithmetic mean of the samples, or 0 with no
// samples.
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

// Percentile reports the p-th percentile (0 < p <= 100), interpolated
// linearly inside the bucket its rank lands in and clamped to
// [Min, Max]. It is off by at most the bucket's width — 1/32 of the
// value from 32 ns up — and exact when every sample is one value. It
// reports 0 with no samples.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n)
	v, cum := float64(h.max), 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketBounds(i)
			v = lo + width*(rank-cum)/float64(c)
			break
		}
		cum += float64(c)
	}
	return min(max(time.Duration(v), h.min), h.max)
}

// Clone returns an independent copy of h. Snapshot aggregation clones
// histograms so merging never mutates a live recorder.
func (h *Histogram) Clone() *Histogram {
	out := *h
	if h.counts != nil {
		counts := *h.counts
		out.counts = &counts
	}
	return &out
}

// Merge folds other into h by adding its bucket counts: the result is
// the histogram of every sample either recorded, whatever the order of
// the merges.
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
	if h.counts == nil {
		h.counts = new([numBuckets]uint64)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
}

// Summary is a histogram's serializable face, the one shape every
// latency report shares.
type Summary struct {
	Count int           `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Summarize captures the usual percentile spread.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

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
