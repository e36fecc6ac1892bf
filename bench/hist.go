package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram in nanoseconds: 32 buckets per
// power of two, so a bucket is at most 3.1 % wide, and quantiles
// interpolate linearly inside the bucket they land in. A caller owns one
// hist per window, so recording is one array increment and the driver
// allocates nothing per operation; raw samples would cost 4 bytes each
// (30 MB a run on the saturated workloads) and a live heap that large
// would halve the collector's frequency for the program under test.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// 31 octaves above the linear range: values up to 2^36 ns (68 s).
	histBuckets = 32 * histSub
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - histSubBits - 1
	idx := (e+1)<<histSubBits + int(ns>>uint(e)) - histSub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds reports the lowest value of bucket idx and the bucket's width.
func histBounds(idx int) (lo, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	e := uint(idx>>histSubBits - 1)
	m := int64(idx&(histSub-1) + histSub)
	return float64(m << e), float64(int64(1) << e)
}

func (h *hist) record(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile reports the q-quantile (0 < q < 1) in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// median reports the middle of xs (mean of the two middles when even);
// xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// iqrFrac reports the distance between the first and third quartile of xs
// as a share of their median — the spread rule BENCHMARK.json's bounds
// are sized against (Python's statistics.quantiles(xs, n=4), exclusive
// method). 0 with fewer than 2 values or a zero median.
func iqrFrac(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1 // exclusive method, 0-based
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / med
}
