package loadgen

import (
	"math"
	"time"
)

// Hist is an HDR-style log-bucketed latency histogram: geometric
// buckets growing by 2^(1/8) (~9.05%) from 1µs, 8 sub-buckets per
// octave across 30 octaves (1µs .. ~17.9min) — 241 fixed buckets, so
// recording is O(1), merging is element-wise, and any quantile is
// reported with bounded ~9% relative error (the bucket's upper bound
// is returned, so reported percentiles never understate latency).
// Not safe for concurrent use; the executor merges per-worker copies
// under the collector lock.
type Hist struct {
	counts [histBuckets]uint64
	count  uint64
	sum    time.Duration
	max    time.Duration
}

const (
	histMin        = time.Microsecond
	histSubBuckets = 8  // per octave: resolution factor 2^(1/8)
	histOctaves    = 30 // 1µs * 2^30 ≈ 17.9 min full scale
	histBuckets    = histOctaves*histSubBuckets + 1
)

// bucketIndex maps a latency to its bucket: 0 holds everything ≤ 1µs,
// then index = 1 + floor(8·log2(d/1µs)), clamped at the top.
func bucketIndex(d time.Duration) int {
	if d <= histMin {
		return 0
	}
	i := 1 + int(math.Floor(float64(histSubBuckets)*math.Log2(float64(d)/float64(histMin))))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBound returns bucket i's upper latency bound.
func bucketBound(i int) time.Duration {
	if i <= 0 {
		return histMin
	}
	return time.Duration(float64(histMin) * math.Pow(2, float64(i)/float64(histSubBuckets)))
}

// Observe records one latency.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the exact mean (the sum is kept at full resolution).
func (h *Hist) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the exact maximum observation.
func (h *Hist) Max() time.Duration { return h.max }

// Quantile returns the latency at quantile q in [0, 1]: the upper
// bound of the bucket holding the rank-⌈q·count⌉ observation (q=1
// returns the exact max). Zero observations return 0.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			b := bucketBound(i)
			if b > h.max {
				return h.max // the top occupied bucket's bound can overshoot
			}
			return b
		}
	}
	return h.max
}
