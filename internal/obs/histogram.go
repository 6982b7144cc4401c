package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: HdrHistogram-style log-linear. Values below
// histSubs nanoseconds get exact unit buckets; above that, each power
// of two splits into histSubs sub-buckets, so a bucket [lo, hi] always
// has (hi+1)/lo = (9+sub)/(8+sub) <= 9/8 — reading any quantile as the
// bucket's upper bound overestimates by at most 12.5% of the true
// value, with a fixed 4KB footprint regardless of sample count.
const (
	histSubBits = 3
	histSubs    = 1 << histSubBits

	// NumBuckets covers the full uint64 nanosecond range: histSubs
	// exact buckets plus histSubs sub-buckets for each of the 61
	// octaves from bits.Len64 = 4 through 64.
	NumBuckets = (64 - histSubBits + 1) * histSubs
)

// Histogram is a fixed-bucket log-scale duration histogram. Observe is
// wait-free (three atomic adds, no allocation, no locks) and safe for
// any number of concurrent writers; readers (Quantile, Count, the
// registry's exposition) see a possibly-torn but monotonically catching
// up view, which is the usual Prometheus scrape contract. The zero
// value is ready to use.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
}

// bucketIndex maps a nanosecond value to its bucket.
//
//repro:hotpath
func bucketIndex(v uint64) int {
	if v < histSubs {
		return int(v)
	}
	n := bits.Len64(v) // >= histSubBits+1
	sub := int((v >> uint(n-1-histSubBits)) & (histSubs - 1))
	return (n-histSubBits)*histSubs + sub
}

// BucketBound returns the largest value mapping to bucket i — the
// inclusive upper bound, which is also what Quantile reports so the
// estimate always errs high (a latency SLO read from the histogram is
// conservative).
//
//repro:deterministic
func BucketBound(i int) uint64 {
	if i < histSubs {
		return uint64(i)
	}
	shift := uint(i/histSubs - 1)
	return (uint64(histSubs+i%histSubs+1) << shift) - 1
}

// Observe records one duration. Negative durations clamp to zero.
//
//repro:hotpath
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveValue(uint64(d))
}

// ObserveValue records one raw nanosecond value.
//
//repro:hotpath
func (h *Histogram) ObserveValue(v uint64) {
	// bucketIndex's maximum is exactly NumBuckets-1 (v = MaxUint64 hits
	// the last sub-bucket of the top octave), so the clamp never fires;
	// it exists to hand the compiler a provable bound and drop the bounds
	// check from the hot atomic add.
	i := min(uint(bucketIndex(v)), NumBuckets-1)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// snapshot copies the bucket counts and returns their total. Summing
// the copied buckets (rather than loading h.count) keeps the quantile
// walk internally consistent under concurrent writers.
//
//repro:deterministic
func (h *Histogram) snapshot(buckets *[NumBuckets]uint64) (total uint64) {
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
		total += buckets[i]
	}
	return total
}

// Quantile returns the upper bound of the bucket containing the p-th
// quantile (p in [0, 1]), or 0 for an empty histogram. The estimate is
// at most 12.5% above the true value (exact below 8ns).
func (h *Histogram) Quantile(p float64) time.Duration {
	var buckets [NumBuckets]uint64
	total := h.snapshot(&buckets)
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	} else if rank > total {
		rank = total
	}
	var cum uint64
	for i := range buckets {
		cum += buckets[i]
		if cum >= rank {
			return time.Duration(BucketBound(i))
		}
	}
	return time.Duration(BucketBound(NumBuckets - 1))
}
