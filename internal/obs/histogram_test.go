package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestBucketBoundaryRoundTrip pins the bucket scheme: every bucket's
// upper bound maps back to that bucket, and the next nanosecond maps to
// the next bucket — no gaps, no overlaps, across the whole uint64
// range.
func TestBucketBoundaryRoundTrip(t *testing.T) {
	for i := 0; i < NumBuckets; i++ {
		hi := BucketBound(i)
		if got := bucketIndex(hi); got != i {
			t.Fatalf("bucketIndex(BucketBound(%d)=%d) = %d", i, hi, got)
		}
		if i+1 < NumBuckets {
			if got := bucketIndex(hi + 1); got != i+1 {
				t.Fatalf("bucketIndex(%d+1) = %d, want %d", hi, got, i+1)
			}
			if next := BucketBound(i + 1); next <= hi {
				t.Fatalf("BucketBound(%d)=%d not above BucketBound(%d)=%d", i+1, next, i, hi)
			}
		}
	}
	// The top bucket's bound is the largest representable value.
	if got := BucketBound(NumBuckets - 1); got != ^uint64(0) {
		t.Fatalf("top bucket bound = %d, want MaxUint64", got)
	}
	// Small values are exact.
	for v := uint64(0); v < histSubs; v++ {
		if BucketBound(bucketIndex(v)) != v {
			t.Fatalf("value %d not exact", v)
		}
	}
}

// TestHistogramQuantileError checks the documented estimator bound on
// known distributions: the bucketed quantile is the bucket upper bound
// of the exact nearest-rank order statistic — at least the true value
// and at most 12.5% above it — and stays consistent with the exact
// interpolating metrics.Summary estimator at the median.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() time.Duration{
		"uniform": func() time.Duration { return time.Duration(rng.Int63n(int64(10 * time.Millisecond))) },
		"bimodal": func() time.Duration {
			if rng.Intn(10) == 0 {
				return 5*time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
			}
			return 50*time.Microsecond + time.Duration(rng.Int63n(int64(10*time.Microsecond)))
		},
		"heavy-tail": func() time.Duration {
			d := 1 + time.Duration(rng.Int63n(int64(100*time.Microsecond)))
			for rng.Intn(4) == 0 {
				d *= 8
			}
			return d
		},
	}
	const n = 10_000
	for name, gen := range distributions {
		var h Histogram
		durs := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			d := gen()
			h.Observe(d)
			durs = append(durs, d)
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		for _, p := range []float64{0.5, 0.9, 0.99, 1} {
			got := h.Quantile(p)
			rank := int(math.Ceil(p * n))
			if rank < 1 {
				rank = 1
			}
			want := durs[rank-1]
			hi := time.Duration(float64(want)*1.125) + 1
			if got < want || got > hi {
				t.Errorf("%s p%g: histogram %v outside [%v, %v] (nearest-rank bound)", name, p*100, got, want, hi)
			}
		}
		// Cross-check against the exact estimator: the bucketed median
		// may only exceed the interpolated one by the bucket width.
		ns := make([]float64, n)
		for i, d := range durs {
			ns[i] = float64(d)
		}
		med := time.Duration(metrics.Summarize(ns).Median)
		if got := h.Quantile(0.5); got < time.Duration(float64(med)*0.98) || got > time.Duration(float64(med)*1.15)+1 {
			t.Errorf("%s: bucketed median %v vs exact %v", name, got, med)
		}
	}
}

// TestHistogramMerge pins that Merge is bucket-exact: merging two
// histograms gives identical counts and quantiles to observing the
// union stream into one.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, union Histogram
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(int64(time.Second)))
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
		union.Observe(d)
	}
	a.Merge(&b)
	if a.Count() != union.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), union.Count())
	}
	if a.Sum() != union.Sum() {
		t.Fatalf("merged sum %v, want %v", a.Sum(), union.Sum())
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		if got, want := a.Quantile(p), union.Quantile(p); got != want {
			t.Fatalf("merged p%g = %v, want %v", p*100, got, want)
		}
	}
	// Merging nil is a no-op.
	before := a.Count()
	a.Merge(nil)
	if a.Count() != before {
		t.Fatal("Merge(nil) changed the histogram")
	}
}

// TestHistogramConcurrent hammers one histogram from concurrent
// observers and a merger while a reader walks quantiles — the -race CI
// job is the real assertion; the count check here pins that no sample
// was lost.
func TestHistogramConcurrent(t *testing.T) {
	var h, src Histogram
	const (
		workers = 8
		perW    = 10_000
	)
	for i := 0; i < 1000; i++ {
		src.Observe(time.Duration(i) * time.Microsecond)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(time.Duration(w*perW+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.Merge(&src)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			h.Quantile(0.99)
			h.Count()
		}
	}()
	wg.Wait()
	if got, want := h.Count(), uint64(workers*perW+1000); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
}

// TestHistogramEmpty pins zero-value behavior.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("zero value not empty")
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	h.Observe(-time.Second) // clamps to 0
	if h.Count() != 1 || h.Quantile(1) != 0 {
		t.Fatalf("negative observation: count=%d p100=%v", h.Count(), h.Quantile(1))
	}
}
