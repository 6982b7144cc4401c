package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{4, 2, 8, 6})
	if s.N != 4 || s.Min != 2 || s.Max != 8 {
		t.Fatalf("summary = %+v", s)
	}
	if !almost(s.Mean, 5) {
		t.Fatalf("mean = %v", s.Mean)
	}
	if !almost(s.Median, 5) {
		t.Fatalf("median = %v", s.Median)
	}
	if math.Abs(s.StdDev-math.Sqrt(5)) > 1e-12 {
		t.Fatalf("sd = %v, want sqrt(5)", s.StdDev)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.Median != 7 || s.P90 != 7 || s.StdDev != 0 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 0}, {1, 40}, {0.5, 20}, {0.25, 10}, {0.125, 5}, {0.9, 36},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); !almost(got, c.want) {
			t.Errorf("P%.3f = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("should panic")
		}
	}()
	Percentile(nil, 0.5)
}

func TestQuickSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			// Restrict to the magnitudes the metric domain produces (rates
			// and MKP values); astronomically large inputs overflow the
			// mean/variance sums and are out of scope.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := Summarize(vals)
		if s.Min > s.Median || s.Median > s.Max || s.P90 > s.Max || s.Min > s.Mean || s.Mean > s.Max {
			return false
		}
		if s.StdDev < 0 {
			return false
		}
		// Percentiles are monotone in p.
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			v := Percentile(sorted, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
