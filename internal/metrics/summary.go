package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes the distribution of a quantity across traces — the
// paper quotes results in this form ("9 MKP with a maximum of 21 MKP",
// "24 out of 40 traces below 1 MKP").
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	Median   float64
	P90      float64
	StdDev   float64
}

// Summarize computes distribution statistics over the given values. An
// empty input yields a zero Summary.
//
//repro:deterministic
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Percentile(sorted, 0.5),
		P90:    Percentile(sorted, 0.9),
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	varSum := 0.0
	for _, v := range sorted {
		d := v - s.Mean
		varSum += d * d
	}
	s.StdDev = math.Sqrt(varSum / float64(len(sorted)))
	return s
}

// Percentile returns the p-quantile (p in [0,1]) of an ascending-sorted
// slice using linear interpolation between closest ranks. It panics if
// the slice is empty.
//
//repro:deterministic
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("metrics: Percentile of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f median=%.2f p90=%.2f min=%.2f max=%.2f sd=%.2f",
		s.N, s.Mean, s.Median, s.P90, s.Min, s.Max, s.StdDev)
}
