package main

import "sort"

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty input yields 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles by the same definition
// as Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method, including its extrapolation for tiny samples), which is what the
// regression gate computes spreads with. A single value is both quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// 1-based rank position i*(n+1)/4; the bracketing rank pair is
		// clamped to [1, n-1] and the fraction taken from it.
		k := i * (n + 1) / 4
		k = max(1, min(k, n-1))
		frac := float64(i*(n+1)-4*k) / 4
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(3)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
