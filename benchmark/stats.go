package main

import (
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a percentile before
// it is reported: fewer than ten make the tail a single-sample reading.
const tailMinBeyond = 10

// tailPercentile returns the highest of p99, p95 and p90 that has at
// least tailMinBeyond of n samples beyond it, or 50 when none has.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90} {
		if n-rank(n, p) >= tailMinBeyond {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest-rank position of the p-th percentile of
// n samples: ceil(p·n/100), at least 1.
func rank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (not
// modified), or 0 for an empty slice.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median returns the middle value of xs, averaging the two middle
// values of an even count; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts a duration list with the given unit function.
func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
