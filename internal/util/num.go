package util

import (
	"math"

	"javelin/internal/kernels"
)

// GeoMean returns the geometric mean of xs, ignoring non-positive
// entries (which would otherwise poison the log sum). Returns 0 when
// no positive entries exist.
func GeoMean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Median returns the median of xs (xs is not modified). Returns 0 for
// empty input.
func Median(xs []int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]int, n)
	copy(cp, xs)
	// insertion-free: simple quickselect is overkill; sort small copies.
	sortInts(cp)
	if n%2 == 1 {
		return float64(cp[n/2])
	}
	return float64(cp[n/2-1]+cp[n/2]) / 2
}

func sortInts(xs []int) {
	// Shell sort: no dependency on sort package in this tiny helper,
	// and xs here is O(#levels) which is small.
	n := len(xs)
	gap := 1
	for gap < n/3 {
		gap = gap*3 + 1
	}
	for ; gap >= 1; gap /= 3 {
		for i := gap; i < n; i++ {
			v := xs[i]
			j := i
			for j >= gap && xs[j-gap] > v {
				xs[j] = xs[j-gap]
				j -= gap
			}
			xs[j] = v
		}
	}
}

// NearlyEqual reports whether a and b agree to within rel relative
// tolerance (or abs absolute tolerance near zero).
func NearlyEqual(a, b, rel, abs float64) bool {
	d := math.Abs(a - b)
	if d <= abs {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

// Norm2 returns the Euclidean norm of x. Delegates to the active
// numeric kernel variant (bitwise identical across variants).
func Norm2(x []float64) float64 {
	return math.Sqrt(kernels.SumSq(x))
}

// Dot returns the inner product of x and y (len(x) == len(y)).
// Delegates to the active numeric kernel variant.
func Dot(x, y []float64) float64 {
	return kernels.Dot(x, y)
}

// Axpy computes y += alpha*x in place. Delegates to the active
// numeric kernel variant.
func Axpy(alpha float64, x, y []float64) {
	kernels.Axpy(alpha, x, y)
}
