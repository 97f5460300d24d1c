package util

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d count %d far from 1000", b, c)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean %g", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("variance %g", variance)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean(2,8)=%g", g)
	}
	if g := GeoMean([]float64{5, 0, -3}); math.Abs(g-5) > 1e-12 {
		t.Errorf("non-positive entries not skipped: %g", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("empty GeoMean=%g", g)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]int{5, 1, 3}); m != 3 {
		t.Errorf("odd median %g", m)
	}
	if m := Median([]int{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("empty median %g", m)
	}
	// Median must not mutate its argument.
	xs := []int{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median mutated input")
	}
}

func TestNearlyEqual(t *testing.T) {
	if !NearlyEqual(1.0, 1.0+1e-12, 1e-9, 0) {
		t.Error("relative tolerance failed")
	}
	if NearlyEqual(1.0, 1.1, 1e-9, 1e-9) {
		t.Error("clearly different accepted")
	}
	if !NearlyEqual(0, 1e-15, 0, 1e-12) {
		t.Error("absolute tolerance near zero failed")
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Errorf("Norm2 %g", Norm2(x))
	}
	y := []float64{1, 2}
	if Dot(x, y) != 11 {
		t.Errorf("Dot %g", Dot(x, y))
	}
	Axpy(2, y, x) // x += 2y
	if x[0] != 5 || x[1] != 8 {
		t.Errorf("Axpy %v", x)
	}
}
