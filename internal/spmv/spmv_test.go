package spmv

import (
	"testing"
	"testing/quick"

	"javelin/internal/gen"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

func vecsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParallelMatchesSerial(t *testing.T) {
	a := gen.TetraMesh(8, 8, 8, 3)
	x := make([]float64, a.M)
	rng := util.NewRNG(1)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, a.N)
	a.MatVec(x, want)
	got := make([]float64, a.N)
	for _, threads := range []int{1, 2, 4, 8} {
		ParallelOn(nil, a, x, got, threads)
		if !vecsEqual(want, got) {
			t.Fatalf("threads=%d mismatch", threads)
		}
	}
}

func TestParallelOnEmptyRows(t *testing.T) {
	coo := sparse.NewCOO(5, 5, 3)
	coo.Add(0, 0, 1)
	coo.Add(4, 4, 2)
	a := coo.ToCSR()
	x := []float64{1, 1, 1, 1, 1}
	y := []float64{9, 9, 9, 9, 9} // stale values must be cleared
	ParallelOn(nil, a, x, y, 2)
	if want := []float64{1, 0, 0, 0, 2}; !vecsEqual(want, y) {
		t.Fatalf("empty-row handling: %v", y)
	}
}

// TestParallelOnPropertyRandom checks the bitwise contract on random
// patterns (empty rows, duplicate-summed entries, skewed row lengths)
// at random thread counts, for both the matrix's own values and an
// explicit value slice.
func TestParallelOnPropertyRandom(t *testing.T) {
	check := func(seed uint64) bool {
		rng := util.NewRNG(seed)
		n := 20 + rng.Intn(100)
		coo := sparse.NewCOO(n, n, n*4)
		for i := 0; i < n; i++ {
			k := rng.Intn(6)
			for e := 0; e < k; e++ {
				coo.Add(i, rng.Intn(n), rng.NormFloat64())
			}
		}
		a := coo.ToCSR()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		threads := 1 + rng.Intn(6)
		want := make([]float64, n)
		got := make([]float64, n)
		a.MatVec(x, want)
		ParallelOn(nil, a, x, got, threads)
		if !vecsEqual(want, got) {
			return false
		}
		vals := make([]float64, a.Nnz())
		for k := range vals {
			vals[k] = rng.NormFloat64()
		}
		a.MatVecVals(vals, x, want)
		var p Product
		p.Mul(nil, a, vals, x, got, threads)
		if !vecsEqual(want, got) {
			return false
		}
		// A second call reuses the bound body with new operands.
		a.MatVec(x, want)
		p.Mul(nil, a, a.Val, x, got, threads)
		return vecsEqual(want, got)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
