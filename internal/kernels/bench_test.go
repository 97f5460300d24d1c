package kernels_test

import (
	"math/rand"
	"testing"

	"javelin/internal/kernels"
)

// Per-variant kernel benchmarks: every registered table runs the same
// shapes, so `go test -bench . ./internal/kernels/` prints the A/B
// table that justifies (or indicts) each asm slot. Shapes mirror the
// engine's real call sites: long vectors for the Krylov axpy/scale,
// factor-shaped short rows for the trisolve sweeps, and the packed
// n×k panel of ApplyBatch.

func benchVariants(b *testing.B, f func(b *testing.B, tb *kernels.Table)) {
	for _, name := range kernels.Variants() {
		tb, err := kernels.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { f(b, tb) })
	}
}

func benchVec(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func BenchmarkAxpy4096(b *testing.B) {
	x, y := benchVec(4096), benchVec(4096)
	benchVariants(b, func(b *testing.B, tb *kernels.Table) {
		b.SetBytes(4096 * 8 * 3) // read x, read+write y
		for i := 0; i < b.N; i++ {
			tb.Axpy(1.0000001, x, y)
		}
	})
}

func BenchmarkScale4096(b *testing.B) {
	x := benchVec(4096)
	benchVariants(b, func(b *testing.B, tb *kernels.Table) {
		b.SetBytes(4096 * 8 * 2)
		for i := 0; i < b.N; i++ {
			tb.Scale(1.0000001, x)
		}
	})
}

func BenchmarkDot4096(b *testing.B) {
	x, y := benchVec(4096), benchVec(4096)
	benchVariants(b, func(b *testing.B, tb *kernels.Table) {
		b.SetBytes(4096 * 8 * 2)
		var s float64
		for i := 0; i < b.N; i++ {
			s += tb.Dot(x, y)
		}
		_ = s
	})
}

// PanelUpdate at the ApplyBatch shape: 8 RHS, factor rows of ~6
// off-diagonal entries over a 4096-row panel.
func BenchmarkPanelUpdate8RHS(b *testing.B) {
	const n, k = 4096, 8
	rng := rand.New(rand.NewSource(7))
	rowPtr, colIdx, vals := benchCSR(rng, n, 6)
	xb := benchVec(n * k)
	benchVariants(b, func(b *testing.B, tb *kernels.Table) {
		for i := 0; i < b.N; i++ {
			for r := 1; r < n; r++ {
				lo, hi := rowPtr[r], rowPtr[r+1]
				tb.PanelUpdate(xb, k, xb[r*k:r*k+k], vals, colIdx, lo, hi)
			}
		}
	})
}

// benchCSR builds a strictly-lower-triangular pattern with rowLen
// entries per row (clamped to the available columns), the trisolve
// row shape.
func benchCSR(rng *rand.Rand, n, rowLen int) (rowPtr, colIdx []int, vals []float64) {
	rowPtr = make([]int, n+1)
	for r := 0; r < n; r++ {
		rl := rowLen
		if rl > r {
			rl = r
		}
		perm := rng.Perm(r)[:rl]
		cols := append([]int(nil), perm...)
		for a := 1; a < len(cols); a++ {
			for b := a; b > 0 && cols[b-1] > cols[b]; b-- {
				cols[b-1], cols[b] = cols[b], cols[b-1]
			}
		}
		colIdx = append(colIdx, cols...)
		rowPtr[r+1] = len(colIdx)
	}
	vals = benchVec(len(colIdx))
	return
}

// SpMVRows over rows of ~12 nonzeros — three 4-wide blocks per row.
func BenchmarkSpMVRows(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(9))
	rowPtr, colIdx, vals := benchCSR(rng, n, 12)
	x := benchVec(n)
	y := make([]float64, n)
	benchVariants(b, func(b *testing.B, tb *kernels.Table) {
		for i := 0; i < b.N; i++ {
			tb.SpMVRows(rowPtr, colIdx, vals, x, y, 1, n)
		}
	})
}

// TriLower at the factor shape: ~6 sub-diagonal entries per row, the
// hottest loop of a preconditioner application.
func BenchmarkTriLowerSweep(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(11))
	rowPtr, colIdx, vals := benchCSR(rng, n, 6)
	// benchCSR's pattern is strictly lower triangular: the "diagonal
	// position" of row r is the row end.
	diagPos := make([]int, n)
	copy(diagPos, rowPtr[1:])
	x := benchVec(n)
	benchVariants(b, func(b *testing.B, tb *kernels.Table) {
		for i := 0; i < b.N; i++ {
			tb.TriLower(rowPtr, diagPos, colIdx, vals, x, 0, n)
		}
	})
}
