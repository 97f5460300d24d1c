// Package spmv implements the row-parallel sparse matrix–vector
// product the Krylov solvers and benchmarks run on the execution
// runtime. Rows are dealt in contiguous ranges with one kernel call
// per range, and each row's sum is computed exactly as the serial CSR
// loop computes it, so the result is bitwise identical to
// sparse.CSR.MatVec at any thread count.
package spmv

import (
	"javelin/internal/exec"
	"javelin/internal/kernels"
	"javelin/internal/sparse"
)

// ParallelOn computes y = A·x with row ranges dealt in contiguous
// blocks on the given runtime (nil means the process-wide default).
// The region is sized by the adaptive cutoff: sub-threshold matrices
// run the serial blocked kernel inline, and worthwhile ones get one
// kernel call per piece (not one closure dispatch per row). Row sums
// are independent, so the result is bitwise identical at any piece
// count.
func ParallelOn(rt *exec.Runtime, a *sparse.CSR, x, y []float64, threads int) {
	ParallelVals(rt, a, a.Val, x, y, threads)
}

// ParallelVals is ParallelOn against an explicit value slice indexed
// by a's pattern — the epoch-pinned read path, where vals is a pinned
// Versioned epoch's buffer rather than a.Val. Same kernel, same piece
// dealing, bitwise identical at any piece count.
func ParallelVals(rt *exec.Runtime, a *sparse.CSR, vals, x, y []float64, threads int) {
	if rt == nil {
		rt = exec.Default()
	}
	pieces := rt.PiecesFor(2*int64(a.Nnz()), threads)
	if pieces <= 1 {
		kernels.SpMVRows(a.RowPtr, a.ColIdx, vals, x, y, 0, a.N)
		return
	}
	rt.Ranges(a.N, pieces, func(_, lo, hi int) {
		kernels.SpMVRows(a.RowPtr, a.ColIdx, vals, x, y, lo, hi)
	})
}
