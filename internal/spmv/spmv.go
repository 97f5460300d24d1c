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

// ParallelOn computes y = A·x as Product.Mul does on a's own values,
// through a Product made for this one call when it dispatches.
func ParallelOn(rt *exec.Runtime, a *sparse.CSR, x, y []float64, threads int) {
	if threads <= 1 {
		kernels.SpMVRows(a.RowPtr, a.ColIdx, a.Val, x, y, 0, a.N)
		return
	}
	new(Product).Mul(rt, a, a.Val, x, y, threads)
}

// Product is a reusable y = A·x whose range body is bound once and
// reads the operands of the call in progress, so a warm dispatched
// product allocates nothing. The zero value is ready to use. Not safe
// for concurrent use.
type Product struct {
	a          *sparse.CSR
	vals, x, y []float64
	body       func(piece, lo, hi int)
}

// Mul computes y = A·x against an explicit value slice indexed by a's
// pattern: a.Val, or a pinned Versioned epoch's buffer. threads <= 1
// runs the kernel inline over all rows without touching a runtime.
// Otherwise the rows are cut into threads contiguous ranges on rt (nil
// means the process-wide default), one kernel call per range. Row sums
// are independent, so the result is bitwise identical at any thread
// count.
func (p *Product) Mul(rt *exec.Runtime, a *sparse.CSR, vals, x, y []float64, threads int) {
	if threads <= 1 {
		kernels.SpMVRows(a.RowPtr, a.ColIdx, vals, x, y, 0, a.N)
		return
	}
	if rt == nil {
		rt = exec.Default()
	}
	if p.body == nil {
		//javelin:alloc-ok one-time: the range body is bound once per Product and reused
		p.body = func(_, lo, hi int) {
			kernels.SpMVRows(p.a.RowPtr, p.a.ColIdx, p.vals, p.x, p.y, lo, hi)
		}
	}
	p.a, p.vals, p.x, p.y = a, vals, x, y
	rt.Ranges(a.N, threads, p.body)
	p.a, p.vals, p.x, p.y = nil, nil, nil, nil
}
