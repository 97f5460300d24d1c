package krylov

import (
	"math"

	"javelin/internal/exec"
	"javelin/internal/kernels"
)

// This file implements the solvers' vector reductions (Dot, Norm2)
// with deterministic blocked summation: the vector is cut into
// fixed-size blocks, each block is summed serially in index order,
// and the per-block partials are combined serially in block order.
// Because the block boundaries and both summation orders are fixed,
// the floating-point result is bit-identical at every thread count —
// the property that makes parallel solves reproducible run to run —
// while the block partials themselves can be computed in parallel on
// the execution runtime (the fork-join the persistent workers make
// cheap enough for vectors of a few hundred thousand entries).

// reduceBlock is the fixed reduction block size in elements. It never
// changes with the thread count (that would change the rounding), so
// it is sized for cache-resident partial sums: 4096 float64s = 32 KiB
// per block.
const reduceBlock = 4096

// reduceParMin is the minimum number of blocks before a reduction
// opens a region on the runtime; from it on, a reduction at Threads > 1
// always does. Purely a scheduling decision — results are identical
// either side of it.
const reduceParMin = 4

// reducer computes deterministic blocked reductions for one solve.
// It lives in the solve's Workspace so repeated calls reuse the
// partials buffer and block closures (allocation-free on the hot
// path). Not safe for concurrent use — the Workspace contract.
type reducer struct {
	rt      *exec.Runtime // nil: compute partials serially
	threads int
	parts   []float64

	// Operand state for the persistent block closures (allocating a
	// capturing closure per reduction would put one heap object on
	// every solver iteration).
	x, y       []float64
	dotBlock   func(b int)
	sumSqBlock func(b int)
}

// reducer configures the workspace's reducer for this solve's
// threading options and returns it.
//
//javelin:alloc-ok one-time: the block closures are installed once per Workspace and reused
func (o Options) reducer(ws *Workspace) *reducer {
	rd := &ws.red
	rd.threads = o.Threads
	rd.rt = nil
	if o.Threads > 1 {
		rd.rt = o.Runtime
		if rd.rt == nil {
			rd.rt = exec.Default()
		}
	}
	if rd.dotBlock == nil {
		rd.dotBlock = func(b int) {
			lo := b * reduceBlock
			hi := lo + reduceBlock
			if hi > len(rd.x) {
				hi = len(rd.x)
			}
			rd.parts[b] = kernels.Dot(rd.x[lo:hi], rd.y[lo:hi])
		}
		rd.sumSqBlock = func(b int) {
			lo := b * reduceBlock
			hi := lo + reduceBlock
			if hi > len(rd.x) {
				hi = len(rd.x)
			}
			rd.parts[b] = kernels.SumSq(rd.x[lo:hi])
		}
	}
	return rd
}

//javelin:alloc-ok amortized growth: allocates only until parts reaches the largest block count seen
func (rd *reducer) partials(nb int) {
	if cap(rd.parts) < nb {
		rd.parts = make([]float64, nb)
	}
	rd.parts = rd.parts[:nb]
}

// run computes partials for nb blocks via the prepared closure, on
// the runtime at Threads > 1 from reduceParMin blocks on, serially
// otherwise (same result). The block boundaries never move, so both
// routes — and any piece dealing in between — round identically.
func (rd *reducer) run(nb int, block func(b int)) {
	if rd.rt != nil && nb >= reduceParMin {
		rd.rt.For(nb, rd.threads, block)
	} else {
		for b := 0; b < nb; b++ {
			block(b)
		}
	}
}

// Dot returns xᵀy by deterministic blocked summation.
//
//javelin:noalloc
func (rd *reducer) Dot(x, y []float64) float64 {
	n := len(x)
	if n <= reduceBlock {
		return kernels.Dot(x[:n], y[:n])
	}
	nb := (n + reduceBlock - 1) / reduceBlock
	rd.partials(nb)
	rd.x, rd.y = x, y
	rd.run(nb, rd.dotBlock)
	rd.x, rd.y = nil, nil
	s := 0.0
	for _, p := range rd.parts { // ordered combine: fixed rounding
		s += p
	}
	return s
}

// Norm2 returns ‖x‖₂ by deterministic blocked summation of squares.
//
//javelin:noalloc
func (rd *reducer) Norm2(x []float64) float64 {
	n := len(x)
	if n <= reduceBlock {
		return math.Sqrt(kernels.SumSq(x))
	}
	nb := (n + reduceBlock - 1) / reduceBlock
	rd.partials(nb)
	rd.x = x
	rd.run(nb, rd.sumSqBlock)
	rd.x = nil
	s := 0.0
	for _, p := range rd.parts {
		s += p
	}
	return math.Sqrt(s)
}
