package core

// SolveLower solves L·x = b on the engine's permuted indexing, where
// L is the unit-lower factor. b and x are length-N slices in the
// PERMUTED ordering (use Apply for the user-ordering round trip);
// b and x may alias.
//
// The sweep runs on the calling goroutine. At Threads == 1 it is one
// whole-sweep forward substitution. At Threads > 1 it follows the
// factor's staged structure (paper Section VI): the upper-stage rows
// in ascending order, then the spmv-like sweep of the lower rows
// against the already-computed upper x, then the corner. The staged
// sweep sums each lower row's upper-stage entries before subtracting
// them, so its low bits differ from the Threads == 1 sweep, and it
// gives the same bits at every Threads > 1. Neither sweep is
// dispatched: the paper's p2p solve spin-waits at every level, and on
// the 2-vCPU hosts it was timed on, an apply through it took 2–13× as
// long as the 1-thread sweep on every matrix tried.
//
// On an unpinned context each call pins the current epoch for its
// own duration only; when pairing SolveLower with SolveUpper under
// concurrent Refactorize, bracket the pair with PinEpoch/UnpinEpoch
// so both halves use one factor generation.
//
//javelin:noalloc
func (c *SolveContext) SolveLower(b, x []float64) {
	c.enter()
	defer c.exit()
	e := c.e
	lu := e.factor.LU
	dps := e.factor.DiagPos
	vals := c.vals
	kt := e.kt
	if &b[0] != &x[0] {
		copy(x, b)
	}
	if e.opt.Threads == 1 {
		// Plain forward substitution as one whole-sweep kernel. The
		// sub-diagonal entries of row r are exactly [RowPtr[r],
		// DiagPos[r]) — the diagonal always exists — so the kernel
		// works from explicit bounds instead of a per-element
		// compare-and-break: identical elements, identical order,
		// identical rounding.
		kt.TriLower(lu.RowPtr, dps, lu.ColIdx, vals, x, 0, e.n)
		return
	}
	// Upper stage: the rows in ascending order (a valid forward
	// topological order) as one sweep kernel.
	nUp, n := e.split.NUpper, e.n
	kt.TriLower(lu.RowPtr, dps, lu.ColIdx, vals, x, 0, nUp)
	if nUp == n {
		return
	}
	// Lower stage, part 1: subtract the L(lower, upper)·x contribution
	// span by span. Spans are ~3 elements, so the row sum is open-coded
	// (the same ascending-index chained sum SpMVRows pins).
	cols := lu.ColIdx
	for _, sp := range e.lower.solveSpans {
		s := 0.0
		for k := sp.kLo; k < sp.kHi; k++ {
			s += vals[k] * x[cols[k]]
		}
		x[sp.row] -= s
	}
	// Lower stage, part 2: the corner, one sweep over [nUp, n). The
	// corner entries of row r are the precomputed contiguous suffix
	// [cornerStart[r-nUp], DiagPos[r]).
	cs := e.cornerStart
	for r := nUp; r < n; r++ {
		s := x[r]
		for k := cs[r-nUp]; k < dps[r]; k++ {
			s -= vals[k] * x[cols[k]]
		}
		x[r] = s
	}
}

// SolveUpper solves U·x = b on the permuted indexing (b, x length N,
// may alias) as one backward-substitution sweep on the calling
// goroutine, at every thread count: solving the corner and then the
// upper-stage rows, each descending, is the same row order with the
// same per-row arithmetic, so a staged form would give the same bits.
// See SolveLower's note on PinEpoch when pairing the two under
// concurrent Refactorize.
//
//javelin:noalloc
func (c *SolveContext) SolveUpper(b, x []float64) {
	c.enter()
	defer c.exit()
	e := c.e
	lu := e.factor.LU
	if &b[0] != &x[0] {
		copy(x, b)
	}
	e.kt.TriUpper(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, x, 0, e.n)
}
