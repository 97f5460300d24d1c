package core

// SolveLower solves L·x = b on the engine's permuted indexing, where
// L is the unit-lower factor. b and x are length-N slices in the
// PERMUTED ordering (use Apply for the user-ordering round trip);
// b and x may alias.
//
// Structure (paper Section VI): upper-stage rows run under the same
// p2p schedule as factorization; lower-stage rows then perform an
// spmv-like tiled sweep against the already-computed upper x, and the
// corner is solved group-parallel.
//
// The adaptive cutoff may execute the whole staged traversal inline
// when the factor is too small to repay parallel dispatch. Row
// updates are independent within each stage, so inline and parallel
// execution are bitwise identical; the cutoff never reroutes to the
// Threads==1 path, whose lower-stage float association differs in
// low bits.
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
		kt.TriLower(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, vals, x, 0, e.n)
		return
	}
	par := e.solvePar
	// Upper stage: p2p sweep, or the same rows inline in ascending
	// order (a valid forward topological order) as one sweep kernel.
	nUp, n := e.split.NUpper, e.n
	if par {
		//javelin:alloc-ok parallel dispatch handoff; the inline path allocates nothing
		c.runL.Execute(func(r int) {
			lo, dp := lu.RowPtr[r], e.factor.DiagPos[r]
			x[r] = kt.SubGather(x[r], vals[lo:dp], lu.ColIdx[lo:dp], x)
		})
	} else {
		kt.TriLower(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, vals, x, 0, nUp)
	}
	if nUp == n {
		return
	}
	// Lower stage, part 1: subtract the L(lower, upper)·x contribution
	// with the solve tiles (row-disjoint spans → race-free). Spans are
	// ~3 elements: the gather is inlined rather than dispatched
	// through the kernel table (bit-identical — same ascending-index
	// chained sum the Gather contract pins).
	lp := e.lower
	cols := lu.ColIdx
	if par {
		//javelin:alloc-ok parallel dispatch handoff
		e.runTiles(true, lp.solveTiles, func(t tileRange) {
			for si := t.lo; si < t.hi; si++ {
				sp := lp.solveSpans[si]
				s := 0.0
				for k := sp.kLo; k < sp.kHi; k++ {
					s += vals[k] * x[cols[k]]
				}
				x[sp.row] -= s
			}
		})
	} else {
		// Tiles partition the span list contiguously in order, so the
		// inline walk is one flat span loop — no closure, no per-tile
		// call.
		for si := range lp.solveSpans {
			sp := lp.solveSpans[si]
			s := 0.0
			for k := sp.kLo; k < sp.kHi; k++ {
				s += vals[k] * x[cols[k]]
			}
			x[sp.row] -= s
		}
	}
	// Lower stage, part 2: corner solve, group-parallel (rows within a
	// group are independent; groups in ascending order). The corner
	// entries of row r are the precomputed contiguous suffix
	// [cornerStart[r-nUp], DiagPos[r]) — same elements, same order,
	// same rounding as the old per-element column filter.
	dps := e.factor.DiagPos
	cs := e.cornerStart
	if par {
		//javelin:alloc-ok parallel dispatch handoff
		cornerBody := func(r int) {
			s := x[r]
			for k := cs[r-nUp]; k < dps[r]; k++ {
				s -= vals[k] * x[cols[k]]
			}
			x[r] = s
		}
		for g := 0; g < e.split.NumLowerLevels(); g++ {
			lo := nUp + e.split.LowerLvlPtr[g]
			hi := nUp + e.split.LowerLvlPtr[g+1]
			e.parallelRows(lo, hi, cornerBody)
		}
	} else {
		// Groups are contiguous and ascending, so the inline corner
		// pass is one plain sweep over [nUp, n) — no per-group
		// bookkeeping, no per-row closure call.
		for r := nUp; r < n; r++ {
			s := x[r]
			for k := cs[r-nUp]; k < dps[r]; k++ {
				s -= vals[k] * x[cols[k]]
			}
			x[r] = s
		}
	}
}

// SolveUpper solves U·x = b on the permuted indexing (b, x length N,
// may alias). The traversal order mirrors SolveLower reversed: the
// corner is solved first (groups descending), then the upper-stage
// rows under the backward p2p schedule — or, below the adaptive
// cutoff, the same stages inline (bitwise identical; see SolveLower).
// See SolveLower's note on PinEpoch when pairing the two under
// concurrent Refactorize.
//
//javelin:noalloc
func (c *SolveContext) SolveUpper(b, x []float64) {
	c.enter()
	defer c.exit()
	e := c.e
	lu := e.factor.LU
	vals := c.vals
	kt := e.kt
	if &b[0] != &x[0] {
		copy(x, b)
	}
	if e.opt.Threads == 1 {
		kt.TriUpper(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, vals, x, 0, e.n)
		return
	}
	nUp, n := e.split.NUpper, e.n
	if e.solvePar {
		//javelin:alloc-ok parallel dispatch handoff
		rowBody := func(r int) {
			dp := e.factor.DiagPos[r]
			hi := lu.RowPtr[r+1]
			s := kt.SubGather(x[r], vals[dp+1:hi], lu.ColIdx[dp+1:hi], x)
			x[r] = s / vals[dp]
		}
		for g := e.split.NumLowerLevels() - 1; g >= 0; g-- {
			lo := nUp + e.split.LowerLvlPtr[g]
			hi := nUp + e.split.LowerLvlPtr[g+1]
			e.parallelRows(lo, hi, rowBody)
		}
		c.runU.Execute(rowBody)
		return
	}
	// Inline: rows within a corner group are independent and the
	// groups are contiguous descending, so the corner pass is one
	// backward sweep; descending row order is likewise a valid
	// backward topological order over the upper rows.
	if nUp < n {
		kt.TriUpper(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, vals, x, nUp, n)
	}
	kt.TriUpper(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, vals, x, 0, nUp)
}

// parallelRows runs body(r) for r in [lo, hi) as a dynamic region on
// the engine's runtime, falling back to inline execution for small
// ranges where even block claiming costs more than the work.
//
//javelin:noalloc
func (e *Engine) parallelRows(lo, hi int, body func(r int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if n < 2*e.opt.Threads || e.opt.Threads == 1 {
		for r := lo; r < hi; r++ {
			body(r)
		}
		return
	}
	//javelin:alloc-ok parallel dispatch handoff (the re-indexing shim escapes with the region)
	e.rt.ForDynamic(n, e.opt.Threads, 8, func(i int) {
		body(lo + i)
	})
}
