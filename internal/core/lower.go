package core

// rowSpan identifies a contiguous run of one row's stored entries:
// indices kLo..kHi into the factor's ColIdx/Val arrays.
type rowSpan struct {
	row      int
	kLo, kHi int
}

// lowerPlan holds the second-stage structures shared by factorization
// and the triangular solves.
type lowerPlan struct {
	// comp holds each lower row's MILU compensation from its upper-
	// stage pivots for the row's corner phase. Every pass writes the
	// entry of each row with a span before the corner reads it; the
	// other rows' entries stay 0.
	comp []float64
	// spans cover, per lower row, all its sub-diagonal entries with
	// columns in the upper stage. Both methods eliminate each span in
	// one pass, one piece of the factor region per span; SolveLower's
	// staged spmv-like sweep reads them too (the stri structure of
	// paper Section VI).
	spans []rowSpan
	// lvlEnds, set for SR only, are the upper levels' column ends
	// (the subblocks L_{k,i} of paper Fig. 5): eliminate sums a row's
	// MILU compensation level by level across them.
	lvlEnds []int
}

// buildLowerPlan constructs the lower-stage structures: one span per
// lower row with upper-stage entries.
func (e *Engine) buildLowerPlan() {
	nUp, n := e.split.NUpper, e.n
	e.lower = &lowerPlan{}
	if n == nUp {
		return
	}
	lp := e.lower
	lp.comp = make([]float64, n-nUp)
	lu := e.factor.LU
	for r := nUp; r < n; r++ {
		lo, hi := lu.RowPtr[r], lu.RowPtr[r+1]
		k := lo
		for k < hi && lu.ColIdx[k] < nUp {
			k++
		}
		if k > lo {
			lp.spans = append(lp.spans, rowSpan{row: r, kLo: lo, kHi: k})
		}
	}
	if e.method == LowerSR {
		lp.lvlEnds = e.split.UpperLvlPtr[1 : e.split.CutLevel+1]
	}
}
