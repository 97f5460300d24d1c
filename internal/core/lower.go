package core

// lowerPlan holds the lower stage's factorization structures.
type lowerPlan struct {
	// comp holds each lower row's MILU compensation from its upper-
	// stage pivots for the row's corner piece. Every pass writes each
	// row's entry before its corner piece reads it.
	comp []float64
	// cornerStart[r-NUpper] is the first entry of lower row r whose
	// column is >= NUpper. Columns are sorted and the diagonal's is
	// r, so the row's upper-stage pivots are [RowPtr[r],
	// cornerStart[r-NUpper]) and its corner pivots
	// [cornerStart[r-NUpper], DiagPos[r]).
	cornerStart []int
	// lvlEnds, set for SR only, are the upper levels' column ends
	// (the subblocks L_{k,i} of paper Fig. 5): eliminate sums a row's
	// MILU compensation level by level across them.
	lvlEnds []int
}

// buildLowerPlan constructs the lower-stage structures: each lower
// row's corner boundary.
func (e *Engine) buildLowerPlan() {
	nUp, n := e.split.NUpper, e.n
	e.lower = &lowerPlan{}
	if n == nUp {
		return
	}
	lp := e.lower
	lp.comp = make([]float64, n-nUp)
	lp.cornerStart = make([]int, n-nUp)
	lu, diag := e.factor.LU, e.factor.DiagPos
	for r := nUp; r < n; r++ {
		k := lu.RowPtr[r]
		for k < diag[r] && lu.ColIdx[k] < nUp {
			k++
		}
		lp.cornerStart[r-nUp] = k
	}
	if e.method == LowerSR {
		lp.lvlEnds = e.split.UpperLvlPtr[1 : e.split.CutLevel+1]
	}
}
