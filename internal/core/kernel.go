package core

import (
	"fmt"
	"math"

	"javelin/internal/ilu"
	"javelin/internal/sparse"
)

// pivotFloor mirrors the serial reference's guard.
const pivotFloor = 1e-300

// lane is one worker's elimination scratch: the position map of the
// standard ILU(0) row kernel (Saad, "Iterative Methods for Sparse
// Linear Systems", §10.3). Every Factorize/Refactorize allocates one
// lane per thread and drops them on return. The scatter's For region
// and the factor's Phases region each hand a lane number to every
// participant, and no two participants of a region share one, so rows
// take a lane without synchronizing.
type lane struct {
	// pos maps a column to 1 + its offset in the row suffix loaded
	// into w, and to 0 when the row has no entry there. It is all
	// zero between rows.
	pos []int32
	// w[1:] holds the loaded row suffix; w[0] is the MILU
	// accumulator, the slot every update to an absent column lands
	// in, so the update loop has no branch.
	w []float64
}

// newLanes allocates count lanes for an n-row factor whose longest
// row has maxRow entries, in two backing arrays.
func newLanes(count, n, maxRow int) []lane {
	pos := make([]int32, count*n)
	w := make([]float64, count*(maxRow+1))
	lanes := make([]lane, count)
	for i := range lanes {
		lanes[i] = lane{
			pos: pos[i*n : (i+1)*n : (i+1)*n],
			w:   w[i*(maxRow+1) : (i+1)*(maxRow+1) : (i+1)*(maxRow+1)],
		}
	}
	return lanes
}

// eliminate applies to row r the up-looking updates of paper Fig. 1
// for the pivot entries stored at [kLo, kHi) of the row, whose U-rows
// must already be final: for each pivot column j in turn, the entry
// becomes lij = a_rj / u_jj and row r loses lij × (U-row j right of
// its diagonal). Every factor stage, the lower rows' upper-stage
// pivots included, eliminates through this one pass.
//
// The row's entries from kLo on are loaded into the lane, updated
// through the position map and stored back; every update target
// (a column right of a pivot) lies in that suffix. Each target, and
// the accumulator, receives its updates in pivot order, the order the
// serial reference applies them in. The returned comp is the MILU
// compensation, the sum of the updates whose column is absent from
// the row; callers add it to the diagonal in finishRow (it is always
// computed and ignored unless Options.Modified). f supplies only the
// symbolic structure; the values read and written live in vals, the
// epoch buffer being built.
//
// lvlEnds, non-nil for SR's lower rows only, are the upper levels'
// column ends: the accumulator is closed into comp and restarted at
// each one the pivots cross, so comp is the per-level sum
// ((0 + c₀) + c₁) + … that eliminating the row one upper level at a
// time gives. comp is +0 until a level closes and the accumulator is
// never −0, so every other caller gets the accumulator's bits.
func (ln *lane) eliminate(f *ilu.Factor, vals []float64, r, kLo, kHi int, lvlEnds []int) (comp float64, err error) {
	if kLo >= kHi {
		return 0, nil
	}
	cols, rowPtr, diag := f.LU.ColIdx, f.LU.RowPtr, f.DiagPos
	end := rowPtr[r+1]
	row := cols[kLo:end]
	pos, w := ln.pos, ln.w[:1+len(row)]
	for i, c := range row {
		pos[c] = int32(1 + i)
	}
	w[0] = 0
	copy(w[1:], vals[kLo:end])
	for k := kLo; k < kHi; k++ {
		j := cols[k]
		for len(lvlEnds) > 0 && j >= lvlEnds[0] {
			comp += w[0]
			w[0] = 0
			lvlEnds = lvlEnds[1:]
		}
		piv := vals[diag[j]]
		if !(math.Abs(piv) >= pivotFloor) {
			err = fmt.Errorf("%w at column %d (row %d)", ilu.ErrZeroPivot, j, r)
			break
		}
		lij := w[1+k-kLo] / piv
		w[1+k-kLo] = lij
		uLo, uHi := diag[j]+1, rowPtr[j+1]
		uCols, uVals := cols[uLo:uHi], vals[uLo:uHi]
		uVals = uVals[:len(uCols)] // drops the bounds check below
		for t, c := range uCols {
			w[pos[c]] -= lij * uVals[t]
		}
	}
	for _, c := range row {
		pos[c] = 0
	}
	copy(vals[kLo:end], w[1:])
	return comp + w[0], err
}

// finishRow applies τ dropping and MILU compensation to a fully
// eliminated row in vals and verifies the pivot and then that every
// entry is finite: an overflow (a tiny pivot under huge couplings)
// would otherwise publish ±Inf or NaN that every later solve fails
// on. Under MILU it also records the U-row sum; the factor region's
// gates (each upper level and corner group waits for the ones before
// it) guarantee rowSumU of referenced earlier rows is already final.
func (e *Engine) finishRow(vals []float64, r int, comp float64) error {
	lu := e.factor.LU
	lo, hi := lu.RowPtr[r], lu.RowPtr[r+1]
	dp := e.factor.DiagPos[r]
	if e.opt.DropTol > 0 {
		mx := 0.0
		for k := lo; k < hi; k++ {
			if v := math.Abs(vals[k]); v > mx {
				mx = v
			}
		}
		thresh := e.opt.DropTol * mx
		for k := lo; k < hi; k++ {
			if k == dp {
				continue
			}
			if v := vals[k]; math.Abs(v) < thresh {
				if e.opt.Modified {
					if c := lu.ColIdx[k]; c < r {
						// Dropped L entry: product row r loses
						// v·(U row c).
						comp += v * e.rowSumU[c]
					} else {
						comp += v
					}
				}
				vals[k] = 0
			}
		}
	}
	if e.opt.Modified {
		vals[dp] += comp
	}
	if !(math.Abs(vals[dp]) >= pivotFloor) {
		return fmt.Errorf("%w at row %d", ilu.ErrZeroPivot, r)
	}
	for k := lo; k < hi; k++ {
		if x := vals[k]; x-x != 0 { // NaN or ±Inf
			return fmt.Errorf("core: %w %g at entry (%d,%d) of the factor", sparse.ErrNonFinite, x, r, lu.ColIdx[k])
		}
	}
	if e.opt.Modified {
		s := 0.0
		for k := dp; k < hi; k++ {
			s += vals[k]
		}
		e.rowSumU[r] = s
	}
	return nil
}
