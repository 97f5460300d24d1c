package core

import (
	"fmt"
	"math"

	"javelin/internal/ilu"
)

// pivotFloor mirrors the serial reference's guard.
const pivotFloor = 1e-300

// eliminatePivots applies the up-looking elimination of paper Fig. 1
// to row r, restricted to pivot columns j with pivotLo <= j <
// min(pivotHi, r). Rows j in that range must already be final. The
// update walk is a sorted two-pointer merge between row r and U-row j,
// so the kernel needs no dense scratch and is safe to run on many
// rows concurrently as long as each row is owned by one goroutine.
// f supplies only the symbolic structure; the numeric values read and
// written live in vals, the epoch buffer being built.
//
// The returned comp accumulates MILU compensation (updates whose
// target column is absent from row r's pattern); callers add it to
// the diagonal in finishRow. comp is always computed; it is ignored
// unless Options.Modified.
func eliminatePivots(f *ilu.Factor, vals []float64, r, pivotLo, pivotHi int) (comp float64, err error) {
	lu := f.LU
	lo, hi := lu.RowPtr[r], lu.RowPtr[r+1]
	limit := pivotHi
	if r < limit {
		limit = r
	}
	for k := lo; k < hi; k++ {
		j := lu.ColIdx[k]
		if j >= limit {
			break
		}
		if j < pivotLo {
			continue
		}
		piv := vals[f.DiagPos[j]]
		if !(math.Abs(piv) >= pivotFloor) {
			return comp, fmt.Errorf("%w at column %d (row %d)", ilu.ErrZeroPivot, j, r)
		}
		lij := vals[k] / piv
		vals[k] = lij
		// Merge U-row j (cols > j) into row r (entries after k).
		kk := f.DiagPos[j] + 1
		ujEnd := lu.RowPtr[j+1]
		k2 := k + 1
		for kk < ujEnd {
			uc := lu.ColIdx[kk]
			for k2 < hi && lu.ColIdx[k2] < uc {
				k2++
			}
			if k2 < hi && lu.ColIdx[k2] == uc {
				vals[k2] -= lij * vals[kk]
				k2++
			} else {
				comp -= lij * vals[kk]
			}
			kk++
		}
	}
	return comp, nil
}

// finishRow applies τ dropping and MILU compensation to a fully
// eliminated row in vals and verifies the pivot. Under MILU it also
// records the U-row sum; dependency ordering (p2p or group barriers)
// guarantees rowSumU of referenced earlier rows is already final.
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
	if e.opt.Modified {
		s := 0.0
		for k := dp; k < hi; k++ {
			s += vals[k]
		}
		e.rowSumU[r] = s
	}
	return nil
}

// searchRow returns the position of column j within the sorted cols
// slice, or -1 when absent.
func searchRow(cols []int, j int) int {
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == j {
		return lo
	}
	return -1
}
