// Package ilu contains the sequential reference implementations of
// incomplete LU factorization that the parallel Javelin engine is
// verified against: the up-looking row algorithm of the paper's
// Fig. 1 for ILU(0), symbolic fill-level analysis for ILU(k),
// threshold dropping for ILU(τ) and ILU(k,τ), and the modified-ILU
// (MILU) diagonal compensation variant.
//
// Factors are stored row-wise in a single CSR holding both L and U:
// row i contains the strictly-lower entries (unit diagonal of L is
// implicit) followed by the diagonal and upper entries of U.
package ilu

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"javelin/internal/sparse"
)

// Factor is an incomplete LU factorization A ≈ L·U.
type Factor struct {
	// LU stores L (strictly lower, unit diagonal implicit) and U
	// (diagonal + upper) in one CSR with sorted rows.
	LU *sparse.CSR
	// DiagPos[i] is the index into LU.ColIdx/LU.Val of entry (i,i).
	DiagPos []int
}

// N returns the matrix dimension.
func (f *Factor) N() int { return f.LU.N }

// ErrZeroPivot is wrapped by factorization errors caused by a zero or
// tiny pivot; ILU here performs no pivoting (paper Section III).
var ErrZeroPivot = errors.New("ilu: zero or near-zero pivot")

// ErrPatternMismatch is wrapped by refactorization errors when the
// new matrix carries an entry outside the factorized sparsity
// pattern. Silently dropping such an entry would compute a
// preconditioner of a different matrix with no signal, so the strict
// paths (core.Engine.Refactorize by default) detect it and fail;
// τ-dropped refactorization workflows opt out (the package-level
// Refactorize here stays lenient for exactly that use).
var ErrPatternMismatch = errors.New("ilu: matrix entry outside the factorized pattern")

// pivotFloor guards divisions; pivots smaller in magnitude fail.
const pivotFloor = 1e-300

// Options configures a factorization.
type Options struct {
	// FillLevel is k in ILU(k): maximum fill level admitted by the
	// symbolic phase. 0 keeps the pattern of A.
	FillLevel int
	// DropTol is τ in ILU(τ)/ILU(k,τ): after a row is eliminated,
	// entries with |v| < DropTol·‖row‖∞ are dropped (diagonal kept).
	// 0 disables dropping.
	DropTol float64
	// Modified enables MILU: dropped (and never-admitted) updates are
	// added to the diagonal so row sums of L·U match those of A.
	Modified bool
}

// SymbolicPattern computes the ILU(k) fill pattern of a as a CSR with
// zero values and a guaranteed full diagonal. Level-of-fill follows
// the standard recurrence lev(i,j) = min over p of
// lev(i,p)+lev(p,j)+1 with original entries at level 0; entries with
// level > k are excluded. At k = 0 every fill level is at least 1, so
// the pattern is A's own with each missing diagonal admitted (Saad,
// "Iterative Methods for Sparse Linear Systems", §10.3), built in
// O(n + nnz) without the elimination.
func SymbolicPattern(a *sparse.CSR, k int) (*sparse.CSR, error) {
	if a.N != a.M {
		return nil, errors.New("ilu: matrix must be square")
	}
	if k == 0 {
		return patternWithDiagonal(a), nil
	}
	n := a.N
	type ent struct {
		col, lev int
	}
	rows := make([][]ent, n)
	// Working row as (level) map keyed by column, realized with a
	// dense scratch for O(1) lookups.
	lev := make([]int, n)
	inRow := make([]bool, n)
	var cols []int

	for i := 0; i < n; i++ {
		cols = cols[:0]
		acols, _ := a.Row(i)
		hasDiag := false
		for _, j := range acols {
			lev[j] = 0
			inRow[j] = true
			cols = append(cols, j)
			if j == i {
				hasDiag = true
			}
		}
		if !hasDiag {
			// ILU needs the diagonal; admit it at level 0 (a zero value
			// there will still fail numerically, which is the honest
			// signal the structure is deficient).
			lev[i] = 0
			inRow[i] = true
			cols = append(cols, i)
		}
		// Up-looking symbolic elimination: process pivot columns p < i
		// in ascending order. cols is kept sorted by insertion.
		sortInts(cols)
		for ci := 0; ci < len(cols); ci++ {
			p := cols[ci]
			if p >= i {
				break
			}
			lip := lev[p]
			if lip > k {
				continue
			}
			for _, e := range rows[p] {
				if e.col <= p {
					continue
				}
				nl := lip + e.lev + 1
				if nl > k {
					continue
				}
				if inRow[e.col] {
					if nl < lev[e.col] {
						lev[e.col] = nl
					}
				} else if nl <= k {
					inRow[e.col] = true
					lev[e.col] = nl
					cols = insertSorted(cols, e.col)
					// A new pivot candidate (e.col < i) lands after the
					// current scan position because e.col > p; the
					// ascending loop over the sorted cols reaches it.
				}
			}
		}
		// Commit row i, keeping entries with level <= k.
		ri := make([]ent, 0, len(cols))
		for _, j := range cols {
			if lev[j] <= k {
				ri = append(ri, ent{j, lev[j]})
			}
			inRow[j] = false
		}
		rows[i] = ri
	}
	// Assemble CSR.
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + len(rows[i])
	}
	col := make([]int, ptr[n])
	val := make([]float64, ptr[n])
	p := 0
	for i := 0; i < n; i++ {
		for _, e := range rows[i] {
			col[p] = e.col
			p++
		}
	}
	return &sparse.CSR{N: n, M: n, RowPtr: ptr, ColIdx: col, Val: val}, nil
}

// patternWithDiagonal returns a's pattern with zero values, each
// missing diagonal admitted and every row sorted: what the
// elimination returns at k = 0.
func patternWithDiagonal(a *sparse.CSR) *sparse.CSR {
	n := a.N
	ptr := make([]int, n+1)
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		ptr[i+1] = ptr[i] + len(cols)
		if !slices.Contains(cols, i) {
			ptr[i+1]++
		}
	}
	col := make([]int, ptr[n])
	for i := 0; i < n; i++ {
		row := col[ptr[i]:ptr[i+1]]
		cols, _ := a.Row(i)
		if copy(row, cols) < len(row) {
			row[len(row)-1] = i
		}
		sortInts(row)
	}
	return &sparse.CSR{N: n, M: n, RowPtr: ptr, ColIdx: col, Val: make([]float64, ptr[n])}
}

func insertSorted(xs []int, v int) []int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	xs = append(xs, 0)
	copy(xs[lo+1:], xs[lo:])
	xs[lo] = v
	return xs
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// Factorize computes an incomplete LU of a with the given options
// using the sequential up-looking row algorithm (paper Fig. 1).
func Factorize(a *sparse.CSR, opt Options) (*Factor, error) {
	pat, err := SymbolicPattern(a, opt.FillLevel)
	if err != nil {
		return nil, err
	}
	return FactorizeWithPattern(a, pat, opt)
}

// FactorizeWithPattern runs the numeric up-looking factorization on a
// predetermined sparsity pattern S (paper: "Javelin ... depends on
// predetermining the sparsity pattern and applying an up-looking LU
// algorithm to the pattern"). pat must be square with full diagonal
// and sorted rows; values in pat are ignored.
func FactorizeWithPattern(a *sparse.CSR, pat *sparse.CSR, opt Options) (*Factor, error) {
	n := a.N
	lu := pat.Clone()
	// Scatter A into the pattern.
	scatterValues(a, lu)
	diagPos := make([]int, n)
	for i := 0; i < n; i++ {
		dp := -1
		for k := lu.RowPtr[i]; k < lu.RowPtr[i+1]; k++ {
			if lu.ColIdx[k] == i {
				dp = k
				break
			}
		}
		if dp < 0 {
			return nil, fmt.Errorf("ilu: row %d has no diagonal entry in pattern", i)
		}
		diagPos[i] = dp
	}
	f := &Factor{LU: lu, DiagPos: diagPos}
	if err := numericUpLooking(f, opt); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactorize re-runs the numeric phase of f on new values from a,
// reusing the symbolic structure (the common use in time-stepping
// simulations). a should have a pattern contained in f's pattern;
// entries outside it are deliberately IGNORED rather than rejected,
// because τ-dropped refactorization legitimately feeds matrices whose
// sparsity wanders off the retained pattern. Callers that need the
// strict contract (out-of-pattern input is an error) should go
// through core.Engine.Refactorize, which reports ErrPatternMismatch
// unless its opt-out is set.
func Refactorize(f *Factor, a *sparse.CSR, opt Options) error {
	for i := range f.LU.Val {
		f.LU.Val[i] = 0
	}
	scatterValues(a, f.LU)
	return numericUpLooking(f, opt)
}

// scatterValues writes a's entries into lu wherever the pattern has
// them (entries of a outside the pattern are an error in ILU(0) use;
// they are ignored here to allow τ-dropped refactorization).
func scatterValues(a *sparse.CSR, lu *sparse.CSR) {
	for i := 0; i < a.N; i++ {
		acols, avals := a.Row(i)
		lcols, _ := lu.Row(i)
		base := lu.RowPtr[i]
		li := 0
		for k, j := range acols {
			for li < len(lcols) && lcols[li] < j {
				li++
			}
			if li < len(lcols) && lcols[li] == j {
				lu.Val[base+li] = avals[k]
			}
		}
	}
}

// numericUpLooking is the paper's Fig. 1 algorithm, with optional τ
// dropping (values set to zero in place, pattern retained so the
// factor stays refactorizable) and MILU compensation. A finished row
// holding a NaN or ±Inf (an overflow) fails with sparse.ErrNonFinite,
// as in the parallel engine.
func numericUpLooking(f *Factor, opt Options) error {
	lu := f.LU
	n := lu.N
	// Dense scratch row for O(1) updates.
	w := make([]float64, n)
	pos := make([]int, n) // pos[j] = index in LU arrays for col j of current row, -1 absent
	for j := range pos {
		pos[j] = -1
	}
	// rowSumU[j] = Σ of U-row j (diag included), needed for MILU
	// compensation of dropped L entries: removing l_ij from L removes
	// l_ij·(U row j) from product row i, i.e. l_ij·rowSumU[j] from its
	// row sum.
	var rowSumU []float64
	if opt.Modified {
		rowSumU = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		lo, hi := lu.RowPtr[i], lu.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := lu.ColIdx[k]
			w[j] = lu.Val[k]
			pos[j] = k
		}
		comp := 0.0 // MILU compensation accumulator
		for k := lo; k < hi; k++ {
			j := lu.ColIdx[k]
			if j >= i {
				break
			}
			piv := lu.Val[f.DiagPos[j]]
			if !(math.Abs(piv) >= pivotFloor) {
				clearScratch(lu, lo, hi, w, pos)
				return fmt.Errorf("%w at column %d (row %d)", ErrZeroPivot, j, i)
			}
			lij := w[j] / piv
			w[j] = lij
			lu.Val[k] = lij
			// Update with row j of U: columns > j.
			for kk := f.DiagPos[j] + 1; kk < lu.RowPtr[j+1]; kk++ {
				uc := lu.ColIdx[kk]
				upd := lij * lu.Val[kk]
				if pos[uc] >= 0 {
					w[uc] -= upd
				} else if opt.Modified {
					comp -= upd
				}
			}
		}
		// τ dropping relative to the row's max magnitude.
		if opt.DropTol > 0 {
			mx := 0.0
			for k := lo; k < hi; k++ {
				if v := math.Abs(w[lu.ColIdx[k]]); v > mx {
					mx = v
				}
			}
			thresh := opt.DropTol * mx
			for k := lo; k < hi; k++ {
				j := lu.ColIdx[k]
				if j == i {
					continue
				}
				if math.Abs(w[j]) < thresh {
					if opt.Modified {
						if j < i {
							// Dropped L entry: product row i loses
							// w[j]·(U row j).
							comp += w[j] * rowSumU[j]
						} else {
							comp += w[j]
						}
					}
					w[j] = 0
				}
			}
		}
		if opt.Modified {
			w[i] += comp
		}
		if !(math.Abs(w[i]) >= pivotFloor) {
			clearScratch(lu, lo, hi, w, pos)
			return fmt.Errorf("%w at row %d", ErrZeroPivot, i)
		}
		for k := lo; k < hi; k++ {
			if j := lu.ColIdx[k]; w[j]-w[j] != 0 { // NaN or ±Inf
				x := w[j]
				clearScratch(lu, lo, hi, w, pos)
				return fmt.Errorf("ilu: %w %g at entry (%d,%d) of the factor", sparse.ErrNonFinite, x, i, j)
			}
		}
		for k := lo; k < hi; k++ {
			j := lu.ColIdx[k]
			lu.Val[k] = w[j]
			if opt.Modified && j >= i {
				rowSumU[i] += w[j]
			}
			w[j] = 0
			pos[j] = -1
		}
	}
	return nil
}

func clearScratch(lu *sparse.CSR, lo, hi int, w []float64, pos []int) {
	for k := lo; k < hi; k++ {
		j := lu.ColIdx[k]
		w[j] = 0
		pos[j] = -1
	}
}
