// Package sparse implements the compressed sparse row (CSR) matrix
// substrate used throughout Javelin: construction from coordinate
// form, permutation, transposition, and structural diagnostics.
//
// Javelin deliberately stays in plain CSR — the paper's thesis is that
// scalable ILU and triangular solves do not need exotic formats, only
// a level-aware permutation plus a small amount of per-row span
// metadata.
package sparse

import (
	"errors"
	"fmt"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format.
// Row i owns entries ColIdx[RowPtr[i]:RowPtr[i+1]] with matching
// values in Val. Column indices within each row are sorted ascending
// and unique; constructors enforce this invariant.
type CSR struct {
	N      int       // number of rows
	M      int       // number of columns
	RowPtr []int     // length N+1
	ColIdx []int     // length nnz
	Val    []float64 // length nnz
}

// Nnz returns the number of stored entries.
func (a *CSR) Nnz() int { return len(a.ColIdx) }

// RowDensity returns nnz divided by N (the paper's RD column).
func (a *CSR) RowDensity() float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.Nnz()) / float64(a.N)
}

// Row returns the column indices and values of row i as sub-slices
// (no copy). Callers must not append.
func (a *CSR) Row(i int) ([]int, []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// RowLen returns the number of stored entries in row i.
func (a *CSR) RowLen(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// At returns the value at (i, j), or 0 if the entry is not stored.
// O(log rowlen) via binary search; intended for tests and examples,
// not inner loops.
func (a *CSR) At(i, j int) float64 {
	cols, vals := a.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Clone returns a deep copy of a.
func (a *CSR) Clone() *CSR {
	b := &CSR{N: a.N, M: a.M}
	b.RowPtr = append([]int(nil), a.RowPtr...)
	b.ColIdx = append([]int(nil), a.ColIdx...)
	b.Val = append([]float64(nil), a.Val...)
	return b
}

// Validate checks CSR invariants: monotone row pointers, in-range and
// strictly ascending column indices per row, and matching array
// lengths. It returns a descriptive error for the first violation.
func (a *CSR) Validate() error {
	if a.N < 0 || a.M < 0 {
		return errors.New("sparse: negative dimension")
	}
	if len(a.RowPtr) != a.N+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.N+1)
	}
	if a.RowPtr[0] != 0 {
		return errors.New("sparse: RowPtr[0] != 0")
	}
	if len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: ColIdx length %d != Val length %d", len(a.ColIdx), len(a.Val))
	}
	if a.RowPtr[a.N] != len(a.ColIdx) {
		return fmt.Errorf("sparse: RowPtr[N]=%d != nnz=%d", a.RowPtr[a.N], len(a.ColIdx))
	}
	for i := 0; i < a.N; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			if c < 0 || c >= a.M {
				return fmt.Errorf("sparse: column %d out of range in row %d", c, i)
			}
			if c <= prev {
				return fmt.Errorf("sparse: columns not strictly ascending in row %d", i)
			}
			prev = c
		}
	}
	return nil
}

// HasFullDiagonal reports whether every row i stores an entry (i, i).
// ILU without pivoting requires a structurally nonzero diagonal.
func (a *CSR) HasFullDiagonal() bool {
	n := a.N
	if a.M < n {
		n = a.M
	}
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		k := sort.SearchInts(cols, i)
		if k >= len(cols) || cols[k] != i {
			return false
		}
	}
	return true
}

// PatternSymmetric reports whether the sparsity pattern of a (square)
// is symmetric: (i,j) stored iff (j,i) stored. This is the paper's
// "SP" column in Table I.
func (a *CSR) PatternSymmetric() bool {
	if a.N != a.M {
		return false
	}
	at := a.Transpose()
	for i := 0; i <= a.N; i++ {
		if a.RowPtr[i] != at.RowPtr[i] {
			return false
		}
	}
	for k, c := range a.ColIdx {
		if at.ColIdx[k] != c {
			return false
		}
	}
	return true
}

// NumericallySymmetric reports whether a equals its transpose to
// within tol (absolute) on every stored entry.
func (a *CSR) NumericallySymmetric(tol float64) bool {
	if a.N != a.M {
		return false
	}
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			d := vals[k] - a.At(j, i)
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}
