// Package levelset implements level scheduling of triangular sparsity
// patterns — the core scheduling structure of Javelin — together with
// the two-stage upper/lower partition of the paper (Section III) and
// the level statistics reported in Tables I, III and IV.
//
// A level assignment for a lower-triangular pattern L maps each row i
// to level(i) = 1 + max{level(j) : j ∈ pattern(row i), j < i} (0 when
// the row has no sub-diagonal dependencies). Rows within one level
// are mutually independent and can be factored or solved concurrently.
package levelset

import (
	"sort"

	"javelin/internal/sparse"
	"javelin/internal/util"
)

// Levels holds a level assignment of the rows of a triangular pattern.
type Levels struct {
	N       int
	RowLvl  []int // RowLvl[i] = level of row i
	Count   int   // number of levels
	LvlPtr  []int // CSR-style: rows of level l are LvlRows[LvlPtr[l]:LvlPtr[l+1]]
	LvlRows []int // rows grouped by level, ascending row index inside a level
}

// PatternSource selects which pattern the level schedule is computed
// from (paper Section III: lower(A) vs lower(A+Aᵀ)).
type PatternSource int

const (
	// LowerA uses the strictly lower triangle of A itself.
	LowerA PatternSource = iota
	// LowerAAT uses the strictly lower triangle of A+Aᵀ, the source
	// the engine levels on: two rows of one level share no entry in
	// either triangle, so the rows of one lower-stage corner group are
	// mutually independent in any order.
	LowerAAT
)

// String returns the paper's notation for the source.
func (s PatternSource) String() string {
	if s == LowerA {
		return "lower(A)"
	}
	return "lower(A+A^T)"
}

// Compute builds the level schedule for the chosen pattern of a.
func Compute(a *sparse.CSR, src PatternSource) *Levels {
	var pat *sparse.CSR
	switch src {
	case LowerA:
		pat = a
	case LowerAAT:
		pat = a.SymmetrizedPattern()
	}
	return FromLowerPattern(pat)
}

// FromLowerPattern computes levels from any square CSR, considering
// only entries strictly below the diagonal (so callers may pass the
// full matrix).
func FromLowerPattern(a *sparse.CSR) *Levels {
	n := a.N
	lvl := make([]int, n)
	maxLvl := -1
	for i := 0; i < n; i++ {
		l := 0
		cols, _ := a.Row(i)
		for _, j := range cols {
			if j >= i {
				break
			}
			if lvl[j]+1 > l {
				l = lvl[j] + 1
			}
		}
		lvl[i] = l
		if l > maxLvl {
			maxLvl = l
		}
	}
	count := maxLvl + 1
	if n == 0 {
		count = 0
	}
	ptr := make([]int, count+1)
	for _, l := range lvl {
		ptr[l+1]++
	}
	for l := 0; l < count; l++ {
		ptr[l+1] += ptr[l]
	}
	rows := make([]int, n)
	next := make([]int, count)
	copy(next, ptr[:count])
	for i := 0; i < n; i++ {
		rows[next[lvl[i]]] = i
		next[lvl[i]]++
	}
	return &Levels{N: n, RowLvl: lvl, Count: count, LvlPtr: ptr, LvlRows: rows}
}

// LevelRows returns the rows of level l (no copy, ascending).
func (lv *Levels) LevelRows(l int) []int {
	return lv.LvlRows[lv.LvlPtr[l]:lv.LvlPtr[l+1]]
}

// LevelSize returns the number of rows in level l.
func (lv *Levels) LevelSize(l int) int {
	return lv.LvlPtr[l+1] - lv.LvlPtr[l]
}

// Sizes returns the per-level row counts.
func (lv *Levels) Sizes() []int {
	s := make([]int, lv.Count)
	for l := range s {
		s[l] = lv.LevelSize(l)
	}
	return s
}

// Perm returns the level-set permutation p[new] = old: rows sorted by
// (level, original index). This is the ordering Javelin imposes on
// the coefficient matrix ("LS-*" orderings in Table II).
func (lv *Levels) Perm() sparse.Perm {
	p := make(sparse.Perm, lv.N)
	copy(p, lv.LvlRows)
	return p
}

// Stats summarises a level schedule the way Tables I/III/IV do.
type Stats struct {
	Levels int
	Min    int
	Max    int
	Median float64
}

// ComputeStats returns level-count statistics.
func (lv *Levels) ComputeStats() Stats {
	if lv.Count == 0 {
		return Stats{}
	}
	sizes := lv.Sizes()
	mn, mx := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < mn {
			mn = s
		}
		if s > mx {
			mx = s
		}
	}
	return Stats{
		Levels: lv.Count,
		Min:    mn,
		Max:    mx,
		Median: util.Median(sizes),
	}
}

// Validate checks the internal consistency of the level structure and
// that it is a legal schedule for the strictly-lower pattern of a
// (every sub-diagonal dependency crosses from a strictly smaller
// level).
func (lv *Levels) Validate(a *sparse.CSR) error {
	for i := 0; i < lv.N; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if j >= i {
				break
			}
			if lv.RowLvl[j] >= lv.RowLvl[i] {
				return errLevelOrder(i, j, lv.RowLvl[i], lv.RowLvl[j])
			}
		}
	}
	// Grouping consistency.
	for l := 0; l < lv.Count; l++ {
		rows := lv.LevelRows(l)
		if !sort.IntsAreSorted(rows) {
			return errUnsorted(l)
		}
		for _, r := range rows {
			if lv.RowLvl[r] != l {
				return errGroup(r, l, lv.RowLvl[r])
			}
		}
	}
	return nil
}
