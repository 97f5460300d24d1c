package levelset

import (
	"fmt"

	"javelin/internal/sparse"
)

// SplitOptions controls the two-stage partition of Section III: which
// levels are factored by level scheduling (upper stage) and which rows
// are permuted to the end for the lower-stage methods (SR/ER).
type SplitOptions struct {
	// MinRowsPerLevel is the paper's sensitivity parameter A (Table
	// III tests 16, 24, 32): a trailing level with fewer rows is moved
	// to the lower stage.
	MinRowsPerLevel int
	// DensityFactor moves a trailing level down when its mean row
	// density exceeds DensityFactor × the matrix's overall RD.
	// Zero disables the density rule.
	DensityFactor float64
	// MaxLowerFrac caps the fraction of rows that may be moved to the
	// lower stage (safety against degenerate schedules); trimming
	// stops before exceeding it. Zero means the default 0.5.
	MaxLowerFrac float64
	// MinLocationFrac is the "relative location" rule: only levels in
	// the trailing (1-MinLocationFrac) portion of the level sequence
	// are eligible to move down. Small levels in the middle of large
	// level sets are kept in the upper stage (paper Fig. 3), where a
	// kept level costs one gate wait inside the factorization pass's
	// region. Zero means the default 0.25.
	MinLocationFrac float64
}

// DefaultSplitOptions mirrors the paper's defaults (A = 16).
func DefaultSplitOptions() SplitOptions {
	return SplitOptions{
		MinRowsPerLevel: 16,
		DensityFactor:   4.0,
		MaxLowerFrac:    0.5,
		MinLocationFrac: 0.25,
	}
}

func (o SplitOptions) withDefaults() SplitOptions {
	if o.MinRowsPerLevel <= 0 {
		o.MinRowsPerLevel = 16
	}
	if o.MaxLowerFrac <= 0 {
		o.MaxLowerFrac = 0.5
	}
	if o.MinLocationFrac <= 0 {
		o.MinLocationFrac = 0.25
	}
	return o
}

// Split is the two-stage partition of a matrix's rows.
//
// After applying Perm (symmetrically), the matrix has the structure
// of paper Fig. 2: upper-stage rows come first, grouped by level in
// contiguous ranges; lower-stage rows are last, also grouped by their
// original level.
type Split struct {
	Src      PatternSource
	Lv       *Levels     // level schedule on original indices
	CutLevel int         // levels [0,CutLevel) are upper stage
	NUpper   int         // number of upper-stage rows
	Perm     sparse.Perm // p[new]=old: (level-major upper rows) ++ (level-major lower rows)

	// UpperLvlPtr[l]..UpperLvlPtr[l+1] is the new-index row range of
	// upper level l; len = CutLevel+1; UpperLvlPtr[CutLevel] == NUpper.
	UpperLvlPtr []int
	// LowerLvlPtr gives, per lower level (original level CutLevel+i),
	// the new-index row range NUpper+LowerLvlPtr[i] .. NUpper+LowerLvlPtr[i+1].
	LowerLvlPtr []int
}

// NLower returns the number of rows moved to the end (Table III's R-A).
func (s *Split) NLower() int { return s.Lv.N - s.NUpper }

// NumLowerLevels returns the number of level groups in the lower stage.
func (s *Split) NumLowerLevels() int { return len(s.LowerLvlPtr) - 1 }

// ComputeSplit builds the two-stage partition for a with the given
// pattern source and options.
//
// The trimming rule scans levels from the last towards the first and
// moves a level to the lower stage while (a) it is small
// (< MinRowsPerLevel) or too dense (DensityFactor rule), (b) the level
// lies in the trailing portion allowed by MinLocationFrac, and (c) the
// accumulated lower rows stay within MaxLowerFrac. The scan stops at
// the first level that fails (a): small levels strictly between kept
// levels remain in the upper stage (Fig. 3's point).
func ComputeSplit(a *sparse.CSR, src PatternSource, opt SplitOptions) *Split {
	opt = opt.withDefaults()
	lv := Compute(a, src)
	n := a.N
	rd := a.RowDensity()

	minKeep := int(opt.MinLocationFrac * float64(lv.Count))
	if minKeep < 1 {
		minKeep = 1
	}
	maxLower := int(opt.MaxLowerFrac * float64(n))

	cut := lv.Count
	lower := 0
	for cut > minKeep {
		l := cut - 1
		size := lv.LevelSize(l)
		small := size < opt.MinRowsPerLevel
		dense := false
		if opt.DensityFactor > 0 && rd > 0 {
			nnzLvl := 0
			for _, r := range lv.LevelRows(l) {
				nnzLvl += a.RowLen(r)
			}
			dense = float64(nnzLvl)/float64(size) > opt.DensityFactor*rd
		}
		if !small && !dense {
			break
		}
		if lower+size > maxLower {
			break
		}
		lower += size
		cut--
	}

	s := &Split{Src: src, Lv: lv, CutLevel: cut, NUpper: n - lower}
	s.buildPerm()
	return s
}

// NoSplit builds a degenerate split with every level in the upper
// stage (lower stage empty). This is the paper's "LS" configuration:
// level scheduling only, each level costing one gate wait inside the
// factorization pass's region.
func NoSplit(a *sparse.CSR, src PatternSource) *Split {
	lv := Compute(a, src)
	s := &Split{Src: src, Lv: lv, CutLevel: lv.Count, NUpper: a.N}
	s.buildPerm()
	return s
}

func (s *Split) buildPerm() {
	lv := s.Lv
	n := lv.N
	p := make(sparse.Perm, 0, n)
	s.UpperLvlPtr = make([]int, 0, s.CutLevel+1)
	s.UpperLvlPtr = append(s.UpperLvlPtr, 0)
	for l := 0; l < s.CutLevel; l++ {
		p = append(p, lv.LevelRows(l)...)
		s.UpperLvlPtr = append(s.UpperLvlPtr, len(p))
	}
	s.LowerLvlPtr = make([]int, 0, lv.Count-s.CutLevel+1)
	s.LowerLvlPtr = append(s.LowerLvlPtr, 0)
	for l := s.CutLevel; l < lv.Count; l++ {
		p = append(p, lv.LevelRows(l)...)
		s.LowerLvlPtr = append(s.LowerLvlPtr, len(p)-s.NUpper)
	}
	s.Perm = p
}

// Validate checks structural invariants of the split against the
// (unpermuted) matrix a: the permutation is a bijection, upper levels
// are contiguous and cover [0, NUpper), and every dependency of an
// upper row resolves to an earlier level while lower-row dependencies
// point only to upper rows or earlier lower rows (in new indexing).
// An entry (r, c) of the permuted matrix with c < r is a dependency of
// row r on row c; under LowerAAT one with c > r is also a dependency,
// of row c on row r.
func (s *Split) Validate(a *sparse.CSR) error {
	if err := s.Perm.Validate(); err != nil {
		return err
	}
	if s.UpperLvlPtr[len(s.UpperLvlPtr)-1] != s.NUpper {
		return fmt.Errorf("levelset: UpperLvlPtr end %d != NUpper %d",
			s.UpperLvlPtr[len(s.UpperLvlPtr)-1], s.NUpper)
	}
	perm := sparse.PermuteSym(a, s.Perm, 1)
	// In the permuted matrix, the level of each upper row must be
	// within its assigned band, and all dependencies of an upper row
	// must reference strictly earlier bands.
	newLvl := make([]int, perm.N)
	for l := 0; l < s.CutLevel; l++ {
		for r := s.UpperLvlPtr[l]; r < s.UpperLvlPtr[l+1]; r++ {
			newLvl[r] = l
		}
	}
	check := func(r, c int) error {
		if r >= s.NUpper {
			return nil
		}
		if c >= s.NUpper {
			return fmt.Errorf("levelset: upper row %d depends on lower row %d", r, c)
		}
		if newLvl[c] >= newLvl[r] {
			return fmt.Errorf("levelset: upper row %d (lvl %d) depends on row %d (lvl %d)",
				r, newLvl[r], c, newLvl[c])
		}
		return nil
	}
	for r := 0; r < perm.N; r++ {
		cols, _ := perm.Row(r)
		for _, c := range cols {
			var err error
			switch {
			case c < r:
				err = check(r, c)
			case c > r && s.Src == LowerAAT:
				err = check(c, r)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
