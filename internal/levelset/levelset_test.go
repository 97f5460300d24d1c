package levelset

import (
	"testing"
	"testing/quick"

	"javelin/internal/gen"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

func tridiag(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
			coo.Add(i-1, i, -1)
		}
	}
	return coo.ToCSR()
}

func diagonal(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	return coo.ToCSR()
}

func TestLevelsOfDiagonalMatrix(t *testing.T) {
	lv := Compute(diagonal(10), LowerA)
	if lv.Count != 1 {
		t.Fatalf("diagonal matrix: %d levels, want 1", lv.Count)
	}
	if lv.LevelSize(0) != 10 {
		t.Fatalf("level 0 size %d, want 10", lv.LevelSize(0))
	}
}

func TestLevelsOfChain(t *testing.T) {
	lv := Compute(tridiag(12), LowerA)
	if lv.Count != 12 {
		t.Fatalf("chain: %d levels, want 12", lv.Count)
	}
	for l := 0; l < lv.Count; l++ {
		if lv.LevelSize(l) != 1 {
			t.Fatalf("chain level %d size %d, want 1", l, lv.LevelSize(l))
		}
	}
}

// aatPattern returns the pattern of A+Aᵀ, built from a's transpose:
// the reference the one-pass LowerAAT levels are checked against.
func aatPattern(a *sparse.CSR) *sparse.CSR {
	at := a.Transpose()
	coo := sparse.NewCOO(a.N, a.N, 2*a.Nnz())
	for i := 0; i < a.N; i++ {
		for _, m := range []*sparse.CSR{a, at} {
			cols, _ := m.Row(i)
			for _, j := range cols {
				coo.Add(i, j, 1)
			}
		}
	}
	return coo.ToCSR()
}

// patternOf builds an n×n pattern from (row, col) pairs.
func patternOf(n int, entries ...[2]int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, len(entries))
	for _, e := range entries {
		coo.Add(e[0], e[1], 1)
	}
	return coo.ToCSR()
}

// randomPattern draws an unsymmetric n×n pattern: each row gets a few
// columns anywhere, and its diagonal only with probability 1/2.
func randomPattern(rng *util.RNG, n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 4*n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			coo.Add(i, i, 1)
		}
		for k := rng.Intn(4); k > 0; k-- {
			coo.Add(i, rng.Intn(n), 1)
		}
	}
	return coo.ToCSR()
}

// firstLevelDiff returns the first row whose level differs between
// the two schedules, or -1 when they agree.
func firstLevelDiff(lv, ref *Levels) int {
	for i, l := range lv.RowLvl {
		if l != ref.RowLvl[i] {
			return i
		}
	}
	return -1
}

// TestLevelsValidateOnSuiteLikeMatrices: on suite-like matrices, on
// random unsymmetric patterns, on patterns whose rows have off-diagonal
// entries only above the diagonal, and on empty rows, missing
// diagonals and n = 1, both sources give a legal level schedule for
// their pattern whose sizes sum to N, and the one-pass LowerAAT levels
// equal the levels of lower(A+Aᵀ) built from a's transpose. Only the
// LowerAAT pass's push step (a row raising the later rows its
// above-diagonal entries name) sees the dependencies of the above-only
// and unsymmetric inputs.
func TestLevelsValidateOnSuiteLikeMatrices(t *testing.T) {
	mats := []*sparse.CSR{
		gen.GridLaplacian(15, 15, 1, gen.Star5, 0.5),
		gen.TetraMesh(6, 6, 6, 3),
		gen.Circuit(gen.CircuitOptions{N: 400, AvgDeg: 4, NumHubs: 2, HubDeg: 30, UnsymFrac: 0.3, Locality: 40, Seed: 1}),
		// Upper bidiagonal: every dependency is above the diagonal.
		patternOf(5, [2]int{0, 0}, [2]int{0, 1}, [2]int{1, 1}, [2]int{1, 2}, [2]int{2, 2}, [2]int{2, 3},
			[2]int{3, 3}, [2]int{3, 4}, [2]int{4, 4}),
		// Row 0 reaches forward to rows 3 and 5; rows 1, 2 and 4 are
		// empty; row 5 has no diagonal.
		patternOf(6, [2]int{0, 3}, [2]int{0, 5}, [2]int{3, 3}, [2]int{3, 5}),
		patternOf(1),
		patternOf(1, [2]int{0, 0}),
	}
	rng := util.NewRNG(9)
	for k := 0; k < 40; k++ {
		mats = append(mats, randomPattern(rng, 1+rng.Intn(60)))
	}
	for mi, a := range mats {
		for _, src := range []PatternSource{LowerA, LowerAAT} {
			lv := Compute(a, src)
			pat := a
			if src == LowerAAT {
				pat = aatPattern(a)
				ref := Compute(pat, LowerA)
				if i := firstLevelDiff(lv, ref); i >= 0 {
					t.Errorf("matrix %d (n=%d): LowerAAT level of row %d is %d, lower(A+Aᵀ) gives %d",
						mi, a.N, i, lv.RowLvl[i], ref.RowLvl[i])
				}
			}
			if err := lv.Validate(pat); err != nil {
				t.Errorf("matrix %d src %v: %v", mi, src, err)
			}
			// Sum of level sizes must be N.
			total := 0
			for l := 0; l < lv.Count; l++ {
				total += lv.LevelSize(l)
			}
			if total != a.N {
				t.Errorf("matrix %d: level sizes sum %d != N %d", mi, total, a.N)
			}
		}
	}
}

func TestLevelPermIsLevelMajor(t *testing.T) {
	a := gen.GridLaplacian(10, 10, 1, gen.Star5, 1)
	lv := Compute(a, LowerAAT)
	p := lv.Perm()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// After permuting, levels must be non-decreasing along rows.
	prev := -1
	for _, old := range p {
		l := lv.RowLvl[old]
		if l < prev {
			t.Fatalf("perm not level-major: level %d after %d", l, prev)
		}
		prev = l
	}
}

func TestAATLevelsDominateLowerA(t *testing.T) {
	// lower(A+Aᵀ) has a superset of dependencies, so per-row levels
	// are >= the lower(A) levels (property-based over random circuit
	// matrices).
	check := func(seed uint64) bool {
		a := gen.Circuit(gen.CircuitOptions{
			N: 150, AvgDeg: 3, NumHubs: 1, HubDeg: 15,
			UnsymFrac: 0.5, Locality: 25, Seed: seed,
		})
		la := Compute(a, LowerA)
		laat := Compute(a, LowerAAT)
		for i := 0; i < a.N; i++ {
			if laat.RowLvl[i] < la.RowLvl[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSplitMovesTrailingSmallLevels(t *testing.T) {
	// Long thin grid: the tail of the elimination has small levels.
	a := gen.GridLaplacian(120, 6, 1, gen.Star5, 1)
	opt := DefaultSplitOptions()
	opt.MinRowsPerLevel = 16
	s := ComputeSplit(a, LowerAAT, opt)
	if err := s.Validate(a); err != nil {
		t.Fatalf("split invalid: %v", err)
	}
	if s.NUpper+s.NLower() != a.N {
		t.Fatalf("row count mismatch")
	}
	// All kept upper levels before the last must respect the rules
	// only at the tail (middle small levels may remain — that is the
	// design); at minimum the split must keep at least one level.
	if s.CutLevel < 1 {
		t.Fatalf("split removed every level")
	}
}

func TestSplitMonotoneInA(t *testing.T) {
	// R-A is non-decreasing in A (Table III columns R-16 ≤ R-24 ≤ R-32).
	a := gen.TetraMesh(9, 9, 9, 17)
	prev := -1
	for _, minRows := range []int{8, 16, 24, 32, 48} {
		opt := DefaultSplitOptions()
		opt.MinRowsPerLevel = minRows
		s := ComputeSplit(a, LowerAAT, opt)
		if s.NLower() < prev {
			t.Fatalf("R-%d = %d < previous %d", minRows, s.NLower(), prev)
		}
		prev = s.NLower()
	}
}

func TestNoSplitKeepsEverything(t *testing.T) {
	a := gen.GridLaplacian(30, 30, 1, gen.Star5, 1)
	s := NoSplit(a, LowerAAT)
	if s.NLower() != 0 || s.NUpper != a.N || s.CutLevel != s.Lv.Count {
		t.Fatalf("NoSplit moved rows: upper=%d lower=%d", s.NUpper, s.NLower())
	}
	if err := s.Validate(a); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMaxLowerFracCap(t *testing.T) {
	// A chain would otherwise push everything down with huge A.
	a := tridiag(200)
	opt := DefaultSplitOptions()
	opt.MinRowsPerLevel = 1000 // every level is "small"
	opt.MaxLowerFrac = 0.3
	s := ComputeSplit(a, LowerAAT, opt)
	if got := float64(s.NLower()) / 200; got > 0.3+1e-9 {
		t.Fatalf("lower fraction %g exceeds cap", got)
	}
}

func TestSplitStatsAgainstPaperRegime(t *testing.T) {
	// The fem_filter analogue must show the Table III signature:
	// many levels, small median, large R-16.
	spec, ok := gen.ByName("fem_filter")
	if !ok {
		t.Fatal("spec missing")
	}
	a := spec.Build(4000)
	lv := Compute(a, LowerAAT)
	st := lv.ComputeStats()
	if st.Levels < 30 {
		t.Errorf("fem_filter analogue has %d levels; want many (paper: 554)", st.Levels)
	}
	if st.Median > 120 {
		t.Errorf("median level size %g; want small (paper: 3)", st.Median)
	}
}

func TestComputeStatsValues(t *testing.T) {
	a := tridiag(5)
	lv := Compute(a, LowerA)
	st := lv.ComputeStats()
	if st.Levels != 5 || st.Min != 1 || st.Max != 1 || st.Median != 1 {
		t.Fatalf("stats %+v", st)
	}
}
