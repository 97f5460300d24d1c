package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"javelin/internal/util"
)

func mustValidate(t *testing.T, a *CSR) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func randomCSR(rng *util.RNG, n, m, avg int) *CSR {
	coo := NewCOO(n, m, n*avg)
	for i := 0; i < n; i++ {
		k := rng.Intn(avg*2) + 1
		for e := 0; e < k; e++ {
			coo.Add(i, rng.Intn(m), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

func TestCOOToCSRSumsDuplicates(t *testing.T) {
	coo := NewCOO(2, 2, 4)
	coo.Add(0, 1, 2.5)
	coo.Add(0, 1, 1.5)
	coo.Add(1, 0, -1)
	a := coo.ToCSR()
	mustValidate(t, a)
	if got := a.At(0, 1); got != 4.0 {
		t.Errorf("duplicate sum: got %g want 4", got)
	}
	if got := a.At(1, 0); got != -1.0 {
		t.Errorf("got %g want -1", got)
	}
	if a.Nnz() != 2 {
		t.Errorf("nnz %d want 2", a.Nnz())
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	d := [][]float64{
		{1, 0, 2},
		{0, 3, 0},
		{4, 0, 5},
	}
	a := FromDense(d)
	mustValidate(t, a)
	back := a.ToDense()
	for i := range d {
		for j := range d[i] {
			if back[i][j] != d[i][j] {
				t.Fatalf("(%d,%d): got %g want %g", i, j, back[i][j], d[i][j])
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := util.NewRNG(1)
	a := randomCSR(rng, 40, 30, 4)
	att := a.Transpose().Transpose()
	mustValidate(t, att)
	if att.N != a.N || att.M != a.M || att.Nnz() != a.Nnz() {
		t.Fatalf("shape/nnz changed: %dx%d/%d vs %dx%d/%d",
			att.N, att.M, att.Nnz(), a.N, a.M, a.Nnz())
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != att.ColIdx[k] || a.Val[k] != att.Val[k] {
			t.Fatalf("entry %d differs", k)
		}
	}
}

func TestTransposeMatVecAdjoint(t *testing.T) {
	// ⟨A·x, y⟩ == ⟨x, Aᵀ·y⟩ — property-based via testing/quick.
	check := func(seed uint64) bool {
		rng := util.NewRNG(seed)
		a := randomCSR(rng, 15, 12, 3)
		at := a.Transpose()
		x := make([]float64, a.M)
		y := make([]float64, a.N)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		ax := make([]float64, a.N)
		aty := make([]float64, a.M)
		a.MatVec(x, ax)
		at.MatVec(y, aty)
		return util.NearlyEqual(util.Dot(ax, y), util.Dot(x, aty), 1e-10, 1e-10)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSymmetrizedPatternIsSymmetric(t *testing.T) {
	rng := util.NewRNG(7)
	a := randomCSR(rng, 30, 30, 3)
	s := a.SymmetrizedPattern()
	mustValidate(t, s)
	if !s.PatternSymmetric() {
		t.Error("A+Aᵀ pattern not symmetric")
	}
	// Exactly the union of A's and Aᵀ's patterns, with zero values.
	stored := map[[2]int]bool{}
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			stored[[2]int{i, j}] = true
			stored[[2]int{j, i}] = true
		}
	}
	if s.Nnz() != len(stored) {
		t.Errorf("nnz %d, want %d", s.Nnz(), len(stored))
	}
	for i := 0; i < s.N; i++ {
		cols, vals := s.Row(i)
		for k, j := range cols {
			if !stored[[2]int{i, j}] || vals[k] != 0 {
				t.Errorf("entry (%d,%d) = %g, not a zero of the union", i, j, vals[k])
			}
		}
	}
}

func TestPermInverseComposeProperties(t *testing.T) {
	check := func(seed uint64) bool {
		rng := util.NewRNG(seed)
		n := 1 + rng.Intn(40)
		p := Perm(rng.Perm(n))
		if p.Validate() != nil {
			return false
		}
		inv := p.Inverse()
		for i := range p {
			if p[inv[i]] != i || inv[p[i]] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPermuteSymPreservesEntries(t *testing.T) {
	rng := util.NewRNG(11)
	a := randomCSR(rng, 30, 30, 4)
	p := Perm(rng.Perm(30))
	b := PermuteSym(a, p, 2)
	mustValidate(t, b)
	if b.Nnz() != a.Nnz() {
		t.Fatalf("nnz changed: %d vs %d", b.Nnz(), a.Nnz())
	}
	inv := p.Inverse()
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if got := b.At(inv[i], inv[j]); got != vals[k] {
				t.Fatalf("entry (%d,%d)=%g moved wrong: got %g", i, j, vals[k], got)
			}
		}
	}
}

func TestPermuteSymMatVecConsistency(t *testing.T) {
	// (P·A·Pᵀ)·(P·x) == P·(A·x)
	rng := util.NewRNG(13)
	a := randomCSR(rng, 35, 35, 3)
	p := Perm(rng.Perm(35))
	b := PermuteSym(a, p, 1)
	x := make([]float64, 35)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	gather := func(v []float64) []float64 {
		pv := make([]float64, len(p))
		for i, old := range p {
			pv[i] = v[old]
		}
		return pv
	}
	bpx := make([]float64, 35)
	b.MatVec(gather(x), bpx)
	ax := make([]float64, 35)
	a.MatVec(x, ax)
	pax := gather(ax)
	for i := range bpx {
		if !util.NearlyEqual(bpx[i], pax[i], 1e-12, 1e-12) {
			t.Fatalf("row %d: %g vs %g", i, bpx[i], pax[i])
		}
	}
}

func TestPermuteRows(t *testing.T) {
	a := FromDense([][]float64{
		{1, 2, 0},
		{0, 3, 4},
		{5, 0, 6},
	})
	p := Perm{2, 0, 1}
	r := PermuteRows(a, p)
	if r.At(0, 0) != 5 || r.At(1, 1) != 2 || r.At(2, 1) != 3 {
		t.Errorf("PermuteRows wrong: %v", r.ToDense())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := FromDense([][]float64{{1, 2}, {3, 4}})
	good := a.Clone()
	mustValidate(t, good)

	bad := a.Clone()
	bad.ColIdx[0], bad.ColIdx[1] = bad.ColIdx[1], bad.ColIdx[0]
	if bad.Validate() == nil {
		t.Error("unsorted columns not caught")
	}
	bad2 := a.Clone()
	bad2.RowPtr[1] = 5
	if bad2.Validate() == nil {
		t.Error("bad RowPtr not caught")
	}
	bad3 := a.Clone()
	bad3.ColIdx[0] = 99
	if bad3.Validate() == nil {
		t.Error("out-of-range column not caught")
	}
}

func TestDiagonalAndHasFullDiagonal(t *testing.T) {
	a := FromDense([][]float64{
		{2, 1, 0},
		{1, 0, 1}, // zero diag at (1,1) → entry absent
		{0, 1, 4},
	})
	if a.HasFullDiagonal() {
		t.Error("missing diagonal not detected")
	}
}

func TestNumericallySymmetric(t *testing.T) {
	a := FromDense([][]float64{{2, 1}, {1, 3}})
	if !a.NumericallySymmetric(0) {
		t.Error("symmetric matrix reported unsymmetric")
	}
	b := FromDense([][]float64{{2, 1}, {1.5, 3}})
	if b.NumericallySymmetric(1e-9) {
		t.Error("unsymmetric matrix reported symmetric")
	}
	if !b.NumericallySymmetric(0.6) {
		t.Error("tolerance not honored")
	}
}

func TestAtAbsentAndPresent(t *testing.T) {
	rng := util.NewRNG(21)
	a := randomCSR(rng, 20, 20, 3)
	dense := a.ToDense()
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if got := a.At(i, j); got != dense[i][j] {
				t.Fatalf("At(%d,%d)=%g want %g", i, j, got, dense[i][j])
			}
		}
	}
}

func TestRowDensity(t *testing.T) {
	a := FromDense([][]float64{{1, 1}, {1, 1}})
	if math.Abs(a.RowDensity()-2) > 1e-15 {
		t.Errorf("RowDensity %g want 2", a.RowDensity())
	}
}
