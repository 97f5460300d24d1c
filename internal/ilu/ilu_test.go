package ilu

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"javelin/internal/gen"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

// denseLU computes the exact dense LU (no pivoting) for reference.
func denseLU(a [][]float64) ([][]float64, error) {
	n := len(a)
	lu := make([][]float64, n)
	for i := range lu {
		lu[i] = append([]float64(nil), a[i]...)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if lu[i][j] == 0 {
				continue
			}
			if lu[j][j] == 0 {
				return nil, errors.New("zero pivot")
			}
			lij := lu[i][j] / lu[j][j]
			lu[i][j] = lij
			for k := j + 1; k < n; k++ {
				lu[i][k] -= lij * lu[j][k]
			}
		}
	}
	return lu, nil
}

func TestILU0ExactOnTridiagonal(t *testing.T) {
	// Tridiagonal LU has no fill, so ILU(0) equals exact LU.
	n := 20
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		d[i][i] = 4
		if i > 0 {
			d[i][i-1] = -1
			d[i-1][i] = -2
		}
	}
	a := sparse.FromDense(d)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := denseLU(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cols, vals := f.LU.Row(i)
		for k, j := range cols {
			if math.Abs(vals[k]-want[i][j]) > 1e-14 {
				t.Fatalf("(%d,%d): got %g want %g", i, j, vals[k], want[i][j])
			}
		}
	}
}

func TestILUFullFillEqualsDenseLU(t *testing.T) {
	// With k = n, ILU(k) admits all fill → exact LU on any matrix.
	rng := util.NewRNG(5)
	n := 12
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if rng.Float64() < 0.35 {
				d[i][j] = rng.NormFloat64()
			}
		}
		d[i][i] = 8 // dominance keeps pivots healthy
	}
	a := sparse.FromDense(d)
	f, err := Factorize(a, Options{FillLevel: n})
	if err != nil {
		t.Fatal(err)
	}
	want, err := denseLU(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := 0.0
			cols, vals := f.LU.Row(i)
			for k, c := range cols {
				if c == j {
					got = vals[k]
				}
			}
			if math.Abs(got-want[i][j]) > 1e-10 {
				t.Fatalf("(%d,%d): got %g want %g", i, j, got, want[i][j])
			}
		}
	}
}

func TestSymbolicPatternLevels(t *testing.T) {
	// Arrow matrix: last row/col full. ILU(0) keeps pattern; ILU(1)
	// adds fill created by the first elimination step reaching level 1.
	d := [][]float64{
		{4, 0, 0, 1},
		{0, 4, 0, 1},
		{0, 0, 4, 1},
		{1, 1, 1, 4},
	}
	a := sparse.FromDense(d)
	p0, err := SymbolicPattern(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Nnz() != a.Nnz() {
		t.Fatalf("ILU(0) pattern changed nnz: %d vs %d", p0.Nnz(), a.Nnz())
	}
	// Reverse arrow (first row/col full) creates fill everywhere at
	// level 1.
	d2 := [][]float64{
		{4, 1, 1, 1},
		{1, 4, 0, 0},
		{1, 0, 4, 0},
		{1, 0, 0, 4},
	}
	a2 := sparse.FromDense(d2)
	p1, err := SymbolicPattern(a2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Nnz() <= a2.Nnz() {
		t.Fatalf("ILU(1) admitted no fill on reverse arrow: %d vs %d", p1.Nnz(), a2.Nnz())
	}
	// Level-1 fill of the reverse arrow is the full matrix.
	if p1.Nnz() != 16 {
		t.Fatalf("ILU(1) reverse arrow nnz %d, want 16", p1.Nnz())
	}
}

func TestSymbolicPatternMonotoneInK(t *testing.T) {
	check := func(seed uint64) bool {
		a := gen.Circuit(gen.CircuitOptions{
			N: 120, AvgDeg: 3, NumHubs: 1, HubDeg: 10,
			UnsymFrac: 0.3, Locality: 20, Seed: seed,
		})
		prev := -1
		for k := 0; k <= 3; k++ {
			p, err := SymbolicPattern(a, k)
			if err != nil {
				return false
			}
			if p.Nnz() < prev {
				return false
			}
			prev = p.Nnz()
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSymbolicPatternAddsMissingDiagonal(t *testing.T) {
	d := [][]float64{
		{0, 1},
		{1, 0},
	}
	a := sparse.FromDense(d)
	p, err := SymbolicPattern(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasFullDiagonal() {
		t.Fatal("symbolic pattern lacks diagonal")
	}
}

func TestDropTolKeepsDiagonalAndDropsSmall(t *testing.T) {
	a := gen.GridLaplacian(12, 12, 1, gen.Box9, 2.0)
	f, err := Factorize(a, Options{DropTol: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for i := 0; i < f.N(); i++ {
		if f.LU.Val[f.DiagPos[i]] == 0 {
			t.Fatalf("diagonal %d dropped", i)
		}
	}
	for _, v := range f.LU.Val {
		if v == 0 {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("DropTol=0.2 dropped nothing on a 9-point Laplacian")
	}
}

func TestMILURowSums(t *testing.T) {
	// (L·U)·e == A·e under MILU with dropping.
	a := gen.TetraMesh(6, 6, 6, 21)
	f, err := Factorize(a, Options{Modified: true, DropTol: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	ue := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for k := f.DiagPos[i]; k < f.LU.RowPtr[i+1]; k++ {
			s += f.LU.Val[k]
		}
		ue[i] = s
	}
	for i := 0; i < n; i++ {
		lue := ue[i]
		for k := f.LU.RowPtr[i]; k < f.LU.RowPtr[i+1]; k++ {
			c := f.LU.ColIdx[k]
			if c >= i {
				break
			}
			lue += f.LU.Val[k] * ue[c]
		}
		ae := 0.0
		_, vals := a.Row(i)
		for k := range vals {
			ae += vals[k]
		}
		if !util.NearlyEqual(lue, ae, 1e-9, 1e-9) {
			t.Fatalf("row %d: (LU)e=%g Ae=%g", i, lue, ae)
		}
	}
}

func TestZeroPivotError(t *testing.T) {
	a := sparse.FromDense([][]float64{
		{1, 2},
		{2, 4}, // exactly singular 2x2 → pivot cancels
	})
	_, err := Factorize(a, Options{})
	if !errors.Is(err, ErrZeroPivot) {
		t.Fatalf("want ErrZeroPivot, got %v", err)
	}
}

// TestNaNPivotError: a NaN pivot must fail the factorization like a
// zero one; a magnitude comparison alone lets NaN through.
func TestNaNPivotError(t *testing.T) {
	a := sparse.FromDense([][]float64{
		{math.NaN(), 2},
		{2, 4},
	})
	_, err := Factorize(a, Options{})
	if !errors.Is(err, ErrZeroPivot) {
		t.Fatalf("want ErrZeroPivot, got %v", err)
	}
}

// TestOverflowFailsNonFinite: all-finite input whose factor
// overflows (a 1e-200 pivot under couplings of 1e200 makes the L entry
// +Inf and the next pivot −Inf, which the pivot guard lets through)
// fails with ErrNonFinite, and so does refactorizing a good factor
// (the same pattern with a 1e200 pivot) to it.
func TestOverflowFailsNonFinite(t *testing.T) {
	overflow := func(a00 float64) *sparse.CSR {
		return sparse.FromDense([][]float64{
			{a00, 1e200, 0},
			{1e200, 1, 1},
			{0, 1, 1},
		})
	}
	if _, err := Factorize(overflow(1e-200), Options{}); !errors.Is(err, sparse.ErrNonFinite) {
		t.Fatalf("Factorize: want ErrNonFinite, got %v", err)
	}
	f, err := Factorize(overflow(1e200), Options{})
	if err != nil {
		t.Fatalf("Factorize of the good matrix: %v", err)
	}
	if err := Refactorize(f, overflow(1e-200), Options{}); !errors.Is(err, sparse.ErrNonFinite) {
		t.Fatalf("Refactorize: want ErrNonFinite, got %v", err)
	}
}

func TestRefactorizeReusesPattern(t *testing.T) {
	a := gen.GridLaplacian(10, 10, 1, gen.Star5, 1)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 2
	}
	if err := Refactorize(f, a2, Options{}); err != nil {
		t.Fatal(err)
	}
	g, err := Factorize(a2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range f.LU.Val {
		if f.LU.Val[k] != g.LU.Val[k] {
			t.Fatalf("refactorize mismatch at %d", k)
		}
	}
}

func TestNonSquareRejected(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	if _, err := Factorize(coo.ToCSR(), Options{}); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestFactorResidualSmallOnDominantMatrix(t *testing.T) {
	// For strictly diagonally dominant M-matrices ILU(0) is a good
	// approximation: ‖A − LU‖_F / ‖A‖_F well below 1.
	a := gen.GridLaplacian(16, 16, 1, gen.Star5, 2.0)
	f, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	// Compute LU product restricted to a's pattern plus measure total.
	var num, den float64
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			prod := 0.0
			// (LU)_ij = Σ_t l_it u_tj with l_ii = 1.
			lcols, lvals := f.LU.Row(i)
			for kt, tcol := range lcols {
				if tcol > j && tcol >= i {
					break
				}
				var lit float64
				if tcol < i {
					lit = lvals[kt]
				} else if tcol == i {
					lit = 1
				} else {
					continue
				}
				if tcol > j {
					continue
				}
				// find u_{tcol, j}
				ucols, uvals := f.LU.Row(tcol)
				for ku, uc := range ucols {
					if uc == j && uc >= tcol {
						prod += lit * uvals[ku]
					}
				}
			}
			if j == i && i < n {
				// include diagonal of L implicitly (done above via tcol==i)
				_ = k
			}
			diff := prod - vals[k]
			num += diff * diff
			den += vals[k] * vals[k]
		}
	}
	if math.Sqrt(num/den) > 0.2 {
		t.Errorf("relative ILU(0) residual on pattern %g too large", math.Sqrt(num/den))
	}
}
