package baseline

import (
	"errors"
	"math"
	"testing"

	"javelin/internal/gen"
	"javelin/internal/ilu"
	"javelin/internal/sparse"
	"javelin/internal/trisolve"
	"javelin/internal/util"
)

func TestSupernodalFactorSolvesSystem(t *testing.T) {
	a := gen.GridLaplacian(14, 14, 1, gen.Star5, 0.5)
	f, err := Supernodal(a, DefaultSupernodalOptions())
	if err != nil {
		t.Fatalf("Supernodal: %v", err)
	}
	n := a.N
	rng := util.NewRNG(1)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MatVec(xTrue, b)
	// One M⁻¹ application must be a decent approximation: ‖x − x*‖
	// small relative to ‖x*‖ for a dominant Laplacian.
	y := make([]float64, n)
	x := make([]float64, n)
	trisolve.SolveLowerSerial(f, b, y)
	trisolve.SolveUpperSerial(f, y, x)
	num, den := 0.0, 0.0
	for i := range x {
		num += (x[i] - xTrue[i]) * (x[i] - xTrue[i])
		den += xTrue[i] * xTrue[i]
	}
	if math.Sqrt(num/den) > 0.6 {
		t.Errorf("ILUT preconditioner error %g too large", math.Sqrt(num/den))
	}
}

func TestSupernodalThreadCountsAgreeSerially(t *testing.T) {
	// Panel rows are independent in phase A, so thread count must not
	// change the factor values.
	a := gen.TetraMesh(6, 6, 6, 9)
	opt := DefaultSupernodalOptions()
	f1, err := Supernodal(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Threads = 4
	f4, err := Supernodal(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if f1.LU.Nnz() != f4.LU.Nnz() {
		t.Fatalf("nnz differs: %d vs %d", f1.LU.Nnz(), f4.LU.Nnz())
	}
	for k := range f1.LU.Val {
		if f1.LU.Val[k] != f4.LU.Val[k] {
			t.Fatalf("value differs at %d", k)
		}
	}
}

func TestSupernodalFailsOnHardPivot(t *testing.T) {
	// Near-cancellation drives the pivot to ~1e-12 while maxDiag ≈ 4:
	// below the baseline's relative floor (1e-10·maxDiag) but far
	// above Javelin's absolute floor — the Fig. 9 'x' case where the
	// baseline fails and Javelin succeeds.
	a := sparse.FromDense([][]float64{
		{1, 2, 0},
		{2, 4 + 1e-12, 1},
		{0, 1, 3},
	})
	_, err := Supernodal(a, DefaultSupernodalOptions())
	if !errors.Is(err, ErrNumericalFailure) {
		t.Fatalf("want ErrNumericalFailure, got %v", err)
	}
	// Javelin's reference factorization handles the same matrix.
	if _, err := ilu.Factorize(a, ilu.Options{}); err != nil {
		t.Fatalf("reference ILU unexpectedly failed too: %v", err)
	}
}

func TestDetectPanelsCoversAllRows(t *testing.T) {
	a := gen.GridLaplacian(10, 10, 1, gen.Box9, 1)
	opt := DefaultSupernodalOptions()
	panels := detectPanels(a, opt)
	covered := 0
	prevHi := 0
	for _, p := range panels {
		if p.lo != prevHi {
			t.Fatalf("gap before panel at %d", p.lo)
		}
		if p.hi-p.lo > opt.MaxPanel {
			t.Fatalf("panel too large: %d", p.hi-p.lo)
		}
		covered += p.hi - p.lo
		prevHi = p.hi
	}
	if covered != a.N {
		t.Fatalf("panels cover %d of %d rows", covered, a.N)
	}
}

func TestJaccardBounds(t *testing.T) {
	a := gen.GridLaplacian(8, 8, 1, gen.Star5, 1)
	for i := 0; i+1 < a.N; i++ {
		j := jaccard(a, i, i+1)
		if j < 0 || j > 1 {
			t.Fatalf("jaccard out of range: %g", j)
		}
	}
	if jaccard(a, 3, 3) != 1 {
		t.Error("self-similarity must be 1")
	}
}
