package core

import (
	"math"
	"testing"

	"javelin/internal/gen"
	"javelin/internal/ilu"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

// testMatrices returns a set of small matrices covering the suite's
// structural variety.
func testMatrices(tb testing.TB) map[string]*sparse.CSR {
	tb.Helper()
	return map[string]*sparse.CSR{
		"grid2d":  gen.GridLaplacian(24, 24, 1, gen.Star5, 0.1),
		"grid3d":  gen.GridLaplacian(9, 9, 9, gen.Star7, 0.5),
		"box9":    gen.GridLaplacian(20, 12, 1, gen.Box9, 1.0),
		"tetra":   gen.TetraMesh(8, 8, 8, 0xBEEF),
		"circuit": gen.Circuit(gen.CircuitOptions{N: 700, AvgDeg: 4, NumHubs: 3, HubDeg: 40, UnsymFrac: 0.3, Locality: 50, Seed: 7}),
		"power":   gen.PowerFlow(gen.PowerFlowOptions{Blocks: 10, BlockSize: 30, BlockFill: 0.4, ChainSpan: 2, Seed: 11}),
		"banded":  gen.BandedDevice(600, 3),
	}
}

// referenceFactor computes the serial up-looking factor on the same
// permuted matrix the engine factors, so values are comparable
// entry-for-entry.
func referenceFactor(tb testing.TB, a *sparse.CSR, e *Engine, opt Options) *ilu.Factor {
	tb.Helper()
	f, err := serialFactor(a, e, opt)
	if err != nil {
		tb.Fatalf("reference factorization failed: %v", err)
	}
	return f
}

// serialFactor is referenceFactor returning the reference's error.
func serialFactor(a *sparse.CSR, e *Engine, opt Options) (*ilu.Factor, error) {
	permA := sparse.PermuteSym(a, e.Perm(), 1)
	pat := e.Factor().LU.Clone()
	for i := range pat.Val {
		pat.Val[i] = 0
	}
	return ilu.FactorizeWithPattern(permA, pat, ilu.Options{
		FillLevel: opt.FillLevel, DropTol: opt.DropTol, Modified: opt.Modified,
	})
}

func maxFactorDiff(a, b *ilu.Factor) float64 {
	mx := 0.0
	for k := range a.LU.Val {
		d := math.Abs(a.LU.Val[k] - b.LU.Val[k])
		if d > mx {
			mx = d
		}
	}
	return mx
}

// valueMismatch returns the first index at which the values of a and
// b differ in their bits (-1 when none does) and the largest absolute
// difference between them.
func valueMismatch(a, b *ilu.Factor) (first int, maxDiff float64) {
	first = -1
	for k, x := range a.LU.Val {
		if math.Float64bits(x) != math.Float64bits(b.LU.Val[k]) {
			first = k
			break
		}
	}
	return first, maxFactorDiff(a, b)
}

func TestEngineMatchesSerialReferenceER(t *testing.T) {
	for name, a := range testMatrices(t) {
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Threads = 4
			opt.Lower = LowerER
			opt.Split.MinRowsPerLevel = 8
			e, err := Factorize(a, opt)
			if err != nil {
				t.Fatalf("Factorize: %v", err)
			}
			defer e.Close()
			ref := referenceFactor(t, a, e, opt)
			if d := maxFactorDiff(e.Factor(), ref); d != 0 {
				t.Errorf("ER factor differs from serial reference by %g (want bitwise equal)", d)
			}
		})
	}
}

func TestEngineMatchesSerialReferenceSR(t *testing.T) {
	for name, a := range testMatrices(t) {
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Threads = 4
			opt.Lower = LowerSR
			opt.Split.MinRowsPerLevel = 8
			e, err := Factorize(a, opt)
			if err != nil {
				t.Fatalf("Factorize: %v", err)
			}
			defer e.Close()
			ref := referenceFactor(t, a, e, opt)
			if d := maxFactorDiff(e.Factor(), ref); d != 0 {
				t.Errorf("SR factor differs from serial reference by %g (want bitwise equal)", d)
			}
		})
	}
}

func TestEngineMatchesSerialReferenceLSOnly(t *testing.T) {
	for name, a := range testMatrices(t) {
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Threads = 4
			opt.Lower = LowerNone
			e, err := Factorize(a, opt)
			if err != nil {
				t.Fatalf("Factorize: %v", err)
			}
			defer e.Close()
			if e.Split().NLower() != 0 {
				t.Fatalf("LowerNone produced %d lower rows", e.Split().NLower())
			}
			ref := referenceFactor(t, a, e, opt)
			if d := maxFactorDiff(e.Factor(), ref); d != 0 {
				t.Errorf("LS factor differs from serial reference by %g", d)
			}
		})
	}
}

func TestEngineSolvesInvertFactor(t *testing.T) {
	for name, a := range testMatrices(t) {
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Threads = 4
			opt.Split.MinRowsPerLevel = 8
			e, err := Factorize(a, opt)
			if err != nil {
				t.Fatalf("Factorize: %v", err)
			}
			defer e.Close()
			n := a.N
			rng := util.NewRNG(42)
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			// Check L·x = b via the engine against serial substitution.
			ctx := e.NewContext()
			x := make([]float64, n)
			ctx.SolveLower(b, x)
			want := make([]float64, n)
			serialSolveLower(e.Factor(), b, want)
			for i := range x {
				if math.Abs(x[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("SolveLower mismatch at %d: got %g want %g", i, x[i], want[i])
				}
			}
			ctx.SolveUpper(b, x)
			serialSolveUpper(e.Factor(), b, want)
			for i := range x {
				if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("SolveUpper mismatch at %d: got %g want %g", i, x[i], want[i])
				}
			}
		})
	}
}

func serialSolveLower(f *ilu.Factor, b, x []float64) {
	lu := f.LU
	copy(x, b)
	for i := 0; i < lu.N; i++ {
		s := x[i]
		for k := lu.RowPtr[i]; k < lu.RowPtr[i+1]; k++ {
			c := lu.ColIdx[k]
			if c >= i {
				break
			}
			s -= lu.Val[k] * x[c]
		}
		x[i] = s
	}
}

func serialSolveUpper(f *ilu.Factor, b, x []float64) {
	lu := f.LU
	copy(x, b)
	for i := lu.N - 1; i >= 0; i-- {
		dp := f.DiagPos[i]
		s := x[i]
		for k := dp + 1; k < lu.RowPtr[i+1]; k++ {
			s -= lu.Val[k] * x[lu.ColIdx[k]]
		}
		x[i] = s / lu.Val[dp]
	}
}

func TestApplyExactOnTridiagonal(t *testing.T) {
	// ILU(0) of a tridiagonal matrix is its exact LU (no fill exists),
	// and the level-set permutation of a chain is the identity, so
	// Apply must solve A z = b to machine precision.
	a := gen.GridLaplacian(400, 1, 1, gen.Star5, 0.5)
	opt := DefaultOptions()
	opt.Threads = 4
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer e.Close()
	n := a.N
	xTrue := make([]float64, n)
	rng := util.NewRNG(9)
	for i := range xTrue {
		xTrue[i] = rng.Float64()
	}
	b := make([]float64, n)
	a.MatVec(xTrue, b)
	z := make([]float64, n)
	e.NewContext().Apply(b, z)
	for i := range z {
		if math.Abs(z[i]-xTrue[i]) > 1e-9*(1+math.Abs(xTrue[i])) {
			t.Fatalf("Apply not exact at %d: got %g want %g", i, z[i], xTrue[i])
		}
	}
}

func TestApplyReducesResidual(t *testing.T) {
	a := gen.GridLaplacian(20, 20, 1, gen.Star5, 0.1)
	opt := DefaultOptions()
	opt.Threads = 2
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer e.Close()
	n := a.N
	rng := util.NewRNG(9)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// The preconditioned residual ‖b − A·M⁻¹b‖ must be smaller than
	// ‖b‖ — the minimum bar for a useful preconditioner.
	z := make([]float64, n)
	e.NewContext().Apply(b, z)
	az := make([]float64, n)
	a.MatVec(z, az)
	res := 0.0
	for i := range az {
		res += (b[i] - az[i]) * (b[i] - az[i])
	}
	if math.Sqrt(res) > 0.9*util.Norm2(b) {
		t.Errorf("preconditioned residual %g vs ‖b‖ %g", math.Sqrt(res), util.Norm2(b))
	}
}

func TestRefactorizeMatchesFreshFactorization(t *testing.T) {
	a := gen.TetraMesh(7, 7, 7, 0x123)
	opt := DefaultOptions()
	opt.Threads = 3
	opt.Split.MinRowsPerLevel = 8
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer e.Close()
	// Scale values, refactorize, compare to fresh engine.
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 1.5
	}
	if err := e.Refactorize(a2); err != nil {
		t.Fatalf("Refactorize: %v", err)
	}
	e2, err := Factorize(a2, opt)
	if err != nil {
		t.Fatalf("fresh Factorize: %v", err)
	}
	defer e2.Close()
	if d := maxFactorDiff(e.Factor(), e2.Factor()); d != 0 {
		t.Errorf("refactorized values differ from fresh factorization by %g", d)
	}
}

func TestEngineThreadCountsAgree(t *testing.T) {
	a := gen.Circuit(gen.CircuitOptions{N: 900, AvgDeg: 5, NumHubs: 4, HubDeg: 50, UnsymFrac: 0.2, Locality: 80, Seed: 99})
	var ref *ilu.Factor
	for _, threads := range []int{1, 2, 3, 8} {
		opt := DefaultOptions()
		opt.Threads = threads
		opt.Split.MinRowsPerLevel = 8
		e, err := Factorize(a, opt)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if ref == nil {
			ref = e.Factor()
		} else if d := maxFactorDiff(e.Factor(), ref); d != 0 {
			t.Errorf("threads=%d factor differs by %g from threads=1", threads, d)
		}
		e.Close()
	}
}

func TestLowerStageStructure(t *testing.T) {
	// A long-thin grid has many small levels; the split must move
	// trailing small levels down and keep dependencies legal.
	a := gen.GridLaplacian(200, 8, 1, gen.Star5, 0.5)
	opt := DefaultOptions()
	opt.Threads = 4
	opt.Split.MinRowsPerLevel = 24
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer e.Close()
	s := e.Split()
	if s.NLower() == 0 {
		t.Skip("split kept everything in the upper stage on this shape")
	}
	if err := s.Validate(mustPattern(t, a, opt.FillLevel)); err != nil {
		t.Fatalf("split invalid: %v", err)
	}
}

func mustPattern(t *testing.T, a *sparse.CSR, k int) *sparse.CSR {
	t.Helper()
	p, err := ilu.SymbolicPattern(a, k)
	if err != nil {
		t.Fatalf("SymbolicPattern: %v", err)
	}
	return p
}

func TestModifiedILUPreservesRowSums(t *testing.T) {
	// MILU with drops: (L·U)·e should equal A·e.
	a := gen.GridLaplacian(16, 16, 1, gen.Box9, 1.0)
	opt := DefaultOptions()
	opt.Threads = 3
	opt.Modified = true
	opt.DropTol = 0.05
	opt.Split.MinRowsPerLevel = 8
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer e.Close()
	n := a.N
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	// Compute L·U·e on the permuted factor.
	f := e.Factor()
	ue := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for k := f.DiagPos[i]; k < f.LU.RowPtr[i+1]; k++ {
			s += f.LU.Val[k]
		}
		ue[i] = s
	}
	lue := make([]float64, n)
	for i := 0; i < n; i++ {
		s := ue[i]
		for k := f.LU.RowPtr[i]; k < f.LU.RowPtr[i+1]; k++ {
			c := f.LU.ColIdx[k]
			if c >= i {
				break
			}
			s += f.LU.Val[k] * ue[c]
		}
		lue[i] = s
	}
	permA := sparse.PermuteSym(a, e.Perm(), 1)
	ae := make([]float64, n)
	permA.MatVec(ones, ae)
	for i := 0; i < n; i++ {
		if !util.NearlyEqual(lue[i], ae[i], 1e-10, 1e-10) {
			t.Fatalf("row %d: (LU)e=%g, Ae=%g", i, lue[i], ae[i])
		}
	}
}

func TestZeroPivotReported(t *testing.T) {
	// Structurally full diagonal but numerically zero pivot.
	a := sparse.FromDense([][]float64{
		{1, 2, 0},
		{2, 4, 1}, // row 2 - 2*row 1 zeroes the pivot
		{0, 1, 3},
	})
	opt := DefaultOptions()
	opt.Threads = 2
	_, err := Factorize(a, opt)
	if err == nil {
		t.Fatal("expected zero-pivot error")
	}
}

func TestMissingDiagonalRejected(t *testing.T) {
	a := sparse.FromDense([][]float64{
		{0, 2},
		{3, 4},
	})
	// Entry (0,0) is zero → not stored → missing diagonal.
	opt := DefaultOptions()
	if _, err := Factorize(a, opt); err == nil {
		t.Fatal("expected missing-diagonal error")
	}
}
