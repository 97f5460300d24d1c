package krylov

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"javelin/internal/core"
	"javelin/internal/gen"
	"javelin/internal/ilu"
	"javelin/internal/sparse"
	"javelin/internal/trisolve"
	"javelin/internal/util"
)

type serialILU struct {
	f   *ilu.Factor
	tmp []float64
}

func (p *serialILU) Apply(r, z []float64) {
	if p.tmp == nil {
		p.tmp = make([]float64, p.f.N())
	}
	trisolve.SolveLowerSerial(p.f, r, p.tmp)
	trisolve.SolveUpperSerial(p.f, p.tmp, z)
}

func problem(t testing.TB, a *sparse.CSR, seed uint64) (b, xTrue []float64) {
	t.Helper()
	n := a.N
	xTrue = make([]float64, n)
	rng := util.NewRNG(seed)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b = make([]float64, n)
	a.MatVec(xTrue, b)
	return b, xTrue
}

func checkSolution(t *testing.T, _ *sparse.CSR, x, xTrue []float64, tol float64) {
	t.Helper()
	num, den := 0.0, 0.0
	for i := range x {
		num += (x[i] - xTrue[i]) * (x[i] - xTrue[i])
		den += xTrue[i] * xTrue[i]
	}
	if math.Sqrt(num/den) > tol {
		t.Errorf("solution error %g > %g", math.Sqrt(num/den), tol)
	}
}

func TestCGUnpreconditionedConverges(t *testing.T) {
	a := gen.GridLaplacian(15, 15, 1, gen.Star5, 0.5)
	b, xTrue := problem(t, a, 1)
	x := make([]float64, a.N)
	st, err := CG(a, Identity{}, b, x, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("CG did not converge: %+v", st)
	}
	checkSolution(t, a, x, xTrue, 1e-5)
}

func TestCGPreconditioningReducesIterations(t *testing.T) {
	a := gen.GridLaplacian(30, 30, 1, gen.Star5, 0.01)
	b, _ := problem(t, a, 2)

	x := make([]float64, a.N)
	plain, err := CG(a, Identity{}, b, x, Options{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ilu.Factorize(a, ilu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, a.N)
	pre, err := CG(a, &serialILU{f: f}, b, x2, Options{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !pre.Converged {
		t.Fatalf("convergence: plain=%v pre=%v", plain.Converged, pre.Converged)
	}
	if pre.Iterations >= plain.Iterations {
		t.Errorf("ILU(0) did not reduce iterations: %d vs %d",
			pre.Iterations, plain.Iterations)
	}
}

func TestCGWithJavelinEngineMatchesSerialILUCounts(t *testing.T) {
	// The engine (LS permutation internally) must converge in a
	// comparable iteration count to serial ILU(0) on the same matrix —
	// the level-set ordering is absorbed inside Apply, so the Krylov
	// iteration sees the same operator.
	a := gen.GridLaplacian(24, 24, 1, gen.Star5, 0.05)
	b, _ := problem(t, a, 3)

	f, err := ilu.Factorize(a, ilu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x1 := make([]float64, a.N)
	serial, err := CG(a, &serialILU{f: f}, b, x1, Options{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Threads = 4
	e, err := core.Factorize(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	x2 := make([]float64, a.N)
	jav, err := CG(a, e.NewContext(), b, x2, Options{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Converged || !jav.Converged {
		t.Fatalf("convergence: serial=%v javelin=%v", serial.Converged, jav.Converged)
	}
	// The LS permutation changes the factorization (different ILU
	// pattern ordering) so counts differ slightly, not wildly.
	lo, hi := serial.Iterations/2, serial.Iterations*2+10
	if jav.Iterations < lo || jav.Iterations > hi {
		t.Errorf("Javelin iterations %d far from serial %d", jav.Iterations, serial.Iterations)
	}
}

func TestGMRESOnUnsymmetricSystem(t *testing.T) {
	a := gen.TetraMesh(7, 7, 7, 11)
	b, xTrue := problem(t, a, 4)
	f, err := ilu.Factorize(a, ilu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N)
	st, err := GMRES(a, &serialILU{f: f}, b, x, Options{Tol: 1e-8, Restart: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("GMRES did not converge: %+v", st)
	}
	checkSolution(t, a, x, xTrue, 1e-4)
}

func TestGMRESIdentityMatrixOneIteration(t *testing.T) {
	n := 50
	coo := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	a := coo.ToCSR()
	b, _ := problem(t, a, 5)
	x := make([]float64, n)
	st, err := GMRES(a, Identity{}, b, x, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations > 2 {
		t.Fatalf("identity solve took %d iterations", st.Iterations)
	}
}

func TestCGReportsNonConvergence(t *testing.T) {
	a := gen.GridLaplacian(20, 20, 1, gen.Star5, 0.0001)
	b, _ := problem(t, a, 6)
	x := make([]float64, a.N)
	st, err := CG(a, Identity{}, b, x, Options{Tol: 1e-14, MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Fatal("3 iterations cannot reach 1e-14 on a stiff Laplacian")
	}
	if st.Iterations != 3 {
		t.Fatalf("iterations %d, want 3", st.Iterations)
	}
}

func TestDimensionMismatchRejected(t *testing.T) {
	a := gen.GridLaplacian(5, 5, 1, gen.Star5, 1)
	if _, err := CG(a, Identity{}, make([]float64, 3), make([]float64, a.N), Options{}); err == nil {
		t.Error("CG accepted short b")
	}
	if _, err := GMRES(a, Identity{}, make([]float64, a.N), make([]float64, 1), Options{}); err == nil {
		t.Error("GMRES accepted short x")
	}
}

func TestBiCGSTABOnUnsymmetricSystem(t *testing.T) {
	a := gen.TetraMesh(6, 6, 6, 0x77)
	b, xTrue := problem(t, a, 3)
	f, err := ilu.Factorize(a, ilu.Options{})
	if err != nil {
		t.Fatalf("ilu: %v", err)
	}
	x := make([]float64, a.N)
	st, err := BiCGSTAB(a, &serialILU{f: f}, b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("BiCGSTAB: %v", err)
	}
	if !st.Converged {
		t.Fatalf("BiCGSTAB did not converge: %+v", st)
	}
	checkSolution(t, a, x, xTrue, 1e-6)
}

func TestBiCGSTABMatchesGMRESIterationsBallpark(t *testing.T) {
	// BiCGSTAB should converge on the same preconditioned circuit
	// system GMRES handles, in a comparable (small) iteration count.
	a := gen.Circuit(gen.CircuitOptions{N: 400, Seed: 9})
	b, xTrue := problem(t, a, 5)
	f, err := ilu.Factorize(a, ilu.Options{})
	if err != nil {
		t.Fatalf("ilu: %v", err)
	}
	x := make([]float64, a.N)
	st, err := BiCGSTAB(a, &serialILU{f: f}, b, x, Options{Tol: 1e-9})
	if err != nil {
		t.Fatalf("BiCGSTAB: %v", err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	checkSolution(t, a, x, xTrue, 1e-5)
}

func TestBiCGSTABWithJavelinEngine(t *testing.T) {
	a := gen.TetraMesh(5, 5, 5, 0xabc)
	b, xTrue := problem(t, a, 11)
	opt := core.DefaultOptions()
	opt.Threads = 2
	e, err := core.Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer e.Close()
	x := make([]float64, a.N)
	st, err := BiCGSTAB(a, e.NewContext(), b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("BiCGSTAB: %v", err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	checkSolution(t, a, x, xTrue, 1e-6)
}

func TestBiCGSTABDimensionMismatch(t *testing.T) {
	a := gen.GridLaplacian(4, 4, 1, gen.Star5, 1)
	if _, err := BiCGSTAB(a, Identity{}, make([]float64, 3), make([]float64, a.N), Options{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

// TestWorkspaceReuseEliminatesAllocations asserts the Options.Work
// path performs no per-call allocation once warm, for all three
// methods.
func TestWorkspaceReuseEliminatesAllocations(t *testing.T) {
	a := gen.GridLaplacian(24, 24, 1, gen.Star5, 0.4)
	b, _ := problem(t, a, 7)
	x := make([]float64, a.N)
	ws := NewWorkspace()

	run := map[string]func() error{
		"CG": func() error {
			for i := range x {
				x[i] = 0
			}
			_, err := CG(a, Identity{}, b, x, Options{Tol: 1e-8, Work: ws})
			return err
		},
		"GMRES": func() error {
			for i := range x {
				x[i] = 0
			}
			_, err := GMRES(a, Identity{}, b, x, Options{Tol: 1e-8, Restart: 30, Work: ws})
			return err
		},
		"BiCGSTAB": func() error {
			for i := range x {
				x[i] = 0
			}
			_, err := BiCGSTAB(a, Identity{}, b, x, Options{Tol: 1e-8, Work: ws})
			return err
		},
	}
	for name, f := range run {
		if err := f(); err != nil { // warm the workspace
			t.Fatalf("%s warmup: %v", name, err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := f(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s allocated %.0f objects per warm solve, want 0", name, allocs)
		}
	}
}

func TestWorkspaceGrowsAcrossSizes(t *testing.T) {
	ws := NewWorkspace()
	for _, nx := range []int{10, 30, 20} {
		a := gen.GridLaplacian(nx, nx, 1, gen.Star5, 0.5)
		b, xTrue := problem(t, a, uint64(nx))
		x := make([]float64, a.N)
		st, err := CG(a, Identity{}, b, x, Options{Tol: 1e-10, Work: ws})
		if err != nil || !st.Converged {
			t.Fatalf("nx=%d: %v %+v", nx, err, st)
		}
		checkSolution(t, a, x, xTrue, 1e-6)
	}
}

// TestTypedErrors pins the sentinel-wrapping contract of the loops:
// dimension, non-finite rhs, and breakdown failures must all be
// errors.Is-dispatchable.
func TestTypedErrors(t *testing.T) {
	a := gen.GridLaplacian(5, 5, 1, gen.Star5, 1)
	n := a.N
	if _, err := CG(a, Identity{}, make([]float64, 3), make([]float64, n), Options{}); !errors.Is(err, ErrDimension) {
		t.Errorf("CG short b: %v", err)
	}
	bad := make([]float64, n)
	bad[3] = math.NaN()
	for name, f := range map[string]func() error{
		"CG":       func() error { _, err := CG(a, Identity{}, bad, make([]float64, n), Options{}); return err },
		"GMRES":    func() error { _, err := GMRES(a, Identity{}, bad, make([]float64, n), Options{}); return err },
		"BiCGSTAB": func() error { _, err := BiCGSTAB(a, Identity{}, bad, make([]float64, n), Options{}); return err },
	} {
		if err := f(); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s NaN rhs: %v", name, err)
		}
	}
	// CG breakdown on a symmetric indefinite system: diag(1,-1) with
	// b = (1,1) gives p^T A p = 0 immediately.
	coo := sparse.NewCOO(2, 2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1)
	ind := coo.ToCSR()
	if _, err := CG(ind, Identity{}, []float64{1, 1}, make([]float64, 2), Options{}); !errors.Is(err, ErrBreakdown) {
		t.Errorf("CG indefinite: %v", err)
	}
}

// poisonPC is the identity preconditioner except on its at-th Apply,
// which writes a NaN.
type poisonPC struct{ calls, at int }

func (p *poisonPC) Apply(r, z []float64) {
	p.calls++
	copy(z, r)
	if p.calls == p.at {
		z[0] = math.NaN()
	}
}

// TestNonFiniteBreakdownBlamesValues: when a NaN or ±Inf reaches an
// inner product, through the matrix or the preconditioner, CG and
// BiCGSTAB fail with an error wrapping both ErrBreakdown and
// ErrNonFinite that names the inner product and does not guess that
// the matrix is not SPD. Only a finite zero pᵀAp keeps that hint.
func TestNonFiniteBreakdownBlamesValues(t *testing.T) {
	grid := gen.GridLaplacian(5, 5, 1, gen.Star5, 1)
	b, _ := problem(t, grid, 3)
	nanA := grid.Clone()
	nanA.Val[7] = math.NaN()
	diag := func(d float64) *sparse.CSR {
		coo := sparse.NewCOO(2, 2, 2)
		coo.Add(0, 0, d)
		coo.Add(1, 1, d)
		return coo.ToCSR()
	}
	big := []float64{10, 10} // 10·1e308 overflows Ap
	cg := func(a *sparse.CSR, m Preconditioner, b []float64) error {
		_, err := CG(a, m, b, make([]float64, a.N), Options{})
		return err
	}
	bicg := func(a *sparse.CSR, m Preconditioner, b []float64) error {
		_, err := BiCGSTAB(a, m, b, make([]float64, a.N), Options{})
		return err
	}
	for _, c := range []struct {
		name, term string
		err        error
	}{
		{"CG NaN in A", "pᵀAp = NaN", cg(nanA, Identity{}, b)},
		{"CG +Inf pᵀAp", "pᵀAp = +Inf", cg(diag(1e308), Identity{}, big)},
		{"CG -Inf pᵀAp", "pᵀAp = -Inf", cg(diag(-1e308), Identity{}, big)},
		{"CG NaN preconditioner", "pᵀAp = NaN", cg(grid, &poisonPC{at: 1}, b)},
		{"BiCGSTAB NaN in A", "ρ = NaN", bicg(nanA, Identity{}, b)},
		{"BiCGSTAB NaN preconditioner, first apply", "r̂ᵀv = NaN", bicg(grid, &poisonPC{at: 1}, b)},
		{"BiCGSTAB NaN preconditioner, second apply", "tᵀt = NaN", bicg(grid, &poisonPC{at: 2}, b)},
	} {
		if !errors.Is(c.err, ErrBreakdown) || !errors.Is(c.err, ErrNonFinite) {
			t.Errorf("%s: %v, want ErrBreakdown and ErrNonFinite", c.name, c.err)
			continue
		}
		if msg := c.err.Error(); !strings.Contains(msg, c.term) || strings.Contains(msg, "SPD") {
			t.Errorf("%s: %q, want %q and no SPD guess", c.name, msg, c.term)
		}
	}
	// A finite zero pᵀAp (diag(1,-1), b = (1,1)) is a breakdown of the
	// recurrence, not of the values, and keeps the hint.
	coo := sparse.NewCOO(2, 2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, -1)
	err := cg(coo.ToCSR(), Identity{}, []float64{1, 1})
	if !errors.Is(err, ErrBreakdown) || errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "SPD") {
		t.Errorf("CG zero pᵀAp: %v, want ErrBreakdown with the SPD hint and without ErrNonFinite", err)
	}
}

// nanPC is a preconditioner whose every Apply returns NaN.
type nanPC struct{}

func (nanPC) Apply(r, z []float64) {
	for i := range z {
		z[i] = math.NaN()
	}
}

// TestGMRESStopsOnNonFinite: GMRES fails within one iteration, with an
// error wrapping ErrBreakdown and ErrNonFinite that names the term,
// when a non-finite value reaches β at a restart or h[j+1][j] inside
// the Arnoldi loop, instead of running to MaxIter on NaN residuals.
func TestGMRESStopsOnNonFinite(t *testing.T) {
	grid := gen.GridLaplacian(5, 5, 1, gen.Star5, 1)
	b, _ := problem(t, grid, 3)
	for _, c := range []struct {
		name, term string
		m          Preconditioner
	}{
		{"NaN preconditioner", "β = NaN", nanPC{}},
		{"NaN on the first Arnoldi apply", "h[j+1][j] = NaN", &poisonPC{at: 2}},
	} {
		st, err := GMRES(grid, c.m, b, make([]float64, grid.N), Options{MaxIter: 500})
		if !errors.Is(err, ErrBreakdown) || !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: %v after %d iterations, want ErrBreakdown and ErrNonFinite", c.name, err, st.Iterations)
			continue
		}
		if !strings.Contains(err.Error(), c.term) {
			t.Errorf("%s: %q, want %q", c.name, err, c.term)
		}
		if st.Iterations > 1 {
			t.Errorf("%s: stopped after %d iterations, want at most 1", c.name, st.Iterations)
		}
	}
}

// TestContextCancellationStopsSolves proves each loop observes
// Options.Ctx within one iteration: the monitor cancels at iteration
// cancelAt and the solve must return ctx.Err() no later than
// cancelAt+1 iterations.
func TestContextCancellationStopsSolves(t *testing.T) {
	a := gen.GridLaplacian(30, 30, 1, gen.Star5, 0.0001)
	b, _ := problem(t, a, 13)
	const cancelAt = 4
	for name, f := range map[string]func(Options) (Stats, error){
		"CG": func(o Options) (Stats, error) {
			return CG(a, Identity{}, b, make([]float64, a.N), o)
		},
		"GMRES": func(o Options) (Stats, error) {
			return GMRES(a, Identity{}, b, make([]float64, a.N), o)
		},
		"BiCGSTAB": func(o Options) (Stats, error) {
			return BiCGSTAB(a, Identity{}, b, make([]float64, a.N), o)
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		st, err := f(Options{Tol: 1e-14, Ctx: ctx, Monitor: func(info IterInfo) bool {
			if info.Iteration == cancelAt {
				cancel()
			}
			return true
		}})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err=%v, want context.Canceled", name, err)
		}
		if st.Iterations > cancelAt+1 {
			t.Errorf("%s: ran to iteration %d after cancel at %d", name, st.Iterations, cancelAt)
		}
	}
}

// TestMonitorObservesResidualsAndStops checks the monitor sees a
// decreasing residual series and can stop the solve with ErrStopped.
func TestMonitorObservesResidualsAndStops(t *testing.T) {
	a := gen.GridLaplacian(20, 20, 1, gen.Star5, 0.5)
	b, _ := problem(t, a, 17)
	var seen []IterInfo
	st, err := CG(a, Identity{}, b, make([]float64, a.N), Options{
		Tol: 1e-10,
		Monitor: func(info IterInfo) bool {
			seen = append(seen, info)
			return true
		},
	})
	if err != nil || !st.Converged {
		t.Fatalf("monitored CG: %v %+v", err, st)
	}
	if len(seen) != st.Iterations {
		t.Fatalf("monitor saw %d iterations, solve ran %d", len(seen), st.Iterations)
	}
	for i, info := range seen {
		if info.Iteration != i {
			t.Fatalf("monitor iteration %d reported as %d", i, info.Iteration)
		}
		if info.Residual <= 0 || math.IsNaN(info.Residual) {
			t.Fatalf("bad residual at %d: %g", i, info.Residual)
		}
	}
	if seen[len(seen)-1].Residual >= seen[0].Residual {
		t.Fatal("residual did not decrease over the solve")
	}

	st, err = BiCGSTAB(a, Identity{}, b, make([]float64, a.N), Options{
		Tol:     1e-12,
		Monitor: func(info IterInfo) bool { return info.Iteration < 2 },
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("BiCGSTAB monitor stop: %v", err)
	}
	if st.Iterations > 3 {
		t.Fatalf("BiCGSTAB ignored monitor stop: %+v", st)
	}
}
