package javelin

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// solverProblem builds a small SPD system with a known solution and a
// serial (Threads=1) factorization of it.
func solverProblem(t *testing.T, nx int) (m *Matrix, p *Preconditioner, b, xTrue []float64) {
	t.Helper()
	m = GridLaplacian(nx, nx, 1, Star5, 0.1)
	opt := DefaultOptions()
	opt.Threads = 1
	var err error
	p, err = Factorize(m, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	t.Cleanup(p.Close)
	n := m.N()
	xTrue = make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i%9) - 4
	}
	b = make([]float64, n)
	m.MatVec(xTrue, b)
	return m, p, b, xTrue
}

func TestSolverEndToEnd(t *testing.T) {
	if _, err := NewSolver(nil, nil); err == nil {
		t.Fatal("NewSolver accepted a nil matrix")
	}
	m, p, b, xTrue := solverProblem(t, 30)
	s, err := NewSolver(m, p, WithTol(1e-10))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	if s.Method() != MethodCG {
		t.Fatalf("auto method on a symmetric pattern = %v, want cg", s.Method())
	}
	x := make([]float64, m.N())
	st, err := s.Solve(context.Background(), b, x)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
			t.Fatalf("x[%d]=%g want %g", i, x[i], xTrue[i])
		}
	}
}

func TestSolverMethodAutoUnsymmetric(t *testing.T) {
	m := TetraMesh(6, 6, 6, 0x31)
	p, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := NewSolver(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Method() != MethodGMRES {
		t.Fatalf("auto method on an unsymmetric pattern = %v, want gmres", s.Method())
	}
	n := m.N()
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i))
	}
	b := make([]float64, n)
	m.MatVec(xTrue, b)
	x := make([]float64, n)
	if st, err := s.Solve(context.Background(), b, x); err != nil || !st.Converged {
		t.Fatalf("auto GMRES solve: %v %+v", err, st)
	}
}

func TestSolverDimensionAndNonFiniteErrors(t *testing.T) {
	m, p, b, _ := solverProblem(t, 12)
	s, err := NewSolver(m, p)
	if err != nil {
		t.Fatal(err)
	}
	// Mismatched lengths → ErrDimension, with stats attached.
	if _, err := s.Solve(context.Background(), b[:3], make([]float64, m.N())); !errors.Is(err, ErrDimension) {
		t.Fatalf("short b: got %v, want ErrDimension", err)
	}
	if _, err := s.Solve(context.Background(), b, make([]float64, 2)); !errors.Is(err, ErrDimension) {
		t.Fatalf("short x: got %v, want ErrDimension", err)
	}
	var se *SolveError
	_, err = s.Solve(context.Background(), b[:3], make([]float64, m.N()))
	if !errors.As(err, &se) {
		t.Fatalf("dimension error is not a *SolveError: %v", err)
	}
	// NaN and Inf in b → ErrNonFinite.
	bad := make([]float64, m.N())
	copy(bad, b)
	bad[7] = math.NaN()
	if _, err := s.Solve(context.Background(), bad, make([]float64, m.N())); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN b: got %v, want ErrNonFinite", err)
	}
	bad[7] = math.Inf(-1)
	if _, err := s.Solve(context.Background(), bad, make([]float64, m.N())); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Inf b: got %v, want ErrNonFinite", err)
	}
	// Mismatched preconditioner at construction.
	m2 := GridLaplacian(5, 5, 1, Star5, 1)
	if _, err := NewSolver(m2, p); !errors.Is(err, ErrDimension) {
		t.Fatalf("mismatched preconditioner: got %v, want ErrDimension", err)
	}
}

func TestSolverNotConvergedCarriesStats(t *testing.T) {
	m, p, b, _ := solverProblem(t, 20)
	s, err := NewSolver(m, p, WithTol(1e-15), WithMaxIter(2))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.N())
	st, err := s.Solve(context.Background(), b, x)
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("got %v, want ErrNotConverged", err)
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("not a *SolveError: %v", err)
	}
	if se.Stats.Iterations != 2 || se.Stats != st {
		t.Fatalf("attached stats %+v, returned %+v", se.Stats, st)
	}
	if se.Method != MethodCG {
		t.Fatalf("attached method %v", se.Method)
	}
}

func TestSolverBreakdownTyped(t *testing.T) {
	// CG on a symmetric indefinite matrix: r = b = e1+e2 on
	// diag(1, -1) gives pᵀAp = 0 at the first step.
	bl := NewBuilder(2, 2)
	bl.Add(0, 0, 1)
	bl.Add(1, 1, -1)
	m := bl.Build()
	s, err := NewSolver(m, nil, WithMethod(MethodCG))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(context.Background(), []float64{1, 1}, make([]float64, 2))
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("got %v, want ErrBreakdown", err)
	}
}

// TestSolverConcurrentHammer is the ISSUE's -race hammer: 16+
// goroutines share ONE Solver, all solving simultaneously against the
// same factorization, and every solution must match the reference.
func TestSolverConcurrentHammer(t *testing.T) {
	m := GridLaplacian(40, 40, 1, Star5, 0.2)
	opt := DefaultOptions()
	opt.Threads = 2
	p, err := Factorize(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := NewSolver(m, p, WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	want := make([]float64, n)
	if st, err := s.Solve(context.Background(), b, want); err != nil || !st.Converged {
		t.Fatalf("reference solve: %v %+v", err, st)
	}

	const workers = 16
	const repsPerWorker = 3
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := make([]float64, n)
			for rep := 0; rep < repsPerWorker; rep++ {
				for i := range x {
					x[i] = 0
				}
				st, err := s.Solve(context.Background(), b, x)
				if err != nil {
					errc <- err
					return
				}
				if !st.Converged {
					errc <- errNotConverged
					return
				}
				for i := range x {
					if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
						errc <- errDiverged
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestSolverCancellation proves Solve returns the context's error
// within one iteration of cancellation: a monitor cancels the context
// at iteration cancelAt, and the solve must stop on the very next
// iteration's check.
func TestSolverCancellation(t *testing.T) {
	// A stiff system with a tolerance CG cannot reach quickly, so the
	// solve is guaranteed to still be running at cancel time.
	m := GridLaplacian(40, 40, 1, Star5, 0.0001)
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	const cancelAt = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewSolver(m, nil, WithMethod(MethodCG), WithTol(1e-14),
		WithMonitor(func(info IterInfo) bool {
			if info.Iteration == cancelAt {
				cancel()
			}
			return true
		}))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	st, err := s.Solve(ctx, b, x)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st.Iterations > cancelAt+1 {
		t.Fatalf("solve ran %d iterations after cancel at %d — not within one iteration",
			st.Iterations-cancelAt, cancelAt)
	}
	var se *SolveError
	if !errors.As(err, &se) || se.Stats.Iterations != st.Iterations {
		t.Fatalf("cancellation error lacks stats: %v", err)
	}

	// A context canceled before the call stops the solve on iteration 0.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	st, err = s.Solve(dead, b, x)
	if !errors.Is(err, context.Canceled) || st.Iterations != 0 {
		t.Fatalf("pre-canceled ctx: err=%v iters=%d", err, st.Iterations)
	}
}

// TestSolverMonitorStops exercises WithMonitor's early-stop contract
// for every method.
func TestSolverMonitorStops(t *testing.T) {
	m, p, b, _ := solverProblem(t, 20)
	for _, meth := range []Method{MethodCG, MethodGMRES, MethodBiCGSTAB} {
		var calls atomic.Int64
		s, err := NewSolver(m, p, WithMethod(meth), WithTol(1e-14),
			WithMonitor(func(info IterInfo) bool {
				calls.Add(1)
				return info.Iteration < 3
			}))
		if err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
		x := make([]float64, m.N())
		st, err := s.Solve(context.Background(), b, x)
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("%v: got %v, want ErrStopped", meth, err)
		}
		if calls.Load() == 0 || st.Iterations > 4 {
			t.Fatalf("%v: monitor calls=%d iters=%d", meth, calls.Load(), st.Iterations)
		}
	}
}

// TestSolverBiCGSTABAndGMRESSessions runs the non-CG methods through
// the session API on an unsymmetric system.
func TestSolverBiCGSTABAndGMRESSessions(t *testing.T) {
	m := TetraMesh(7, 7, 7, 0x42)
	p, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n := m.N()
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Cos(float64(i) / 3)
	}
	b := make([]float64, n)
	m.MatVec(xTrue, b)
	for _, meth := range []Method{MethodGMRES, MethodBiCGSTAB} {
		s, err := NewSolver(m, p, WithMethod(meth), WithTol(1e-10), WithRestart(40))
		if err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
		x := make([]float64, n)
		st, err := s.Solve(context.Background(), b, x)
		if err != nil || !st.Converged {
			t.Fatalf("%v: %v %+v", meth, err, st)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-5*(1+math.Abs(xTrue[i])) {
				t.Fatalf("%v: solution off at %d: %g vs %g", meth, i, x[i], xTrue[i])
			}
		}
	}
}
