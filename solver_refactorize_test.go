package javelin

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// bumpDiagonal returns a same-pattern copy of m with the diagonal
// scaled — the pattern-fixed, value-drifting matrix of a time step.
// (A power-of-two scaling of ALL values would give bit-identical CG
// trajectories — the scale cancels through the preconditioned
// recurrence — so only the diagonal moves.)
func bumpDiagonal(t *testing.T, m *Matrix, s float64) *Matrix {
	t.Helper()
	raw := m.Raw().Clone()
	for i := 0; i < raw.N; i++ {
		cols, _ := raw.Row(i)
		for k, j := range cols {
			if j == i {
				raw.Val[raw.RowPtr[i]+k] *= s
			}
		}
	}
	m2, err := WrapCSR(raw)
	if err != nil {
		t.Fatalf("WrapCSR: %v", err)
	}
	return m2
}

// trueRelResidual computes ‖b−A·x‖₂/‖b‖₂ directly.
func trueRelResidual(m *Matrix, b, x []float64) float64 {
	r := make([]float64, m.N())
	m.MatVec(x, r)
	var rn, bn float64
	for i := range r {
		d := b[i] - r[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn) / math.Sqrt(bn)
}

// TestSolverLiveRefactorizeHammer is the ISSUE 5 acceptance test at
// the public surface: 16 goroutines Solve continuously through one
// shared Solver while the main goroutine Refactorizes the shared
// Preconditioner repeatedly, with no external serialization. Every
// solve must converge to a true residual within tolerance on the
// fixed system matrix — whichever factor epoch it pinned. Run under
// -race in the CI race-hot shard.
func TestSolverLiveRefactorizeHammer(t *testing.T) {
	m := GridLaplacian(24, 24, 1, Star5, 0.1)
	opt := DefaultOptions()
	opt.Threads = 2
	p, err := Factorize(m, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer p.Close()
	const tol = 1e-8
	s, err := NewSolver(m, p, WithTol(tol))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}

	mB := bumpDiagonal(t, m, 1.5)
	n := m.N()
	stop := make(chan struct{})
	fail := make(chan string, 17)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := make([]float64, n)
			for i := range b {
				b[i] = math.Sin(float64(i*(g+3)) * 0.17)
			}
			x := make([]float64, n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range x {
					x[i] = 0
				}
				if _, err := s.Solve(context.Background(), b, x); err != nil {
					fail <- "Solve during live refactorization: " + err.Error()
					return
				}
				if res := trueRelResidual(m, b, x); res > 10*tol {
					fail <- "converged solve left a large true residual"
					return
				}
			}
		}(g)
	}
	for rep := 0; rep < 30; rep++ {
		src := m
		if rep%2 == 0 {
			src = mB
		}
		if err := p.Refactorize(src); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("Refactorize during hammer: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}

// solveTrajectory runs one solve through a fresh Solver with a
// monitor recording the per-iteration residuals, returning the
// trajectory.
func solveTrajectory(t *testing.T, m *Matrix, p *Preconditioner, b []float64, tol float64) []float64 {
	t.Helper()
	var traj []float64
	s, err := NewSolver(m, p, WithTol(tol), WithMonitor(func(it IterInfo) bool {
		traj = append(traj, it.Residual)
		return true
	}))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	x := make([]float64, m.N())
	if _, err := s.Solve(context.Background(), b, x); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return traj
}

func sameTrajectory(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSolverEpochTrajectoryDeterminism verifies the epoch-snapshot
// guarantee end to end: a solve pins the factor epoch current at its
// start, so even with Refactorize publishing concurrently, every
// solve's residual trajectory is bit-identical to a serialized run on
// one of the two epochs' values — never a blend.
func TestSolverEpochTrajectoryDeterminism(t *testing.T) {
	m := GridLaplacian(20, 20, 1, Star5, 0.1)
	opt := DefaultOptions()
	opt.Threads = 2
	p, err := Factorize(m, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer p.Close()

	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(i) * 0.3)
	}
	const tol = 1e-9
	mB := bumpDiagonal(t, m, 1.5)

	// Serialized baselines, one per epoch's values.
	trajA := solveTrajectory(t, m, p, b, tol)
	if err := p.Refactorize(mB); err != nil {
		t.Fatalf("Refactorize: %v", err)
	}
	trajB := solveTrajectory(t, m, p, b, tol)
	if sameTrajectory(trajA, trajB) {
		t.Fatal("both epochs give identical trajectories; test is vacuous")
	}

	// Live phase: solves race with epoch publications.
	stop := make(chan struct{})
	fail := make(chan string, 9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var traj []float64
				s, err := NewSolver(m, p, WithTol(tol), WithMonitor(func(it IterInfo) bool {
					traj = append(traj, it.Residual)
					return true
				}))
				if err != nil {
					fail <- "NewSolver: " + err.Error()
					return
				}
				x := make([]float64, n)
				if _, err := s.Solve(context.Background(), b, x); err != nil {
					fail <- "Solve: " + err.Error()
					return
				}
				if !sameTrajectory(traj, trajA) && !sameTrajectory(traj, trajB) {
					fail <- "solve trajectory matches neither epoch's serialized baseline"
					return
				}
			}
		}()
	}
	for rep := 0; rep < 30; rep++ {
		src := m
		if rep%2 == 0 {
			src = mB
		}
		if err := p.Refactorize(src); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("Refactorize during solves: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}

// TestRefactorizePatternMismatchAPI is the public-surface regression
// test for the silent-drop bug: an out-of-pattern entry must fail
// with ErrPatternMismatch and leave the previous factor serving.
func TestRefactorizePatternMismatchAPI(t *testing.T) {
	m := GridLaplacian(10, 10, 1, Star5, 0.2)
	p, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer p.Close()

	// Same size, denser pattern: its extra entries are off-pattern.
	wide := GridLaplacian(10, 10, 1, Box9, 0.2)
	err = p.Refactorize(wide)
	if err == nil {
		t.Fatal("Refactorize silently accepted off-pattern entries")
	}
	if !errors.Is(err, ErrPatternMismatch) {
		t.Fatalf("got %v, want ErrPatternMismatch", err)
	}

	// The preconditioner still serves the last good factor.
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	s, err := NewSolver(m, p, WithTol(1e-8))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	if _, err := s.Solve(context.Background(), b, x); err != nil {
		t.Fatalf("solve after failed Refactorize: %v", err)
	}

	// Opt-out for τ-style workflows.
	opt := DefaultOptions()
	opt.AllowPatternMismatch = true
	p2, err := Factorize(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.Refactorize(wide); err != nil {
		t.Fatalf("Refactorize with AllowPatternMismatch: %v", err)
	}
}

// TestRefactorizeRejectsNonFinite is the factor-side probe on a
// 20×20 grid Laplacian: a +Inf entry fails Refactorize with
// ErrNonFinite, leaves the factor epoch where it was, counts the
// failure, and the previous factor keeps serving bit for bit.
// Factorize rejects the same matrix.
func TestRefactorizeRejectsNonFinite(t *testing.T) {
	m := GridLaplacian(20, 20, 1, Star5, 0.1)
	p, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer p.Close()
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	want := make([]float64, n)
	p.Apply(b, want)

	raw := m.Raw().Clone()
	raw.Val[raw.Nnz()/3] = math.Inf(1)
	bad, err := WrapCSR(raw)
	if err != nil {
		t.Fatal(err)
	}
	e := p.Engine()
	epoch, fails := e.FactorEpoch(), e.RefactorizeFailures()
	if err := p.Refactorize(bad); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Refactorize with +Inf: got %v, want ErrNonFinite", err)
	}
	if e.FactorEpoch() != epoch {
		t.Fatalf("failed Refactorize moved FactorEpoch %d -> %d", epoch, e.FactorEpoch())
	}
	if got := e.RefactorizeFailures(); got != fails+1 {
		t.Fatalf("RefactorizeFailures %d -> %d, want +1", fails, got)
	}
	z := make([]float64, n)
	p.Apply(b, z)
	for i := range z {
		if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
			t.Fatalf("entry %d: %g after the failed Refactorize, %g before", i, z[i], want[i])
		}
	}
	if _, err := Factorize(bad, DefaultOptions()); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Factorize with +Inf: got %v, want ErrNonFinite", err)
	}
}

// overflowMatrix is the tridiagonal 3×3 matrix, every entry finite,
// whose factor overflows: pivot a00, couplings a01 = a10 = 1e200, the
// rest 1. With a00 = 1e-200 the L entry 1e200/1e-200 is +Inf and the
// pivot u11 is −Inf, which the pivot guard lets through; with
// a00 = 1e200 the factor is finite.
func overflowMatrix(a00 float64) *Matrix {
	b := NewBuilder(3, 7)
	b.Add(0, 0, a00)
	b.AddSym(0, 1, 1e200)
	b.Add(1, 1, 1)
	b.AddSym(1, 2, 1)
	b.Add(2, 2, 1)
	return b.Build()
}

// TestFactorOverflowFailsNonFinite: a factor row that overflows to a
// non-finite value fails Factorize with ErrNonFinite, and fails a
// Refactorize from a good factor without moving FactorEpoch, at every
// thread count and lower method.
func TestFactorOverflowFailsNonFinite(t *testing.T) {
	good, bad := overflowMatrix(1e200), overflowMatrix(1e-200)
	for _, lower := range []LowerMethod{LowerAuto, LowerER, LowerSR, LowerNone} {
		for _, threads := range []int{1, 2} {
			opt := DefaultOptions()
			opt.Lower, opt.Threads = lower, threads
			if _, err := Factorize(bad, opt); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("lower=%v threads=%d: Factorize: got %v, want ErrNonFinite", lower, threads, err)
			}
			p, err := Factorize(good, opt)
			if err != nil {
				t.Fatalf("lower=%v threads=%d: Factorize of the good matrix: %v", lower, threads, err)
			}
			e := p.Engine()
			epoch := e.FactorEpoch()
			if err := p.Refactorize(bad); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("lower=%v threads=%d: Refactorize: got %v, want ErrNonFinite", lower, threads, err)
			}
			if e.FactorEpoch() != epoch {
				t.Fatalf("lower=%v threads=%d: failed Refactorize moved FactorEpoch %d -> %d", lower, threads, epoch, e.FactorEpoch())
			}
			z := make([]float64, 3)
			p.Apply([]float64{1, 2, 3}, z)
			for i, x := range z {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("lower=%v threads=%d: Apply on the kept factor: z[%d] = %g", lower, threads, i, x)
				}
			}
			p.Close()
		}
	}
}

// TestNewSolverValidatesOptions covers the option-validation bugfix:
// nonsensical bounds must fail at construction with a descriptive
// error instead of misbehaving mid-solve.
func TestNewSolverValidatesOptions(t *testing.T) {
	m := GridLaplacian(8, 8, 1, Star5, 0.1)
	cases := []struct {
		name string
		opt  SolverOption
		want string
	}{
		{"TolZero", WithTol(0), "WithTol"},
		{"TolNegative", WithTol(-1e-6), "WithTol"},
		{"TolNaN", WithTol(math.NaN()), "WithTol"},
		{"TolPosInf", WithTol(math.Inf(1)), "WithTol"},
		{"MaxIterZero", WithMaxIter(0), "WithMaxIter"},
		{"MaxIterNegative", WithMaxIter(-5), "WithMaxIter"},
		{"RestartZero", WithRestart(0), "WithRestart"},
		{"RestartNegative", WithRestart(-3), "WithRestart"},
		{"ThreadsNegative", WithThreads(-1), "WithThreads"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolver(m, nil, tc.opt)
			if err == nil {
				t.Fatalf("NewSolver accepted %s", tc.name)
			}
			if s != nil {
				t.Fatal("NewSolver returned a solver alongside an error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offending option %q", err, tc.want)
			}
		})
	}

	// Several bad options → all reported.
	_, err := NewSolver(m, nil, WithTol(-1), WithMaxIter(0))
	if err == nil || !strings.Contains(err.Error(), "WithTol") || !strings.Contains(err.Error(), "WithMaxIter") {
		t.Fatalf("joined validation error incomplete: %v", err)
	}

	// Valid boundary values still accepted; WithThreads(0) = inherit.
	if _, err := NewSolver(m, nil, WithTol(1e-12), WithMaxIter(1), WithRestart(1), WithThreads(0)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}
