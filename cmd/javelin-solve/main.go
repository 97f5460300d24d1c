// Command javelin-solve runs an end-to-end preconditioned solve: load
// (or generate) a matrix, factorize with Javelin, and solve A·x = b
// with CG, GMRES, or BiCGSTAB against a synthetic right-hand side,
// through the public Solver session API.
//
// Usage:
//
//	javelin-solve -matrix apache2 -scale 0.05 -solver cg -threads 8
//	javelin-solve -file system.mtx -solver gmres -tol 1e-8
//	javelin-solve -matrix trans4 -solver auto -timeout 30s
//	javelin-solve -matrix wang3 -scale 0.02 -drift
//
// The line after "factorized in" names the route of the solves'
// upper-stage rows, inline or phased, with the best times of the probe
// that Factorize ran on each (core.Engine.SolveRoute); at one thread,
// or where fewer than two lanes can run, no probe runs.
//
// -drift demos the live-update path: the matrix is wrapped in a
// VersionedMatrix, solved, drifted (a diagonal-scaled value update is
// published mid-session), solved again against the now-stale factor,
// and the monitor-driven auto-refactorization is left to restore a
// fresh (A-epoch, factor-epoch) pair — each stage printing the epoch
// pair its solve actually ran against.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"javelin"
	"javelin/internal/bench"
	"javelin/internal/gen"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("javelin-solve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("matrix", "apache2", "Table-I matrix name to generate")
		file    = fs.String("file", "", "MatrixMarket file (overrides -matrix)")
		scale   = fs.Float64("scale", 0.05, "suite scale factor")
		solver  = fs.String("solver", "cg", "cg, gmres, bicgstab, or auto (pattern-based)")
		tol     = fs.Float64("tol", 1e-6, "relative residual tolerance")
		maxIter = fs.Int("maxiter", 0, "iteration cap (0 = solver default)")
		threads = fs.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		lower   = fs.String("lower", "auto", "lower-stage method: auto|er|sr|none")
		timeout = fs.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
		drift   = fs.Bool("drift", false, "demo live value updates with monitor-driven auto-refactorization")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "javelin-solve: "+format+"\n", a...)
		return 1
	}

	var a *sparse.CSR
	if *file != "" {
		m, err := javelin.ReadMatrixMarketFile(*file)
		if err != nil {
			return fail("read %s: %v", *file, err)
		}
		a = m.Raw()
	} else {
		spec, ok := gen.ByName(*name)
		if !ok {
			return fail("unknown matrix %q (see Table I names)", *name)
		}
		a = spec.Build(spec.ScaledN(*scale))
	}
	fmt.Fprintf(stdout, "matrix: n=%d nnz=%d rd=%.2f\n", a.N, a.Nnz(), a.RowDensity())

	m, err := javelin.WrapCSR(bench.Preorder(a))
	if err != nil {
		return fail("matrix: %v", err)
	}

	var method javelin.Method
	switch *solver {
	case "cg":
		method = javelin.MethodCG
	case "gmres":
		method = javelin.MethodGMRES
	case "bicgstab":
		method = javelin.MethodBiCGSTAB
	case "auto":
		method = javelin.MethodAuto
	default:
		return fail("unknown solver %q", *solver)
	}

	opt := javelin.DefaultOptions()
	opt.Threads = *threads
	switch *lower {
	case "auto":
		opt.Lower = javelin.LowerAuto
	case "er":
		opt.Lower = javelin.LowerER
	case "sr":
		opt.Lower = javelin.LowerSR
	case "none":
		opt.Lower = javelin.LowerNone
	default:
		return fail("unknown lower method %q", *lower)
	}

	t0 := time.Now()
	p, err := javelin.Factorize(m, opt)
	if err != nil {
		return fail("factorize: %v", err)
	}
	defer p.Close()
	e := p.Engine()
	fmt.Fprintf(stdout, "factorized in %v (levels=%d upper=%d lower=%d method=%s)\n",
		time.Since(t0), e.Split().Lv.Count, e.Split().NUpper,
		e.Split().NLower(), p.Method())
	// The route of the solves' upper-stage rows, and the timings of the
	// probe that chose it (none at one thread or one runnable lane).
	route, r := "inline", e.SolveRoute()
	if r.Phased {
		route = "phased"
	}
	if r.InlineBest == 0 {
		fmt.Fprintf(stdout, "solve route: %s (no probe)\n", route)
	} else {
		fmt.Fprintf(stdout, "solve route: %s (probe best: inline %v, phased %v)\n", route, r.InlineBest, r.PhasedBest)
	}

	// The Solver inherits the engine's thread count and runtime, so
	// its matvecs ride the same worker pool as the factorization.
	// -maxiter 0 means the solver default, so only that value is
	// withheld; anything else (including negatives) is forwarded for
	// NewSolver to validate.
	solverOpts := []javelin.SolverOption{
		javelin.WithMethod(method), javelin.WithTol(*tol),
	}
	if *maxIter != 0 {
		solverOpts = append(solverOpts, javelin.WithMaxIter(*maxIter))
	}
	if *drift {
		return runDrift(stdout, fail, m, p, solverOpts)
	}

	s, err := javelin.NewSolver(m, p, solverOpts...)
	if err != nil {
		return fail("solver: %v", err)
	}
	if method == javelin.MethodAuto {
		fmt.Fprintf(stdout, "auto-selected method: %s\n", s.Method())
	}

	n := m.N()
	xTrue := make([]float64, n)
	rng := util.NewRNG(2024)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	m.MatVec(xTrue, b)
	x := make([]float64, n)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	t0 = time.Now()
	st, err := s.Solve(ctx, b, x)
	if err != nil {
		var se *javelin.SolveError
		switch {
		case errors.Is(err, context.DeadlineExceeded) && errors.As(err, &se):
			return fail("solve timed out after %d iterations (relres %.3g)",
				se.Stats.Iterations, se.Stats.RelResidual)
		case errors.Is(err, javelin.ErrNotConverged) && errors.As(err, &se):
			return fail("no convergence in %d iterations (relres %.3g)",
				se.Stats.Iterations, se.Stats.RelResidual)
		default:
			return fail("solve: %v", err)
		}
	}
	errNorm := 0.0
	for i := range x {
		errNorm += (x[i] - xTrue[i]) * (x[i] - xTrue[i])
	}
	fmt.Fprintf(stdout, "%s: converged=%v iters=%d relres=%.3g err=%.3g time=%v\n",
		s.Method(), st.Converged, st.Iterations, st.RelResidual,
		errNorm, time.Since(t0))
	return 0
}

// runDrift demos the live-update path: solve on the fresh pair,
// publish a drifted value generation, solve against the stale factor,
// wait for the drift policy's background refactorization, and solve
// once more on the restored pair.
func runDrift(stdout io.Writer, fail func(string, ...any) int,
	m *javelin.Matrix, p *javelin.Preconditioner, solverOpts []javelin.SolverOption) int {
	vm, err := javelin.NewVersionedMatrix(m)
	if err != nil {
		return fail("versioned matrix: %v", err)
	}
	events := make(chan javelin.RefactorizeEvent, 4)
	solverOpts = append(solverOpts, javelin.WithAutoRefactorize(javelin.DriftPolicy{
		IterGrowth: 1.1,
		MinSolves:  1,
		OnRefactorize: func(ev javelin.RefactorizeEvent) {
			events <- ev
		},
	}))
	s, err := javelin.NewVersionedSolver(vm, p, solverOpts...)
	if err != nil {
		return fail("versioned solver: %v", err)
	}
	defer s.Close()

	n := m.N()
	b := make([]float64, n)
	rng := util.NewRNG(2024)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	solve := func(stage string) (javelin.SolverStats, int) {
		for i := range x {
			x[i] = 0
		}
		t0 := time.Now()
		st, err := s.Solve(context.Background(), b, x)
		if err != nil {
			return st, fail("%s solve: %v", stage, err)
		}
		fmt.Fprintf(stdout, "%s solve: pair=(A-epoch %d, factor-epoch %d) iters=%d relres=%.3g time=%v\n",
			stage, st.MatrixEpoch, st.FactorEpoch, st.Iterations, st.RelResidual, time.Since(t0))
		return st, 0
	}

	if _, rc := solve("fresh"); rc != 0 {
		return rc
	}

	// Drift: republish with the diagonal scaled up, as a timestep or
	// parameter change would. The pattern is untouched, so this is one
	// atomic value-generation swap — no new factorization yet.
	raw := m.Raw()
	vals := append([]float64(nil), raw.Val...)
	for i := 0; i < raw.N; i++ {
		for k := raw.RowPtr[i]; k < raw.RowPtr[i+1]; k++ {
			if raw.ColIdx[k] == i {
				vals[k] *= 2
			}
		}
	}
	if err := vm.UpdateValues(vals); err != nil {
		return fail("update: %v", err)
	}
	fmt.Fprintf(stdout, "published drifted values: matrix epoch %d\n", vm.Epoch())

	if _, rc := solve("stale"); rc != 0 {
		return rc
	}

	select {
	case ev := <-events:
		if ev.Err != nil {
			return fail("auto-refactorize: %v", ev.Err)
		}
		fmt.Fprintf(stdout, "auto-refactorized: matrix epoch %d -> factor epoch %d\n",
			ev.MatrixEpoch, ev.FactorEpoch)
	case <-time.After(time.Minute):
		return fail("no auto-refactorization within 1m of the stale solve")
	}

	if _, rc := solve("restored"); rc != 0 {
		return rc
	}
	ds := s.DriftStats()
	fmt.Fprintf(stdout, "drift stats: triggers=%d published=%d failures=%d skipped=%d\n",
		ds.Triggers, ds.Published, ds.Failures, ds.Skipped)
	return 0
}
