// Quickstart: build a small SPD system, factorize it with Javelin's
// defaults, and solve it through a Solver session — the one entry
// point for iterative solves (method selection, cancellation, typed
// errors, and concurrency safety built in).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"javelin"
)

func main() {
	// A 100×100 2D Laplacian (ecology2-style problem, scaled down).
	m := javelin.GridLaplacian(100, 100, 1, javelin.Star5, 0.1)
	fmt.Printf("matrix: n=%d nnz=%d rd=%.2f\n", m.N(), m.Nnz(), m.RowDensity())

	// Factorize with the paper defaults: ILU(0), level scheduling on
	// lower(A+Aᵀ), automatic SR/ER lower stage.
	p, err := javelin.Factorize(m, javelin.DefaultOptions())
	if err != nil {
		log.Fatalf("factorize: %v", err)
	}
	defer p.Close()
	fmt.Printf("factor: levels=%d upper-stage rows=%d lower method=%s\n",
		p.NumLevels(), p.NUpper(), p.Method())

	// Build the solve session once. MethodAuto reads the pattern
	// symmetry and picks CG here; the session is reusable and safe for
	// any number of concurrent Solve calls.
	solver, err := javelin.NewSolver(m, p, javelin.WithTol(1e-8))
	if err != nil {
		log.Fatalf("solver: %v", err)
	}
	fmt.Printf("solver: method=%s\n", solver.Method())

	// Manufacture a right-hand side with a known solution.
	n := m.N()
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i%7) - 3
	}
	b := make([]float64, n)
	m.MatVec(xTrue, b)

	// Solve. Errors are typed: non-convergence, breakdown, bad input,
	// and cancellation are all errors.Is-distinguishable, and a
	// *SolveError carries the stats at the stopping point.
	x := make([]float64, n)
	st, err := solver.Solve(context.Background(), b, x)
	if err != nil {
		var se *javelin.SolveError
		if errors.Is(err, javelin.ErrNotConverged) && errors.As(err, &se) {
			log.Fatalf("stalled at relres %.2e after %d iterations",
				se.Stats.RelResidual, se.Stats.Iterations)
		}
		log.Fatalf("solve: %v", err)
	}
	maxErr := 0.0
	for i := range x {
		if d := abs(x[i] - xTrue[i]); d > maxErr {
			maxErr = d
		}
	}
	fmt.Printf("%s: converged=%v iterations=%d relres=%.2e max|x-x*|=%.2e\n",
		solver.Method(), st.Converged, st.Iterations, st.RelResidual, maxErr)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
