// Circuit: precondition an irregular, unsymmetric circuit-simulation
// system with Javelin ILU and solve with GMRES, comparing the SR and
// ER lower-stage methods — the workload class (scircuit, trans4,
// ASIC_*) the paper's introduction motivates beyond PDE meshes.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"javelin"
)

func main() {
	// An irregular netlist-like system with dense power rails and a
	// half-unsymmetric pattern (controlled sources).
	m := javelin.Circuit(javelin.CircuitOptions{
		N:         40000,
		AvgDeg:    4,
		NumHubs:   8,
		HubDeg:    400,
		UnsymFrac: 0.4,
		Locality:  128,
		Seed:      0xC1AC1A,
	})
	fmt.Printf("circuit: n=%d nnz=%d rd=%.2f symmetric-pattern=%v\n",
		m.N(), m.Nnz(), m.RowDensity(), m.PatternSymmetric())

	n := m.N()
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = 1.0 / float64(1+i%13)
	}
	b := make([]float64, n)
	m.MatVec(xTrue, b)

	for _, lower := range []javelin.LowerMethod{javelin.LowerSR, javelin.LowerER, javelin.LowerNone} {
		opt := javelin.DefaultOptions()
		opt.Lower = lower
		t0 := time.Now()
		p, err := javelin.Factorize(m, opt)
		if err != nil {
			log.Fatalf("factorize (%v): %v", lower, err)
		}
		factTime := time.Since(t0)

		s, err := javelin.NewSolver(m, p, javelin.WithMethod(javelin.MethodGMRES),
			javelin.WithTol(1e-8), javelin.WithRestart(40))
		if err != nil {
			log.Fatalf("solver (%v): %v", lower, err)
		}
		x := make([]float64, n)
		t0 = time.Now()
		st, err := s.Solve(context.Background(), b, x)
		if err != nil {
			log.Fatalf("gmres (%v): %v", lower, err)
		}
		fmt.Printf("%-5v factor=%-12v gmres: iters=%-4d converged=%-5v solve=%v\n",
			lower, factTime, st.Iterations, st.Converged, time.Since(t0))
		p.Close()
	}
}
