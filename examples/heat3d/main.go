// Heat3d: a 3D heat-equation Laplacian (apache2/thermal2-style)
// solved with ILU(0)-PCG under different preorderings, reproducing
// the Table-II trade-off in miniature: RCM needs fewer iterations,
// ND exposes more level parallelism (fewer, larger level sets).
package main

import (
	"context"
	"fmt"
	"log"

	"javelin"
)

func main() {
	m := javelin.GridLaplacian(40, 40, 40, javelin.Star7, 0.05)
	fmt.Printf("heat3d: n=%d nnz=%d rd=%.2f\n", m.N(), m.Nnz(), m.RowDensity())

	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 // uniform heat source
	}

	for _, ord := range []struct {
		name string
		o    javelin.Ordering
	}{
		{"NAT", javelin.OrderNatural},
		{"RCM", javelin.OrderRCM},
		{"ND", javelin.OrderND},
		{"AMD", javelin.OrderAMD},
	} {
		perm := javelin.ComputeOrdering(ord.o, m)
		pm := javelin.PermuteSym(m, perm)

		p, err := javelin.Factorize(pm, javelin.DefaultOptions())
		if err != nil {
			log.Fatalf("%s: factorize: %v", ord.name, err)
		}
		// Permute b to match the reordered system.
		pb := make([]float64, n)
		for newI, oldI := range perm {
			pb[newI] = b[oldI]
		}
		s, err := javelin.NewSolver(pm, p, javelin.WithMethod(javelin.MethodCG), javelin.WithTol(1e-6))
		if err != nil {
			log.Fatalf("%s: solver: %v", ord.name, err)
		}
		x := make([]float64, n)
		st, err := s.Solve(context.Background(), pb, x)
		if err != nil {
			log.Fatalf("%s: solve: %v", ord.name, err)
		}
		fmt.Printf("%-4s levels=%-5d upper-rows=%-7d lower=%-4s iters=%-5d converged=%v\n",
			ord.name, p.NumLevels(), p.NUpper(), p.Method(), st.Iterations, st.Converged)
		p.Close()
	}
}
