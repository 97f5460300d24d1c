// Scaling: a miniature Fig. 10/11 — strong-scaling of the numeric
// ILU(0) factorization and the triangular solves over thread counts,
// comparing level scheduling alone (LS) with the full two-stage
// configuration (LS+Lower).
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"javelin"
)

func main() {
	m := javelin.TetraMesh(42, 42, 42, 0xFEED)
	fmt.Printf("scaling study: n=%d nnz=%d rd=%.2f\n", m.N(), m.Nnz(), m.RowDensity())
	fmt.Printf("%-8s  %-12s  %-12s  %-12s  %-12s\n",
		"threads", "ILU (LS)", "ILU (LS+L)", "stri (LS)", "stri (LS+L)")

	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	z := make([]float64, n)

	var base struct{ ilu, solve time.Duration }
	maxT := runtime.GOMAXPROCS(0)
	for p := 1; p <= maxT; p *= 2 {
		iluLS, solveLS := measure(m, p, javelin.LowerNone, b, z)
		iluFull, solveFull := measure(m, p, javelin.LowerAuto, b, z)
		if p == 1 {
			base.ilu, base.solve = iluLS, solveLS
		}
		fmt.Printf("%-8d  %-12s  %-12s  %-12s  %-12s\n", p,
			speed(base.ilu, iluLS), speed(base.ilu, iluFull),
			speed(base.solve, solveLS), speed(base.solve, solveFull))
	}
}

func measure(m *javelin.Matrix, threads int, lower javelin.LowerMethod, b, z []float64) (ilu, solve time.Duration) {
	opt := javelin.DefaultOptions()
	opt.Threads = threads
	opt.Lower = lower
	p, err := javelin.Factorize(m, opt)
	if err != nil {
		log.Fatalf("factorize: %v", err)
	}
	defer p.Close()
	ilu = best(3, func() {
		if err := p.Refactorize(m); err != nil {
			log.Fatal(err)
		}
	})
	// The solves choose their route from their own sweeps, starting
	// inline: apply until the route has settled (or for a second), so
	// the timing sees the route they settle on.
	for start := time.Now(); !p.Engine().RouteSettled() && time.Since(start) < time.Second; {
		p.Apply(b, z)
	}
	solve = best(5, func() { p.Apply(b, z) })
	return ilu, solve
}

func best(k int, f func()) time.Duration {
	bestD := time.Duration(1<<63 - 1)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < bestD {
			bestD = d
		}
	}
	return bestD
}

func speed(base, t time.Duration) string {
	return fmt.Sprintf("%.2fx (%s)", float64(base)/float64(t), t.Round(time.Microsecond))
}
