//go:build !race

// The warm-pool allocation assertion lives behind !race: under the
// race detector sync.Pool intentionally randomizes Get/Put (to shake
// out misuse), so pooled objects are sometimes dropped and the
// zero-alloc property cannot hold there.

package javelin

import (
	"context"
	"testing"
)

// TestSolverWarmSolvesDoNotAllocate asserts the pooled-session
// acceptance criterion: once the context and workspace pools are
// warm, Solve performs zero heap allocations per call.
func TestSolverWarmSolvesDoNotAllocate(t *testing.T) {
	m, p, b, _ := solverProblem(t, 24)
	s, err := NewSolver(m, p, WithTol(1e-8), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.N())
	solve := func() {
		for i := range x {
			x[i] = 0
		}
		if _, err := s.Solve(context.Background(), b, x); err != nil {
			t.Fatalf("Solve: %v", err)
		}
	}
	solve() // warm the pools
	solve()
	if allocs := testing.AllocsPerRun(5, solve); allocs > 0 {
		t.Errorf("warm Solve allocated %.0f objects per call, want 0", allocs)
	}
}

// TestVersionedUpdateValuesDoesNotAllocate: once a drained buffer and
// a spare epoch header exist, UpdateValues recycles both and performs
// zero heap allocations per call.
func TestVersionedUpdateValuesDoesNotAllocate(t *testing.T) {
	vm, err := NewVersionedMatrix(GridLaplacian(16, 16, 1, Star5, 1))
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]float64(nil), vm.Matrix().Raw().Val...)
	update := func() {
		if err := vm.UpdateValues(vals); err != nil {
			t.Fatalf("UpdateValues: %v", err)
		}
	}
	update() // allocate the second buffer and header
	update()
	if allocs := testing.AllocsPerRun(10, update); allocs != 0 {
		t.Errorf("warm UpdateValues allocated %.0f objects per call, want 0", allocs)
	}
}
