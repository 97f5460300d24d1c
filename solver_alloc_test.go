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
// warm, Solve performs zero heap allocations per call. It runs at
// Threads 1 and 2, with a preconditioner factored at the same thread
// count; at 2 every matvec opens a region, whatever the P count.
func TestSolverWarmSolvesDoNotAllocate(t *testing.T) {
	m := GridLaplacian(24, 24, 1, Star5, 0.1)
	b := make([]float64, m.N())
	for i := range b {
		b[i] = float64(i%9) - 4
	}
	x := make([]float64, m.N())
	for _, threads := range []int{1, 2} {
		opt := DefaultOptions()
		opt.Threads = threads
		p, err := Factorize(m, opt)
		if err != nil {
			t.Fatalf("threads=%d: Factorize: %v", threads, err)
		}
		defer p.Close()
		s, err := NewSolver(m, p, WithTol(1e-8), WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		solve := func() {
			for i := range x {
				x[i] = 0
			}
			if _, err := s.Solve(context.Background(), b, x); err != nil {
				t.Fatalf("threads=%d: Solve: %v", threads, err)
			}
		}
		solve() // warm the pools
		solve()
		if allocs := testing.AllocsPerRun(5, solve); allocs > 0 {
			t.Errorf("threads=%d: warm Solve allocated %.0f objects per call, want 0", threads, allocs)
		}
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
