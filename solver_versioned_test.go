package javelin

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// versionedProblem builds a small SPD grid system with a versioned
// wrapper and a preconditioner factorized from its first generation.
func versionedProblem(t *testing.T, threads int) (*Matrix, *VersionedMatrix, *Preconditioner) {
	t.Helper()
	m := GridLaplacian(16, 16, 1, Star5, 0.2)
	vm, err := NewVersionedMatrix(m)
	if err != nil {
		t.Fatalf("NewVersionedMatrix: %v", err)
	}
	opt := DefaultOptions()
	opt.Threads = threads
	p, err := Factorize(m, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	return m, vm, p
}

// diagScaledVals returns m's value array with diagonal entries scaled
// by s, in CSR entry order — the deterministic "generation g" values
// the hammer tests publish and later rebuild for replay.
func diagScaledVals(m *Matrix, s float64) []float64 {
	raw := m.Raw()
	vals := append([]float64(nil), raw.Val...)
	for i := 0; i < raw.N; i++ {
		for k := raw.RowPtr[i]; k < raw.RowPtr[i+1]; k++ {
			if raw.ColIdx[k] == i {
				vals[k] *= s
			}
		}
	}
	return vals
}

// genScale maps a matrix epoch number to its diagonal scale. Epoch 1
// is the construction values (scale 1); later generations drift in a
// small deterministic cycle so stale-pair solves still converge.
func genScale(epoch uint64) float64 {
	if epoch <= 1 {
		return 1
	}
	return 1 + 0.05*float64((epoch-1)%4+1)
}

// matrixAt rebuilds the exact matrix published as the given epoch.
func matrixAt(t *testing.T, m *Matrix, epoch uint64) *Matrix {
	t.Helper()
	raw := m.Raw().Clone()
	raw.Val = diagScaledVals(m, genScale(epoch))
	m2, err := WrapCSR(raw)
	if err != nil {
		t.Fatalf("WrapCSR: %v", err)
	}
	return m2
}

func TestVersionedSolverMatchesPlainSolver(t *testing.T) {
	m, vm, p := versionedProblem(t, 2)
	defer p.Close()
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.23)
	}
	const tol = 1e-9

	plain, err := NewSolver(m, p, WithTol(tol))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	xp := make([]float64, n)
	stP, err := plain.Solve(context.Background(), b, xp)
	if err != nil {
		t.Fatalf("plain Solve: %v", err)
	}
	if stP.MatrixEpoch != 0 {
		t.Fatalf("plain solver reported matrix epoch %d, want 0", stP.MatrixEpoch)
	}
	if stP.FactorEpoch != 1 {
		t.Fatalf("plain solver factor epoch = %d, want 1", stP.FactorEpoch)
	}

	vs, err := NewVersionedSolver(vm, p, WithTol(tol))
	if err != nil {
		t.Fatalf("NewVersionedSolver: %v", err)
	}
	xv := make([]float64, n)
	stV, err := vs.Solve(context.Background(), b, xv)
	if err != nil {
		t.Fatalf("versioned Solve: %v", err)
	}
	if stV.MatrixEpoch != 1 || stV.FactorEpoch != 1 {
		t.Fatalf("versioned pair = (%d,%d), want (1,1)", stV.MatrixEpoch, stV.FactorEpoch)
	}
	if stV.Iterations != stP.Iterations {
		t.Fatalf("iteration counts differ: versioned %d, plain %d", stV.Iterations, stP.Iterations)
	}
	for i := range xv {
		if xv[i] != xp[i] {
			t.Fatalf("x[%d] differs bitwise: versioned %g, plain %g", i, xv[i], xp[i])
		}
	}
	if vs.Method() != MethodCG {
		t.Fatalf("versioned MethodAuto = %v, want cg", vs.Method())
	}
}

// TestVersionedSolverSeesUpdates verifies the publish half of the
// contract: a solve starting after UpdateValues returns runs against
// the new generation (and reports its epoch), while the pattern and
// solver session stay untouched.
func TestVersionedSolverSeesUpdates(t *testing.T) {
	m, vm, p := versionedProblem(t, 1)
	defer p.Close()
	s, err := NewVersionedSolver(vm, p, WithTol(1e-8))
	if err != nil {
		t.Fatal(err)
	}
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	if err := vm.UpdateValues(diagScaledVals(m, genScale(2))); err != nil {
		t.Fatalf("UpdateValues: %v", err)
	}
	x := make([]float64, n)
	st, err := s.Solve(context.Background(), b, x)
	if err != nil {
		t.Fatalf("Solve after update: %v", err)
	}
	if st.MatrixEpoch != 2 {
		t.Fatalf("solve pinned matrix epoch %d, want 2", st.MatrixEpoch)
	}
	// The solve must have converged against the UPDATED matrix.
	if res := trueRelResidual(matrixAt(t, m, 2), b, x); res > 1e-6 {
		t.Fatalf("residual against epoch-2 matrix = %g", res)
	}
}

func TestUpdateMatrixPatternChecked(t *testing.T) {
	m, vm, p := versionedProblem(t, 1)
	defer p.Close()
	if err := vm.UpdateMatrix(bumpDiagonal(t, m, 2)); err != nil {
		t.Fatalf("same-pattern UpdateMatrix: %v", err)
	}
	if vm.Epoch() != 2 || vm.Updates() != 1 {
		t.Fatalf("epoch/updates = %d/%d, want 2/1", vm.Epoch(), vm.Updates())
	}
	wide := GridLaplacian(16, 16, 1, Box9, 0.2)
	if err := vm.UpdateMatrix(wide); err == nil {
		t.Fatal("UpdateMatrix accepted a different pattern")
	}
	if vm.Epoch() != 2 {
		t.Fatalf("failed UpdateMatrix advanced the epoch to %d", vm.Epoch())
	}
	if err := vm.UpdateValues(make([]float64, vm.Nnz()+3)); err == nil {
		t.Fatal("UpdateValues accepted a wrong-length slice")
	}
}

// TestUpdateValuesRejectsNonFinite is the NaN probe on a 20×20 grid
// Laplacian: one NaN fails UpdateValues with ErrNonFinite and
// publishes nothing, the next good update publishes normally, and
// NewVersionedMatrix rejects a non-finite first generation.
func TestUpdateValuesRejectsNonFinite(t *testing.T) {
	m := GridLaplacian(20, 20, 1, Star5, 0.1)
	vm, err := NewVersionedMatrix(m)
	if err != nil {
		t.Fatalf("NewVersionedMatrix: %v", err)
	}
	vals := append([]float64(nil), m.Raw().Val...)
	k := len(vals) / 2
	vals[k] = math.NaN()
	if err := vm.UpdateValues(vals); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("UpdateValues with a NaN: got %v, want ErrNonFinite", err)
	}
	if vm.Epoch() != 1 || vm.Updates() != 0 {
		t.Fatalf("failed UpdateValues moved epoch/updates to %d/%d", vm.Epoch(), vm.Updates())
	}
	vals[k] = m.Raw().Val[k]
	if err := vm.UpdateValues(vals); err != nil {
		t.Fatalf("UpdateValues after a rejected one: %v", err)
	}
	if vm.Epoch() != 2 {
		t.Fatalf("epoch %d after a good update, want 2", vm.Epoch())
	}

	raw := m.Raw().Clone()
	raw.Val[0] = math.Inf(-1)
	bad, err := WrapCSR(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVersionedMatrix(bad); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NewVersionedMatrix with -Inf: got %v, want ErrNonFinite", err)
	}
}

// TestMethodAutoNumericSymmetry covers MethodAuto on a structurally
// symmetric but numerically unsymmetric matrix: the pattern check
// alone would route it to CG, whose recurrence assumes A = Aᵀ, so
// auto must inspect the values too and fall back to GMRES.
func TestMethodAutoNumericSymmetry(t *testing.T) {
	sym := GridLaplacian(12, 12, 1, Star5, 0.2)
	// Perturb one off-diagonal entry without its mirror: the pattern
	// stays exactly symmetric, the values do not.
	raw := sym.Raw().Clone()
	for i := 0; i < raw.N && raw.Val != nil; i++ {
		done := false
		for k := raw.RowPtr[i]; k < raw.RowPtr[i+1]; k++ {
			if raw.ColIdx[k] > i {
				raw.Val[k] *= 1.25
				done = true
				break
			}
		}
		if done {
			break
		}
	}
	unsym, err := WrapCSR(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !unsym.PatternSymmetric() {
		t.Fatal("perturbed matrix lost pattern symmetry; test is broken")
	}
	if unsym.NumericallySymmetric(0) {
		t.Fatal("perturbed matrix still numerically symmetric; test is broken")
	}

	sSym, err := NewSolver(sym, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sSym.Method() != MethodCG {
		t.Fatalf("auto on symmetric matrix = %v, want cg", sSym.Method())
	}
	sUnsym, err := NewSolver(unsym, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sUnsym.Method() != MethodGMRES {
		t.Fatalf("auto on numerically-unsymmetric matrix = %v, want gmres", sUnsym.Method())
	}
	// And the solve must actually work with the auto choice.
	n := unsym.N()
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Cos(float64(i) * 0.4)
	}
	b := make([]float64, n)
	unsym.MatVec(xTrue, b)
	x := make([]float64, n)
	if st, err := sUnsym.Solve(context.Background(), b, x); err != nil || !st.Converged {
		t.Fatalf("auto GMRES solve on perturbed matrix: %v %+v", err, st)
	}
}

// TestAutoRefactorizeDrift walks the drift policy end to end in a
// controlled sequence: fresh-pair solves set the baseline, a value
// update makes the pair stale, the next solve detects the iteration
// growth and triggers the background refactorize, and once it
// publishes, solves run on the fresh pair again at baseline cost.
func TestAutoRefactorizeDrift(t *testing.T) {
	m, vm, p := versionedProblem(t, 2)
	defer p.Close()
	events := make(chan RefactorizeEvent, 16)
	s, err := NewVersionedSolver(vm, p,
		WithTol(1e-8),
		WithAutoRefactorize(DriftPolicy{
			IterGrowth: 1.05,
			MinSolves:  1,
			OnRefactorize: func(ev RefactorizeEvent) {
				events <- ev
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.31)
	}
	x := make([]float64, n)
	solve := func() SolverStats {
		t.Helper()
		for i := range x {
			x[i] = 0
		}
		st, err := s.Solve(context.Background(), b, x)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		return st
	}

	base := solve() // fresh pair (1,1): establishes the baseline
	if base.MatrixEpoch != 1 || base.FactorEpoch != 1 {
		t.Fatalf("baseline pair = (%d,%d), want (1,1)", base.MatrixEpoch, base.FactorEpoch)
	}

	// Strong drift so the stale-pair iteration count clearly inflates.
	if err := vm.UpdateValues(diagScaledVals(m, 3)); err != nil {
		t.Fatal(err)
	}
	stale := solve() // pair (2,1): stale, should trigger
	if stale.MatrixEpoch != 2 || stale.FactorEpoch != 1 {
		t.Fatalf("stale pair = (%d,%d), want (2,1)", stale.MatrixEpoch, stale.FactorEpoch)
	}
	if stale.Iterations <= base.Iterations {
		t.Fatalf("drift did not inflate iterations (%d <= %d); test is vacuous",
			stale.Iterations, base.Iterations)
	}

	var ev RefactorizeEvent
	select {
	case ev = <-events:
	case <-time.After(10 * time.Second):
		t.Fatal("no background refactorization within 10s of a stale-pair solve")
	}
	if ev.Err != nil {
		t.Fatalf("auto refactorize failed: %v", ev.Err)
	}
	if ev.MatrixEpoch != 2 || ev.FactorEpoch != 2 {
		t.Fatalf("refactorize event = %+v, want matrix 2 → factor 2", ev)
	}
	if got := p.Engine().FactorEpoch(); got != 2 {
		t.Fatalf("engine factor epoch = %d, want 2", got)
	}
	if got := p.Engine().Refactorizes(); got != 1 {
		t.Fatalf("Refactorizes = %d, want 1", got)
	}

	fresh := solve() // pair (2,2): fresh again
	if fresh.MatrixEpoch != 2 || fresh.FactorEpoch != 2 {
		t.Fatalf("post-refactorize pair = (%d,%d), want (2,2)", fresh.MatrixEpoch, fresh.FactorEpoch)
	}
	if fresh.Iterations > base.Iterations+2 {
		t.Fatalf("refactorized solve still slow: %d iterations vs baseline %d",
			fresh.Iterations, base.Iterations)
	}
	ds := s.DriftStats()
	if ds.Triggers < 1 || ds.Published < 1 || ds.Failures != 0 {
		t.Fatalf("drift stats %+v, want >=1 trigger and publish, 0 failures", ds)
	}
}

// TestAutoRefactorizeFailureKeepsPair poisons the matrix values so
// the background refactorization hits a zero pivot: the attempt must
// fail without disturbing the published (A, factor) pair, count in
// the failure stats, and a later good update must recover.
func TestAutoRefactorizeFailureKeepsPair(t *testing.T) {
	m, vm, p := versionedProblem(t, 1)
	defer p.Close()
	events := make(chan RefactorizeEvent, 16)
	s, err := NewVersionedSolver(vm, p,
		WithTol(1e-8), WithMaxIter(40),
		WithAutoRefactorize(DriftPolicy{
			IterGrowth: 1.05,
			MinSolves:  1,
			OnRefactorize: func(ev RefactorizeEvent) {
				events <- ev
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	if _, err := s.Solve(context.Background(), b, x); err != nil {
		t.Fatalf("baseline solve: %v", err)
	}

	// Zero diagonal: scatter succeeds, the ILU hits a zero pivot.
	poison := append([]float64(nil), m.Raw().Val...)
	raw := m.Raw()
	for i := 0; i < raw.N; i++ {
		for k := raw.RowPtr[i]; k < raw.RowPtr[i+1]; k++ {
			if raw.ColIdx[k] == i {
				poison[k] = 0
			}
		}
	}
	if err := vm.UpdateValues(poison); err != nil {
		t.Fatal(err)
	}
	// The stale-pair solve against the singular matrix may fail any
	// way it likes (breakdown, non-convergence); what matters is that
	// it returns and feeds the drift policy.
	for i := range x {
		x[i] = 0
	}
	s.Solve(context.Background(), b, x) //nolint:errcheck

	var ev RefactorizeEvent
	select {
	case ev = <-events:
	case <-time.After(10 * time.Second):
		t.Fatal("no background refactorization attempt within 10s")
	}
	if ev.Err == nil {
		t.Fatal("refactorize of a zero-diagonal matrix succeeded")
	}
	if ev.FactorEpoch != 0 {
		t.Fatalf("failed refactorize reported factor epoch %d, want 0", ev.FactorEpoch)
	}
	if got := p.Engine().FactorEpoch(); got != 1 {
		t.Fatalf("failed refactorize moved the factor epoch to %d", got)
	}
	if got := p.Engine().RefactorizeFailures(); got < 1 {
		t.Fatalf("RefactorizeFailures = %d, want >= 1", got)
	}
	if ds := s.DriftStats(); ds.Failures < 1 {
		t.Fatalf("drift stats %+v, want >= 1 failure", ds)
	}

	// Recovery: publish good values again; the factor (still epoch 1,
	// built from those same values) serves immediately.
	if err := vm.UpdateValues(append([]float64(nil), m.Raw().Val...)); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		x[i] = 0
	}
	st, err := s.Solve(context.Background(), b, x)
	if err != nil {
		t.Fatalf("solve after recovery: %v", err)
	}
	if !st.Converged {
		t.Fatalf("recovery solve did not converge: %+v", st)
	}
}

// TestAutoRefactorizeCloseCancellation covers Close against an
// in-flight background refactorization: Close must wait it out (the
// counters balance), and no further attempts may launch afterwards.
func TestAutoRefactorizeCloseCancellation(t *testing.T) {
	m, vm, p := versionedProblem(t, 1)
	defer p.Close()
	s, err := NewVersionedSolver(vm, p,
		WithTol(1e-8),
		WithAutoRefactorize(DriftPolicy{IterGrowth: 1.01, MinSolves: 1}))
	if err != nil {
		t.Fatal(err)
	}
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	if _, err := s.Solve(context.Background(), b, x); err != nil {
		t.Fatalf("baseline solve: %v", err)
	}
	if err := vm.UpdateValues(diagScaledVals(m, 3)); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		x[i] = 0
	}
	// Stale-pair solve launches the background refactorize; Close
	// races it and must wait for it rather than abandoning it.
	if _, err := s.Solve(context.Background(), b, x); err != nil {
		t.Fatalf("stale solve: %v", err)
	}
	s.Close()
	ds := s.DriftStats()
	if ds.Triggers != ds.Published+ds.Failures {
		t.Fatalf("Close returned with an unfinished refactorization: %+v", ds)
	}

	// After Close, stale solves must not launch new attempts.
	before := s.DriftStats().Triggers
	if err := vm.UpdateValues(diagScaledVals(m, 4)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for i := range x {
			x[i] = 0
		}
		if _, err := s.Solve(context.Background(), b, x); err != nil {
			t.Fatalf("solve after Close: %v", err)
		}
	}
	if after := s.DriftStats().Triggers; after != before {
		t.Fatalf("Close did not stop the policy: triggers %d → %d", before, after)
	}
	s.Close() // idempotent
}

// pairKey identifies one published (A-epoch, factor-epoch) pair.
type pairKey struct{ m, f uint64 }

// TestVersionedSolverPairHammer is the ISSUE 10 acceptance test: 16
// goroutines Solve through one versioned Solver while UpdateValues
// publishes new matrix generations and the drift policy refactorizes
// in the background. Every solve must be bitwise identical to a
// serial solve against the one (A, factor) pair it reports — no torn
// reads, no mixed generations. Run under -race in the CI race-hot
// shard.
func TestVersionedSolverPairHammer(t *testing.T) {
	m, vm, p := versionedProblem(t, 2)
	defer p.Close()
	const tol = 1e-8

	// factorSrc maps each published factor epoch to the matrix epoch
	// it was built from (epoch 1 came from the construction values).
	var evMu sync.Mutex
	factorSrc := map[uint64]uint64{1: 1}
	s, err := NewVersionedSolver(vm, p,
		WithTol(tol),
		WithAutoRefactorize(DriftPolicy{
			IterGrowth: 1.02,
			MinSolves:  1,
			OnRefactorize: func(ev RefactorizeEvent) {
				if ev.Err == nil {
					evMu.Lock()
					factorSrc[ev.FactorEpoch] = ev.MatrixEpoch
					evMu.Unlock()
				}
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.19)
	}

	// Shared record of every observed pair's solution; solves of the
	// same pair must agree bitwise among themselves AND with the
	// serial replay below.
	var recMu sync.Mutex
	solutions := map[pairKey][]float64{}
	iterations := map[pairKey]int{}

	stop := make(chan struct{})
	fail := make(chan string, 20)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
				st, err := s.Solve(context.Background(), b, x)
				if err != nil {
					fail <- "Solve during hammer: " + err.Error()
					return
				}
				key := pairKey{st.MatrixEpoch, st.FactorEpoch}
				recMu.Lock()
				if prev, ok := solutions[key]; ok {
					for i := range x {
						if x[i] != prev[i] {
							recMu.Unlock()
							fail <- "two solves of the same (A, factor) pair differ bitwise"
							return
						}
					}
					if iterations[key] != st.Iterations {
						recMu.Unlock()
						fail <- "two solves of the same pair took different iteration counts"
						return
					}
				} else {
					solutions[key] = append([]float64(nil), x...)
					iterations[key] = st.Iterations
				}
				recMu.Unlock()
			}
		}()
	}

	// Publisher: deterministic generations 2..26, paced so solves and
	// background refactorizations interleave with the updates.
	for g := uint64(2); g <= 26; g++ {
		if err := vm.UpdateValues(diagScaledVals(m, genScale(g))); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("UpdateValues: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Close()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	if len(solutions) < 2 {
		t.Fatalf("hammer observed only %d distinct pairs; too little churn to prove anything", len(solutions))
	}

	// Serial replay: for every observed pair, rebuild the exact
	// factor (fresh engine on the factor's source generation — the
	// numeric factorization is deterministic) and the exact matrix
	// generation, solve serially, and demand bitwise equality.
	for key, want := range solutions {
		src, ok := factorSrc[key.f]
		if !ok {
			t.Fatalf("solve used factor epoch %d that no refactorization published", key.f)
		}
		mSrc := matrixAt(t, m, src)
		opt := DefaultOptions()
		opt.Threads = 2
		pr, err := Factorize(mSrc, opt)
		if err != nil {
			t.Fatalf("replay Factorize(src %d): %v", src, err)
		}
		sr, err := NewSolver(matrixAt(t, m, key.m), pr, WithTol(tol))
		if err != nil {
			pr.Close()
			t.Fatal(err)
		}
		x := make([]float64, n)
		st, err := sr.Solve(context.Background(), b, x)
		if err != nil {
			pr.Close()
			t.Fatalf("replay solve of pair (%d,%d): %v", key.m, key.f, err)
		}
		if st.Iterations != iterations[key] {
			pr.Close()
			t.Fatalf("pair (%d,%d): live solve took %d iterations, serial replay %d",
				key.m, key.f, iterations[key], st.Iterations)
		}
		for i := range x {
			if x[i] != want[i] {
				pr.Close()
				t.Fatalf("pair (%d,%d): x[%d] differs bitwise from serial replay (%g vs %g)",
					key.m, key.f, i, want[i], x[i])
			}
		}
		pr.Close()
	}
}
