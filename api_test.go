package javelin

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
)

func TestBuilderAndMatrixBasics(t *testing.T) {
	b := NewBuilder(3, 8)
	b.Add(0, 0, 2)
	b.AddSym(0, 1, -1)
	b.Add(1, 1, 2)
	b.Add(2, 2, 2)
	m := b.Build()
	if m.N() != 3 || m.Cols() != 3 || m.Nnz() != 5 {
		t.Fatalf("shape n=%d cols=%d nnz=%d", m.N(), m.Cols(), m.Nnz())
	}
	if m.At(1, 0) != -1 || m.At(0, 1) != -1 {
		t.Fatal("AddSym mirror missing")
	}
	if !m.PatternSymmetric() {
		t.Error("pattern should be symmetric")
	}
	y := make([]float64, 3)
	m.MatVec([]float64{1, 1, 1}, y)
	if y[0] != 1 || y[1] != 1 || y[2] != 2 {
		t.Errorf("MatVec %v", y)
	}
}

func TestFactorizeAndCGEndToEnd(t *testing.T) {
	m := GridLaplacian(30, 30, 1, Star5, 0.1)
	p, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n := m.N()
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = float64(i % 5)
	}
	b := make([]float64, n)
	m.MatVec(xTrue, b)
	x := make([]float64, n)
	s, err := NewSolver(m, p, WithMethod(MethodCG), WithTol(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), b, x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-5 {
			t.Fatalf("x[%d]=%g want %g", i, x[i], xTrue[i])
		}
	}
}

func TestGMRESOnCircuit(t *testing.T) {
	m := Circuit(CircuitOptions{N: 2000, AvgDeg: 4, NumHubs: 3, HubDeg: 60,
		UnsymFrac: 0.4, Locality: 64, Seed: 12})
	p, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	s, err := NewSolver(m, p, WithMethod(MethodGMRES), WithTol(1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Solve(context.Background(), b, x); err != nil {
		t.Fatalf("GMRES did not converge: %v %+v", err, st)
	}
}

func TestSolveWithoutPreconditioner(t *testing.T) {
	m := GridLaplacian(12, 12, 1, Star5, 1)
	n := m.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	s, err := NewSolver(m, nil, WithMethod(MethodCG), WithTol(1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), b, x); err != nil {
		t.Fatalf("plain CG should converge on a dominant Laplacian: %v", err)
	}
}

func TestOrderingsThroughAPI(t *testing.T) {
	m := GridLaplacian(15, 15, 1, Star5, 1)
	for _, o := range []Ordering{OrderNatural, OrderRCM, OrderAMD, OrderND} {
		p := ComputeOrdering(o, m)
		if err := p.Validate(); err != nil {
			t.Errorf("ordering %d: %v", o, err)
		}
		pm := PermuteSym(m, p)
		if pm.Nnz() != m.Nnz() {
			t.Errorf("ordering %d changed nnz", o)
		}
	}
}

func TestZeroFreeDiagonalAPI(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 1, 1)
	b.Add(1, 2, 1)
	b.Add(2, 0, 1)
	m := b.Build()
	p := ZeroFreeDiagonal(m)
	pm := PermuteRows(m, p)
	for i := 0; i < 3; i++ {
		if pm.At(i, i) == 0 {
			t.Fatalf("diagonal %d still zero", i)
		}
	}
}

func TestMatrixMarketRoundTripAPI(t *testing.T) {
	m := TetraMesh(4, 4, 4, 2)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.N() != m.N() || m2.Nnz() != m.Nnz() {
		t.Fatal("round trip changed the matrix")
	}
}

func TestPreconditionerIntrospection(t *testing.T) {
	m := GridLaplacian(40, 10, 1, Star5, 1)
	opt := DefaultOptions()
	opt.Threads = 2
	p, err := Factorize(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.NumLevels() <= 0 {
		t.Error("NumLevels")
	}
	if p.NUpper() <= 0 || p.NUpper() > m.N() {
		t.Errorf("NUpper %d", p.NUpper())
	}
	if p.Engine() == nil {
		t.Error("Engine() nil")
	}
	switch p.Method() {
	case LowerAuto:
		t.Error("Method() must be resolved, not Auto")
	case LowerER, LowerSR, LowerNone:
	default:
		t.Error("unknown method")
	}
}

func TestRefactorizeAPI(t *testing.T) {
	m := GridLaplacian(10, 10, 1, Star5, 1)
	p, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Refactorize(m); err != nil {
		t.Fatal(err)
	}
}

func TestWrapCSRValidates(t *testing.T) {
	m := GridLaplacian(5, 5, 1, Star5, 1)
	raw := m.Raw()
	if _, err := WrapCSR(raw); err != nil {
		t.Fatal(err)
	}
	bad := raw.Clone()
	bad.ColIdx[0] = 999
	if _, err := WrapCSR(bad); err == nil {
		t.Fatal("invalid CSR accepted")
	}
}

func TestFactorizeNilMatrix(t *testing.T) {
	if _, err := Factorize(nil, DefaultOptions()); err == nil {
		t.Fatal("nil matrix accepted")
	}
}

// TestFactorizeEmptyMatrix: a 0×0 matrix is rejected with an error
// rather than accepted into a Preconditioner whose Apply, and every
// Solver over it, would index an empty vector.
func TestFactorizeEmptyMatrix(t *testing.T) {
	m := NewBuilder(0, 0).Build()
	for _, threads := range []int{1, 2} {
		opt := DefaultOptions()
		opt.Threads = threads
		p, err := Factorize(m, opt)
		if err == nil {
			p.Close()
			t.Fatalf("threads=%d: Factorize accepted a 0×0 matrix", threads)
		}
	}
}

func TestApplierConcurrentSolvesShareOnePreconditioner(t *testing.T) {
	m := GridLaplacian(40, 40, 1, Star5, 0.2)
	opt := DefaultOptions()
	opt.Threads = 2
	p, err := Factorize(m, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer p.Close()
	n := m.N()
	// Reference solution through the convenience path.
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	s, err := NewSolver(m, p, WithMethod(MethodCG), WithTol(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	if st, err := s.Solve(context.Background(), b, want); err != nil {
		t.Fatalf("reference solve: %v %+v", err, st)
	}
	const workers = 4
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			x := make([]float64, n)
			for rep := 0; rep < 3; rep++ {
				for i := range x {
					x[i] = 0
				}
				if _, err := s.Solve(context.Background(), b, x); err != nil {
					done <- err
					return
				}
				for i := range x {
					if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
						done <- errDiverged
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestApplyBatchAPIEquivalence(t *testing.T) {
	m := TetraMesh(6, 6, 6, 0x55)
	p, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer p.Close()
	n := m.N()
	const k = 4
	R := make([][]float64, k)
	Zseq := make([][]float64, k)
	Zbat := make([][]float64, k)
	for j := 0; j < k; j++ {
		R[j] = make([]float64, n)
		for i := range R[j] {
			R[j][i] = float64((i*31+j*17)%13) - 6
		}
		Zseq[j] = make([]float64, n)
		Zbat[j] = make([]float64, n)
		p.Apply(R[j], Zseq[j])
	}
	ap := p.NewApplier()
	ap.ApplyBatch(R, Zbat)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			if math.Float64bits(Zbat[j][i]) != math.Float64bits(Zseq[j][i]) {
				t.Fatalf("applier batch RHS %d entry %d: %v, Apply %v", j, i, Zbat[j][i], Zseq[j][i])
			}
		}
	}
}

// TestPreconditionerApplyConcurrent: Preconditioner.Apply draws a
// pooled context per call, so concurrent callers on one
// preconditioner must each get the serial result bit for bit (run
// under -race to check the contexts are never shared).
func TestPreconditionerApplyConcurrent(t *testing.T) {
	m := TetraMesh(6, 6, 6, 0x31)
	p, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer p.Close()
	n := m.N()
	const callers = 8
	rhs := make([][]float64, callers)
	want := make([][]float64, callers)
	for g := range rhs {
		rhs[g] = make([]float64, n)
		for i := range rhs[g] {
			rhs[g][i] = float64((i*7+g*13)%11) - 5
		}
		want[g] = make([]float64, n)
		p.Apply(rhs[g], want[g])
	}
	done := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			z := make([]float64, n)
			for rep := 0; rep < 20; rep++ {
				p.Apply(rhs[g], z)
				for i := range z {
					if math.Float64bits(z[i]) != math.Float64bits(want[g][i]) {
						done <- fmt.Errorf("caller %d rep %d entry %d: %g, serial %g", g, rep, i, z[i], want[g][i])
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < callers; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestBiCGSTABEndToEnd(t *testing.T) {
	m := TetraMesh(7, 7, 7, 0x99)
	p, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	defer p.Close()
	n := m.N()
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i))
	}
	b := make([]float64, n)
	m.MatVec(xTrue, b)
	x := make([]float64, n)
	// The preconditioned and unpreconditioned sessions must converge
	// to the same solution.
	for _, tc := range []struct {
		name string
		p    *Preconditioner
		tol  float64
	}{
		{"preconditioned", p, 1e-6},
		{"unpreconditioned", nil, 1e-4},
	} {
		s, err := NewSolver(m, tc.p, WithMethod(MethodBiCGSTAB), WithTol(1e-10))
		if err != nil {
			t.Fatalf("NewSolver(%s): %v", tc.name, err)
		}
		for i := range x {
			x[i] = 0
		}
		if st, err := s.Solve(context.Background(), b, x); err != nil {
			t.Fatalf("BiCGSTAB (%s): %v %+v", tc.name, err, st)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > tc.tol*(1+math.Abs(xTrue[i])) {
				t.Fatalf("BiCGSTAB (%s) solution off at %d: %g vs %g",
					tc.name, i, x[i], xTrue[i])
			}
		}
	}
}

// sentinel errors for goroutine reporting in concurrency tests.
var (
	errNotConverged = errors.New("solve did not converge")
	errDiverged     = errors.New("concurrent solution diverged from reference")
)

// TestSharedRuntimeAPI drives the tentpole surface: one NewRuntime
// backs two Preconditioners and their concurrent Appliers, and no hot
// path spawns goroutines per call once the runtime is warm.
func TestSharedRuntimeAPI(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Close()

	opt := DefaultOptions()
	opt.Runtime = rt
	m1 := GridLaplacian(40, 40, 1, Star5, 0.1)
	p1, err := Factorize(m1, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	m2 := GridLaplacian(30, 30, 1, Star5, 0.1)
	p2, err := Factorize(m2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()

	solve := func(m *Matrix, p *Preconditioner) {
		s, err := NewSolver(m, p, WithMethod(MethodCG), WithTol(1e-8), WithThreads(4), WithRuntime(rt))
		if err != nil {
			t.Error(err)
			return
		}
		b := make([]float64, m.N())
		x := make([]float64, m.N())
		for i := range b {
			b[i] = 1
		}
		if _, err := s.Solve(context.Background(), b, x); err != nil {
			t.Error(err)
		}
	}
	done := make(chan struct{}, 4)
	for g := 0; g < 2; g++ {
		go func() { solve(m1, p1); done <- struct{}{} }()
		go func() { solve(m2, p2); done <- struct{}{} }()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}

// TestWarmApplySpawnsNoGoroutines is the public-API half of the
// acceptance criterion: repeated Apply and MatVec on a warm shared
// runtime must not grow the goroutine count.
func TestWarmApplySpawnsNoGoroutines(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Close()
	opt := DefaultOptions()
	opt.Runtime = rt
	m := GridLaplacian(50, 50, 1, Star5, 0.1)
	p, err := Factorize(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ap := p.NewApplier()
	b := make([]float64, m.N())
	z := make([]float64, m.N())
	y := make([]float64, m.N())
	for i := range b {
		b[i] = 1
	}
	work := func() {
		ap.Apply(b, z)
		m.MatVec(z, y)
	}
	work()
	work()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		work()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across warm applies", before, after)
	}
}

// TestRuntimeStatsAPI exercises the public metrics surface: shared
// runtime counters must be visible through Runtime.Stats and
// Preconditioner.RuntimeStats, and snapshot deltas must reflect the
// work in between.
func TestRuntimeStatsAPI(t *testing.T) {
	rt := NewRuntime(4)
	defer rt.Close()

	opt := DefaultOptions()
	opt.Runtime = rt
	m := GridLaplacian(40, 40, 1, Star5, 0.1)
	p, err := Factorize(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	after := rt.Stats()
	if after.Regions == 0 {
		t.Fatalf("factorization opened no regions: %+v", after)
	}
	if got := p.RuntimeStats(); got.Regions < after.Regions {
		t.Fatalf("engine stats went backwards: %+v < %+v", got, after)
	}

	// A 4-thread solve on the shared runtime must show up as a delta
	// over the snapshot, through the engine's stats view: every matvec
	// opens a region, whatever the triangular sweeps' route.
	before := rt.Stats()
	b := make([]float64, m.N())
	x := make([]float64, m.N())
	for i := range b {
		b[i] = 1
	}
	s, err := NewSolver(m, p, WithMethod(MethodCG), WithTol(1e-8), WithThreads(4), WithRuntime(rt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(context.Background(), b, x); err != nil {
		t.Fatal(err)
	}
	delta := p.RuntimeStats().Sub(before)
	if delta.Regions == 0 {
		t.Fatalf("a 4-thread solve produced no visible activity: %+v", delta)
	}

	// A private-runtime engine reports its own counters too.
	p2, err := Factorize(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.RuntimeStats() == (RuntimeStats{}) {
		t.Fatal("private-runtime engine reports empty stats after factorization")
	}
}
