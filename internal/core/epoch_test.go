package core

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"javelin/internal/exec"
	"javelin/internal/gen"
	"javelin/internal/ilu"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

// scaleCSR returns a same-pattern copy of a with every value scaled —
// the time-stepping shape of a Refactorize input.
func scaleCSR(a *sparse.CSR, s float64) *sparse.CSR {
	c := a.Clone()
	for i := range c.Val {
		c.Val[i] *= s
	}
	return c
}

// sameVec reports bitwise equality. The solve sweeps write each x[r]
// exactly once with a fixed per-row accumulation order, so two
// applications on the same engine and the same value epoch must agree
// exactly — any deviation under concurrency means a torn epoch.
func sameVec(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLiveRefactorizeApplyHammerEpochConsistency is the core
// live-refactorization contract test: 16 goroutines apply the shared
// engine continuously (half through per-call AcquireContext pins,
// half through long-lived NewContext contexts) while the main
// goroutine refactorizes back and forth between two same-pattern
// matrices. Every result must be bit-identical to the serial
// application on one of the two epochs' values — a mixed result would
// mean a solve observed a half-published or recycled buffer.
func TestLiveRefactorizeApplyHammerEpochConsistency(t *testing.T) {
	for _, lower := range []LowerMethod{LowerSR, LowerER} {
		e := testEngine(t, lower, 4)
		n := e.N()
		a := gen.TetraMesh(6, 6, 6, 0xbeef) // the matrix testEngine factored
		a2 := scaleCSR(a, 2)

		rng := util.NewRNG(97)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		refA := make([]float64, n)
		e.NewContext().Apply(b, refA)
		if err := e.Refactorize(a2); err != nil {
			t.Fatalf("Refactorize(a2): %v", err)
		}
		refB := make([]float64, n)
		e.NewContext().Apply(b, refB)
		if sameVec(refA, refB) {
			t.Fatal("scaled matrix produced an identical application; test is vacuous")
		}

		stop := make(chan struct{})
		fail := make(chan string, 17)
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				pooled := g%2 == 0
				var own *SolveContext
				if !pooled {
					own = e.NewContext()
				}
				z := make([]float64, n)
				for {
					select {
					case <-stop:
						return
					default:
					}
					c := own
					if pooled {
						c = e.AcquireContext()
					}
					c.Apply(b, z)
					if pooled {
						e.ReleaseContext(c)
					}
					if !sameVec(z, refA) && !sameVec(z, refB) {
						fail <- "apply result matches neither epoch's serial answer (torn snapshot)"
						return
					}
				}
			}(g)
		}
		for rep := 0; rep < 40; rep++ {
			src := a
			if rep%2 == 0 {
				src = a2
			}
			if err := e.Refactorize(src); err != nil {
				close(stop)
				wg.Wait()
				t.Fatalf("Refactorize during hammer: %v", err)
			}
		}
		close(stop)
		wg.Wait()
		close(fail)
		for msg := range fail {
			t.Fatalf("%s (lower=%v)", msg, lower)
		}
	}
}

// TestRefactorizeDoesNotBlockOnPinnedEpoch pins an epoch through an
// acquired context and verifies Refactorize publishes new values
// without waiting for the pin, that the pinned context keeps solving
// on its snapshot, and that the pinned buffer is recycled as the next
// build target once released (the two-buffer steady state).
func TestRefactorizeDoesNotBlockOnPinnedEpoch(t *testing.T) {
	e := testEngine(t, LowerAuto, 2)
	n := e.N()
	a := gen.TetraMesh(6, 6, 6, 0xbeef)
	a2 := scaleCSR(a, 3)

	rng := util.NewRNG(5)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	refA := make([]float64, n)
	e.NewContext().Apply(b, refA)

	c := e.AcquireContext() // pins the epoch holding a's factor
	pinnedBuf := &c.vals[0]

	done := make(chan error, 1)
	go func() { done <- e.Refactorize(a2) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Refactorize: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Refactorize blocked on an in-flight pinned context")
	}

	z := make([]float64, n)
	c.Apply(b, z)
	if !sameVec(z, refA) {
		t.Fatal("pinned context did not keep its epoch snapshot across Refactorize")
	}

	refB := make([]float64, n)
	e.NewContext().Apply(b, refB) // a NewContext context pins per call → new epoch
	if sameVec(refB, refA) {
		t.Fatal("post-Refactorize application still matches the old values")
	}
	c2 := e.AcquireContext()
	c2.Apply(b, z)
	if !sameVec(z, refB) {
		t.Fatal("new acquire did not observe the published epoch")
	}
	e.ReleaseContext(c2)

	// While c stays pinned, its buffer must not be the build target.
	if err := e.Refactorize(a); err != nil {
		t.Fatalf("Refactorize with a pin held: %v", err)
	}
	if &e.factor.LU.Val[0] == pinnedBuf {
		t.Fatal("pinned buffer was recycled while still referenced")
	}

	// After release it drains and the next Refactorize reuses it.
	e.ReleaseContext(c)
	if err := e.Refactorize(a2); err != nil {
		t.Fatalf("Refactorize after release: %v", err)
	}
	if &e.factor.LU.Val[0] != pinnedBuf {
		t.Fatal("drained epoch buffer was not recycled (expected two-buffer steady state)")
	}
}

// TestPinEpochBracketsSolvePair: PinEpoch must hold one factor
// generation across a standalone SolveLower/SolveUpper pair even when
// Refactorize publishes between the two calls, and UnpinEpoch must
// return the context to pin-per-call.
func TestPinEpochBracketsSolvePair(t *testing.T) {
	e := testEngine(t, LowerAuto, 2)
	n := e.N()
	a := gen.TetraMesh(6, 6, 6, 0xbeef)

	rng := util.NewRNG(13)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	cref := e.NewContext()
	cref.SolveLower(b, want)
	cref.SolveUpper(want, want)

	c := e.NewContext()
	x := make([]float64, n)
	c.PinEpoch()
	c.SolveLower(b, x)
	if err := e.Refactorize(scaleCSR(a, 2)); err != nil {
		t.Fatalf("Refactorize: %v", err)
	}
	c.SolveUpper(x, x) // must still use the pinned generation
	if !sameVec(x, want) {
		t.Fatal("pinned L/U pair mixed factor generations across a publish")
	}
	c.UnpinEpoch()

	// Unpinned again: the next call sees the new epoch.
	y := make([]float64, n)
	c.SolveLower(b, y)
	yref := make([]float64, n)
	e.NewContext().SolveLower(b, yref)
	if !sameVec(y, yref) {
		t.Fatal("post-unpin solve does not match the current epoch")
	}

	// A Pin/Unpin bracket on an ACQUIRED context must nest inside the
	// acquire pin without cancelling it.
	ac := e.AcquireContext()
	acEp := ac.ep
	ac.PinEpoch()
	ac.UnpinEpoch()
	if ac.ep != acEp || ac.pins != 1 {
		t.Fatal("Pin/Unpin bracket disturbed the acquire-window pin")
	}
	e.ReleaseContext(ac)
}

// TestForeignReleaseEpochUnpinned: releasing a context through the
// WRONG engine must still drain its epoch pin against the owning
// engine — otherwise the pinned buffer is stranded in the owner's
// retired list forever.
func TestForeignReleaseEpochUnpinned(t *testing.T) {
	e1 := testEngine(t, LowerAuto, 1)
	e2 := testEngine(t, LowerAuto, 1)
	c := e1.AcquireContext()
	buf := &c.vals[0]
	e2.ReleaseContext(c) // foreign: not pooled, but the pin must drain
	if c.ep != nil {
		t.Fatal("foreign release left the epoch pinned")
	}
	a := gen.TetraMesh(6, 6, 6, 0xbeef)
	if err := e1.Refactorize(scaleCSR(a, 2)); err != nil {
		t.Fatalf("Refactorize: %v", err)
	}
	if err := e1.Refactorize(a); err != nil {
		t.Fatalf("Refactorize: %v", err)
	}
	if &e1.factor.LU.Val[0] != buf {
		t.Fatal("buffer pinned at foreign release was never recycled")
	}
}

// triDiag builds the n×n tridiagonal CSR with the given diagonal and
// off-diagonal values.
func triDiag(n int, diag, off float64) *sparse.CSR {
	var ptr []int
	var col []int
	var val []float64
	ptr = append(ptr, 0)
	for i := 0; i < n; i++ {
		if i > 0 {
			col = append(col, i-1)
			val = append(val, off)
		}
		col = append(col, i)
		val = append(val, diag)
		if i < n-1 {
			col = append(col, i+1)
			val = append(val, off)
		}
		ptr = append(ptr, len(col))
	}
	return &sparse.CSR{N: n, M: n, RowPtr: ptr, ColIdx: col, Val: val}
}

// withExtraEntry returns a copy of a with one additional entry (i, j, v).
func withExtraEntry(t *testing.T, a *sparse.CSR, i, j int, v float64) *sparse.CSR {
	t.Helper()
	coo := sparse.NewCOO(a.N, a.M, a.Nnz()+1)
	for r := 0; r < a.N; r++ {
		cols, vals := a.Row(r)
		for k, c := range cols {
			coo.Add(r, c, vals[k])
		}
	}
	coo.Add(i, j, v)
	return coo.ToCSR()
}

// TestRefactorizePatternMismatch is the regression test for the
// silent-drop bug: an out-of-pattern entry in the Refactorize input
// must surface as ErrPatternMismatch (leaving the previous factor
// serving), and Options.AllowPatternMismatch must restore the
// documented dropping behavior for τ-style workflows.
func TestRefactorizePatternMismatch(t *testing.T) {
	const n = 32
	a := triDiag(n, 4, -1)

	opt := DefaultOptions()
	opt.Threads = 2
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	t.Cleanup(e.Close)

	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	refA := make([]float64, n)
	e.NewContext().Apply(b, refA)

	aBad := withExtraEntry(t, a, 0, n-1, 0.5)
	err = e.Refactorize(aBad)
	if err == nil {
		t.Fatal("Refactorize accepted an out-of-pattern entry silently")
	}
	if !errors.Is(err, ErrPatternMismatch) {
		t.Fatalf("error does not wrap ErrPatternMismatch: %v", err)
	}
	if !errors.Is(err, ilu.ErrPatternMismatch) {
		t.Fatalf("core sentinel is not ilu.ErrPatternMismatch: %v", err)
	}

	// The failed refactorization must leave the previous epoch live.
	z := make([]float64, n)
	e.NewContext().Apply(b, z)
	if !sameVec(z, refA) {
		t.Fatal("failed Refactorize disturbed the published factor")
	}

	// Opt-out: the entry is dropped, matching a refactorization on
	// the same matrix without the off-pattern entry.
	opt.AllowPatternMismatch = true
	e2, err := Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize (allow): %v", err)
	}
	t.Cleanup(e2.Close)
	if err := e2.Refactorize(aBad); err != nil {
		t.Fatalf("Refactorize with AllowPatternMismatch: %v", err)
	}
	dropped := make([]float64, n)
	e2.NewContext().Apply(b, dropped)
	if err := e2.Refactorize(a); err != nil {
		t.Fatalf("Refactorize (clean): %v", err)
	}
	clean := make([]float64, n)
	e2.NewContext().Apply(b, clean)
	if !sameVec(dropped, clean) {
		t.Fatal("AllowPatternMismatch did not behave as drop-outside-pattern")
	}
}

// TestRefactorizeFailureKeepsPreviousEpoch drives Refactorize into a
// zero pivot and verifies solve traffic continues on the last good
// values — the failed build buffer must never be published.
func TestRefactorizeFailureKeepsPreviousEpoch(t *testing.T) {
	const n = 32
	a := triDiag(n, 4, -1)
	opt := DefaultOptions()
	opt.Threads = 2
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	t.Cleanup(e.Close)

	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	refA := make([]float64, n)
	e.NewContext().Apply(b, refA)

	aBad := a.Clone()
	aBad.Val[0] = 0 // (0,0): zero pivot, in-pattern
	if err := e.Refactorize(aBad); !errors.Is(err, ilu.ErrZeroPivot) {
		t.Fatalf("want ErrZeroPivot, got %v", err)
	}

	z := make([]float64, n)
	c := e.AcquireContext()
	c.Apply(b, z)
	e.ReleaseContext(c)
	if !sameVec(z, refA) {
		t.Fatal("failed Refactorize leaked a partial factor into the published epoch")
	}

	// And the engine recovers: a good refactorize publishes again.
	if err := e.Refactorize(scaleCSR(a, 2)); err != nil {
		t.Fatalf("Refactorize after failure: %v", err)
	}
	e.NewContext().Apply(b, z)
	if sameVec(z, refA) {
		t.Fatal("recovery Refactorize did not publish new values")
	}
}

// TestRefactorizeNaNPivotFails: a NaN on the diagonal must fail
// Refactorize (the scatter's finiteness check catches it before the
// NaN-safe pivot guard would) instead of publishing a poisoned factor.
// The previous epoch stays current and the failure is counted.
func TestRefactorizeNaNPivotFails(t *testing.T) {
	for _, lower := range []LowerMethod{LowerSR, LowerER, LowerNone} {
		e := testEngine(t, lower, 2)
		n := e.N()
		a := gen.TetraMesh(6, 6, 6, 0xbeef)
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		refA := make([]float64, n)
		e.NewContext().Apply(b, refA)
		for _, row := range []int{0, n / 2, n - 1} {
			aBad := a.Clone()
			cols, vals := aBad.Row(row)
			for k, c := range cols {
				if c == row {
					vals[k] = math.NaN()
				}
			}
			epoch, fails := e.FactorEpoch(), e.RefactorizeFailures()
			if err := e.Refactorize(aBad); err == nil {
				t.Fatalf("lower=%v: NaN pivot in row %d published", lower, row)
			}
			if e.FactorEpoch() != epoch {
				t.Fatalf("lower=%v: failed Refactorize moved FactorEpoch %d -> %d", lower, epoch, e.FactorEpoch())
			}
			if got := e.RefactorizeFailures(); got != fails+1 {
				t.Fatalf("lower=%v: RefactorizeFailures %d -> %d, want +1", lower, fails, got)
			}
			z := make([]float64, n)
			e.NewContext().Apply(b, z)
			if !sameVec(z, refA) {
				t.Fatalf("lower=%v: failed Refactorize disturbed the published factor", lower)
			}
		}
	}
}

// TestRefactorizeFailureInFactorRegion: a zero pivot met inside the
// dispatched factor region fails the Refactorize with ErrZeroPivot,
// leaves the published epoch serving untouched and counts one failure,
// and the next good Refactorize publishes the factor Factorize gave.
// Row Perm()[0] of A becomes row 0, a row of the first upper level
// with no pivots to eliminate, so zeroing its diagonal makes its own
// pivot exactly 0; the pieces after it skip their rows once the pass
// has failed.
func TestRefactorizeFailureInFactorRegion(t *testing.T) {
	rt := exec.New(2)
	defer rt.Close()
	for name, a := range testMatrices(t) {
		for _, method := range []LowerMethod{LowerNone, LowerER, LowerSR} {
			opt := DefaultOptions()
			opt.Threads = 2
			opt.Runtime = rt
			opt.Lower = method
			opt.Split.MinRowsPerLevel = 8
			e, err := Factorize(a, opt)
			if err != nil {
				t.Fatalf("%s %v: %v", name, method, err)
			}
			want := digestValues(e.Factor().LU.Val)
			b := make([]float64, a.N)
			for i := range b {
				b[i] = float64(i%7) - 3
			}
			refA := make([]float64, a.N)
			e.NewContext().Apply(b, refA)

			aBad := a.Clone()
			r := e.Perm()[0]
			cols, vals := aBad.Row(r)
			for k, c := range cols {
				if c == r {
					vals[k] = 0
				}
			}
			epoch, fails := e.FactorEpoch(), e.RefactorizeFailures()
			if err := e.Refactorize(aBad); !errors.Is(err, ilu.ErrZeroPivot) {
				t.Fatalf("%s %v: want ErrZeroPivot, got %v", name, method, err)
			}
			if e.FactorEpoch() != epoch {
				t.Fatalf("%s %v: failed Refactorize moved FactorEpoch %d -> %d", name, method, epoch, e.FactorEpoch())
			}
			if got := e.RefactorizeFailures(); got != fails+1 {
				t.Fatalf("%s %v: RefactorizeFailures %d -> %d, want +1", name, method, fails, got)
			}
			z := make([]float64, a.N)
			e.NewContext().Apply(b, z)
			if !sameVec(z, refA) {
				t.Fatalf("%s %v: failed Refactorize disturbed the published factor", name, method)
			}

			if err := e.Refactorize(a); err != nil {
				t.Fatalf("%s %v: Refactorize after failure: %v", name, method, err)
			}
			if e.FactorEpoch() != epoch+1 {
				t.Fatalf("%s %v: good Refactorize after failure left FactorEpoch at %d, want %d", name, method, e.FactorEpoch(), epoch+1)
			}
			if got := digestValues(e.Factor().LU.Val); got != want {
				t.Fatalf("%s %v: digest %#016x after recovery, want %#016x from Factorize", name, method, got, want)
			}
			e.Close()
		}
	}
}

// TestReleaseContextDropsOversizedBlk checks the pool-retention cap:
// batch scratch up to retainedBlkRHS right-hand sides survives
// release, a larger block is dropped so one big ApplyBatch cannot pin
// n×k scratch in the pool forever.
func TestReleaseContextDropsOversizedBlk(t *testing.T) {
	e := testEngine(t, LowerAuto, 2)
	n := e.N()
	mkBatch := func(k int) ([][]float64, [][]float64) {
		R := make([][]float64, k)
		Z := make([][]float64, k)
		for j := range R {
			R[j] = make([]float64, n)
			R[j][j%n] = 1
			Z[j] = make([]float64, n)
		}
		return R, Z
	}

	c := e.AcquireContext()
	R, Z := mkBatch(retainedBlkRHS)
	c.ApplyBatch(R, Z)
	e.ReleaseContext(c)
	c2 := e.AcquireContext()
	if c2 != c {
		t.Skip("pool did not recycle the context (GC interference)")
	}
	if cap(c2.blk) != retainedBlkRHS*n {
		t.Fatalf("small batch scratch not retained: cap %d, want %d", cap(c2.blk), retainedBlkRHS*n)
	}

	R, Z = mkBatch(2 * retainedBlkRHS)
	c2.ApplyBatch(R, Z)
	e.ReleaseContext(c2)
	c3 := e.AcquireContext()
	if c3 != c2 {
		t.Skip("pool did not recycle the context (GC interference)")
	}
	if cap(c3.blk) != 0 {
		t.Fatalf("oversized batch scratch retained in pool: cap %d", cap(c3.blk))
	}
	e.ReleaseContext(c3)
}
