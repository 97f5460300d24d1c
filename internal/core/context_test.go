package core

import (
	"math"
	"sync"
	"testing"

	"javelin/internal/gen"
	"javelin/internal/util"
)

// testEngine factors a matrix whose split exercises both stages.
func testEngine(t *testing.T, lower LowerMethod, threads int) *Engine {
	t.Helper()
	a := gen.TetraMesh(6, 6, 6, 0xbeef)
	opt := DefaultOptions()
	opt.Threads = threads
	opt.Lower = lower
	opt.Split.MinRowsPerLevel = 8
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestConcurrentContextsShareOneEngine hammers one shared engine from
// many goroutines, each with its own SolveContext, and checks every
// result against the default-context answer. Run under -race this is
// the concurrency-contract test for the shared-engine architecture.
func TestConcurrentContextsShareOneEngine(t *testing.T) {
	for _, lower := range []LowerMethod{LowerSR, LowerER} {
		e := testEngine(t, lower, 4)
		n := e.N()
		rng := util.NewRNG(11)
		const goroutines = 8
		const repeats = 20
		// Distinct RHS per goroutine; expected answers from one
		// context before the concurrent phase starts.
		rhs := make([][]float64, goroutines)
		want := make([][]float64, goroutines)
		for g := range rhs {
			rhs[g] = make([]float64, n)
			for i := range rhs[g] {
				rhs[g][i] = rng.NormFloat64()
			}
			want[g] = make([]float64, n)
			e.NewContext().Apply(rhs[g], want[g])
		}
		var wg sync.WaitGroup
		errs := make(chan string, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ctx := e.NewContext()
				z := make([]float64, n)
				for rep := 0; rep < repeats; rep++ {
					ctx.Apply(rhs[g], z)
					for i := range z {
						if math.Abs(z[i]-want[g][i]) > 1e-12*(1+math.Abs(want[g][i])) {
							errs <- "concurrent Apply diverged from serial answer"
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatalf("%v (lower=%v)", msg, lower)
		}
	}
}

// TestApplyBatchMatchesSequentialApplies asserts the batched path is
// numerically equivalent to k independent Apply calls for both lower
// methods at one and several threads.
func TestApplyBatchMatchesSequentialApplies(t *testing.T) {
	const k = 5
	for _, lower := range []LowerMethod{LowerSR, LowerER} {
		for _, threads := range []int{1, 4} {
			e := testEngine(t, lower, threads)
			n := e.N()
			rng := util.NewRNG(uint64(17 + threads))
			R := make([][]float64, k)
			Zseq := make([][]float64, k)
			Zbat := make([][]float64, k)
			for j := 0; j < k; j++ {
				R[j] = make([]float64, n)
				for i := range R[j] {
					R[j][i] = rng.NormFloat64()
				}
				Zseq[j] = make([]float64, n)
				Zbat[j] = make([]float64, n)
			}
			ctx := e.NewContext()
			for j := 0; j < k; j++ {
				ctx.Apply(R[j], Zseq[j])
			}
			ctx.ApplyBatch(R, Zbat)
			for j := 0; j < k; j++ {
				for i := 0; i < n; i++ {
					if math.Abs(Zbat[j][i]-Zseq[j][i]) > 1e-12*(1+math.Abs(Zseq[j][i])) {
						t.Fatalf("lower=%v threads=%d: batch RHS %d entry %d: got %g want %g",
							lower, threads, j, i, Zbat[j][i], Zseq[j][i])
					}
				}
			}
		}
	}
}

// TestSolveBatchMatchesSingleSolves checks the packed n×k block
// solves behind ApplyBatch against their single-RHS counterparts on
// the permuted indexing.
func TestSolveBatchMatchesSingleSolves(t *testing.T) {
	const k = 3
	for _, threads := range []int{1, 3} {
		e := testEngine(t, LowerAuto, threads)
		n := e.N()
		rng := util.NewRNG(23)
		B := make([][]float64, k)
		wantL := make([][]float64, k)
		wantU := make([][]float64, k)
		ctx := e.NewContext()
		for j := 0; j < k; j++ {
			B[j] = make([]float64, n)
			for i := range B[j] {
				B[j][i] = rng.NormFloat64()
			}
			wantL[j] = make([]float64, n)
			wantU[j] = make([]float64, n)
			ctx.SolveLower(B[j], wantL[j])
			ctx.SolveUpper(B[j], wantU[j])
		}
		pack := func() []float64 {
			xb := make([]float64, n*k)
			for i := 0; i < n; i++ {
				for j := 0; j < k; j++ {
					xb[i*k+j] = B[j][i]
				}
			}
			return xb
		}
		gotL, gotU := pack(), pack()
		ctx.PinEpoch()
		ctx.solveLowerBlock(gotL, k)
		ctx.solveUpperBlock(gotU, k)
		ctx.UnpinEpoch()
		for j := 0; j < k; j++ {
			for i := 0; i < n; i++ {
				// PanelUpdate subtracts a row's entries one by one in
				// TriLower's order, so the lower block sweep gives
				// SolveLower's bits. The upper one scales each row by
				// 1/d where TriUpper divides by d, which can round
				// differently, so it is held to a relative bound.
				if g, w := gotL[i*k+j], wantL[j][i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("threads=%d solveLowerBlock RHS %d entry %d: got %g want %g", threads, j, i, g, w)
				}
				if g, w := gotU[i*k+j], wantU[j][i]; math.Abs(g-w) > 1e-12*(1+math.Abs(w)) {
					t.Fatalf("threads=%d solveUpperBlock RHS %d entry %d: got %g want %g", threads, j, i, g, w)
				}
			}
		}
	}
}

// TestConcurrentBatchAndSingleContexts mixes batched and single
// appliers over one engine under load (exercised by -race).
func TestConcurrentBatchAndSingleContexts(t *testing.T) {
	e := testEngine(t, LowerAuto, 4)
	n := e.N()
	rng := util.NewRNG(31)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	e.NewContext().Apply(b, want)

	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(batch bool) {
			defer wg.Done()
			ctx := e.NewContext()
			for rep := 0; rep < 10; rep++ {
				var z []float64
				if batch {
					const k = 4
					R := make([][]float64, k)
					Z := make([][]float64, k)
					for j := range R {
						R[j] = b
						Z[j] = make([]float64, n)
					}
					ctx.ApplyBatch(R, Z)
					z = Z[k-1]
				} else {
					z = make([]float64, n)
					ctx.Apply(b, z)
				}
				for i := range z {
					if math.Abs(z[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
						fail <- "mixed concurrent apply diverged"
						return
					}
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}

// TestAcquireReleaseContextPool exercises the engine's pooled-context
// accessor: released contexts are recycled, foreign contexts are
// dropped, and concurrent acquire/solve/release cycles against one
// engine produce correct results (the accessor behind the public
// Solver's per-call sessions).
func TestAcquireReleaseContextPool(t *testing.T) {
	e := testEngine(t, LowerAuto, 2)
	n := e.N()

	c1 := e.AcquireContext()
	if c1 == nil || c1.Engine() != e {
		t.Fatal("acquired context not bound to engine")
	}
	// sync.Pool may drop a Put (under the race detector it does so at
	// random), so allow a few round trips: with no GC and a single
	// goroutine, a just-released context must come back on one of them.
	recycled := false
	c := c1
	for try := 0; try < 20 && !recycled; try++ {
		e.ReleaseContext(c)
		next := e.AcquireContext()
		recycled = next == c
		c = next
	}
	e.ReleaseContext(c)
	if !recycled {
		t.Fatal("released context was not recycled")
	}

	// A foreign engine's context must not enter the pool.
	e2 := testEngine(t, LowerAuto, 1)
	foreign := e2.NewContext()
	e.ReleaseContext(foreign)
	if got := e.AcquireContext(); got.Engine() != e {
		t.Fatal("pool handed out a foreign context")
	}
	e.ReleaseContext(nil) // must not panic

	// Concurrent acquire/solve/release: every result must match the
	// reference application.
	b := make([]float64, n)
	rng := util.NewRNG(42)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	e.NewContext().Apply(b, want)
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				c := e.AcquireContext()
				z := make([]float64, n)
				c.Apply(b, z)
				e.ReleaseContext(c)
				for i := range z {
					if math.Abs(z[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
						fail <- "pooled context apply diverged"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}
