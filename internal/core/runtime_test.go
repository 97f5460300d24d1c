package core

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"javelin/internal/exec"
	"javelin/internal/gen"
	"javelin/internal/spmv"
	"javelin/internal/util"
)

// TestCloseConcurrentAndDouble exercises the Close contract under
// -race: any number of goroutines may Close the same engine, twice
// over, without a data race (the old pool check-and-nil raced).
func TestCloseConcurrentAndDouble(t *testing.T) {
	a := gen.GridLaplacian(30, 30, 1, gen.Star5, 0.2)
	opt := DefaultOptions()
	opt.Threads = 4
	opt.Lower = LowerSR
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
			e.Close()
		}()
	}
	wg.Wait()
	e.Close()
	// Solves after Close degrade but stay correct.
	b := make([]float64, a.N)
	z := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	e.NewContext().Apply(b, z)
	for i := range z {
		if math.IsNaN(z[i]) {
			t.Fatalf("NaN at %d after Close", i)
		}
	}
}

// TestSharedRuntimeAcrossEngines is the tentpole's sharing contract:
// several Preconditioners schedule onto one Runtime (instead of one
// runtime per engine), concurrent solves stay correct, and engine
// Close does not tear the shared runtime down.
func TestSharedRuntimeAcrossEngines(t *testing.T) {
	rt := exec.New(4)
	defer rt.Close()

	build := func(nx int, lower LowerMethod) (*Engine, int) {
		a := gen.GridLaplacian(nx, nx, 1, gen.Star5, 0.2)
		opt := DefaultOptions()
		opt.Runtime = rt
		opt.Lower = lower
		e, err := Factorize(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		return e, a.N
	}
	e1, n1 := build(40, LowerSR)
	defer e1.Close()
	e2, n2 := build(35, LowerER)
	defer e2.Close()

	if e1.Runtime() != rt || e2.Runtime() != rt {
		t.Fatal("engines not on the shared runtime")
	}
	if e1.Threads() > rt.Parallelism() {
		t.Fatalf("Threads %d exceeds runtime parallelism %d", e1.Threads(), rt.Parallelism())
	}

	// Reference solutions from single-threaded engines.
	ref := func(e *Engine, n int) []float64 {
		b := make([]float64, n)
		rng := util.NewRNG(9)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		z := make([]float64, n)
		e.NewContext().Apply(b, z)
		return append(b, z...)
	}
	want1, want2 := ref(e1, n1), ref(e2, n2)

	var wg sync.WaitGroup
	errc := make(chan string, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c1, c2 := e1.NewContext(), e2.NewContext()
			z1 := make([]float64, n1)
			z2 := make([]float64, n2)
			for rep := 0; rep < 5; rep++ {
				c1.Apply(want1[:n1], z1)
				c2.Apply(want2[:n2], z2)
				for i := range z1 {
					if math.Abs(z1[i]-want1[n1+i]) > 1e-12 {
						errc <- "engine 1 mismatch"
						return
					}
				}
				for i := range z2 {
					if math.Abs(z2[i]-want2[n2+i]) > 1e-12 {
						errc <- "engine 2 mismatch"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Fatal(e)
	}

	// Engine Close must leave the shared runtime usable.
	e1.Close()
	ran := false
	rt.For(1, 1, func(int, int) { ran = true })
	if !ran {
		t.Fatal("shared runtime dead after engine Close")
	}
}

// TestNoGoroutineGrowthAcrossSolves is the acceptance criterion: on a
// warm runtime, no hot path — solves, lower-stage rows, corner
// groups, scatter/refactorize, SpMV — spawns goroutines per call.
func TestNoGoroutineGrowthAcrossSolves(t *testing.T) {
	a := gen.GridLaplacian(60, 60, 1, gen.Star5, 0.2)
	opt := DefaultOptions()
	opt.Threads = 4
	opt.Lower = LowerSR
	opt.Split.MinRowsPerLevel = 32 // force a nontrivial lower stage
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	b := make([]float64, a.N)
	z := make([]float64, a.N)
	y := make([]float64, a.N)
	rng := util.NewRNG(11)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ctx := e.NewContext()
	work := func() {
		ctx.Apply(b, z)
		spmv.ParallelOn(e.Runtime(), a, z, y, e.Threads())
		if err := e.Refactorize(a); err != nil {
			t.Fatal(err)
		}
	}
	work() // warm: runtime workers exist, pools primed
	work()
	before := runtime.NumGoroutine()
	for rep := 0; rep < 50; rep++ {
		work()
	}
	after := runtime.NumGoroutine()
	if after > before {
		t.Fatalf("goroutines grew %d -> %d across warm solves", before, after)
	}
}

// TestRefactorizeWithBusyRuntime: a Refactorize must finish when no
// worker of its runtime is free. A side region holds the only worker
// of a shared two-lane runtime in a body that blocks, and at Threads=2
// every factor stage is dispatched, so the caller has to factor every
// stage alone, under every lower method.
func TestRefactorizeWithBusyRuntime(t *testing.T) {
	rt := exec.New(2)
	defer rt.Close()
	a := testMatrices(t)["power"]
	for _, method := range []LowerMethod{LowerNone, LowerER, LowerSR} {
		opt := DefaultOptions()
		opt.Threads = 2
		opt.Runtime = rt
		opt.Lower = method
		opt.Split.MinRowsPerLevel = 8
		e, err := Factorize(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := digestValues(e.Factor().LU.Val)

		// Both pieces of the side region block, so once both have
		// entered, one of them holds the runtime's only worker.
		release := make(chan struct{})
		var entered sync.WaitGroup
		entered.Add(2)
		sideDone := make(chan struct{})
		go func() {
			defer close(sideDone)
			rt.For(2, 2, func(int, int) {
				entered.Done()
				<-release
			})
		}()
		entered.Wait()

		done := make(chan error, 1)
		go func() { done <- e.Refactorize(a) }()
		var timedOut bool
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			timedOut = true
		}
		close(release)
		<-sideDone
		if timedOut {
			<-done // the released worker lets it finish
			t.Fatalf("%v: Refactorize did not return within 10 s while the runtime's only worker was busy", method)
		}
		if err != nil {
			t.Fatalf("%v: Refactorize: %v", method, err)
		}
		if got := digestValues(e.Factor().LU.Val); got != want {
			t.Errorf("%v: digest %#016x after Refactorize, want %#016x from Factorize", method, got, want)
		}
		e.Close()
	}
}

// TestRefactorizeOpensOneFactorRegion: a 2-thread Refactorize opens
// two runtime regions, the scatter's and one for all its numeric
// stages, whatever its level count, under LS, ER and SR on every test
// matrix. A stage that opened a region per level or per corner group
// would open dozens here.
func TestRefactorizeOpensOneFactorRegion(t *testing.T) {
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
			s0 := rt.Stats()
			if err := e.Refactorize(a); err != nil {
				t.Fatalf("%s %v: Refactorize: %v", name, method, err)
			}
			if got := rt.Stats().Sub(s0).Regions; got != 2 {
				t.Errorf("%s %v: a 2-thread Refactorize over %d upper and %d lower levels opened %d regions, want 2",
					name, method, e.split.CutLevel, e.split.NumLowerLevels(), got)
			}
			e.Close()
		}
	}
}
