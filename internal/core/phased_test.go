package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"javelin/internal/exec"
	"javelin/internal/trisolve"
	"javelin/internal/util"
)

// forceSolveRoute puts e's solves on the phased route or the inline
// one, whatever its probe chose.
func forceSolveRoute(e *Engine, phased bool) {
	e.route = nil
	if phased {
		e.route = &solveRoute{plan: e.newSweepPlan()}
	}
}

// solveBits returns SolveLower, SolveUpper and Apply of b on a fresh
// context of e, concatenated.
func solveBits(e *Engine, b []float64) []float64 {
	n := len(b)
	out := make([]float64, 3*n)
	c := e.NewContext()
	c.SolveLower(b, out[:n])
	c.SolveUpper(b, out[n:2*n])
	c.Apply(b, out[2*n:])
	return out
}

// firstBitDiff returns the first index at which a and b differ in
// their bits, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// solveMismatch applies e to b on the inline route and, at Threads >
// 1, on the phased route. SolveLower and SolveUpper must give the bits
// of serial substitution on e's factor (trisolve.SolveLowerSerial and
// SolveUpperSerial) on each route, and Apply the same bits on both. It
// describes the first difference, or returns "" when there is none.
func solveMismatch(e *Engine, b []float64) string {
	n := len(b)
	want := make([]float64, 2*n)
	trisolve.SolveLowerSerial(e.Factor(), b, want[:n])
	trisolve.SolveUpperSerial(e.Factor(), b, want[n:])
	forceSolveRoute(e, false)
	routes := [][]float64{solveBits(e, b)}
	if e.Threads() > 1 {
		forceSolveRoute(e, true)
		routes = append(routes, solveBits(e, b))
		if i := firstBitDiff(routes[1][2*n:], routes[0][2*n:]); i >= 0 {
			return fmt.Sprintf("phased Apply differs from inline at row %d: %g, want %g",
				i, routes[1][2*n+i], routes[0][2*n+i])
		}
	}
	for r, got := range routes {
		if i := firstBitDiff(got[:2*n], want); i >= 0 {
			return fmt.Sprintf("%s %s differs from serial substitution at row %d: %g, want %g",
				[]string{"inline", "phased"}[r], []string{"SolveLower", "SolveUpper"}[i/n], i%n, got[i], want[i])
		}
	}
	return ""
}

// TestPhasedSolvesMatchSerialSubstitution: on every test matrix under
// LS, ER and SR at Threads 1–4, SolveLower and SolveUpper give the
// bits of plain serial substitution on the engine's factor, inline
// and on the phased route, and Apply gives the same bits on both
// routes. TriLower and TriUpper are row-local and every upper-stage
// row depends only on earlier levels (forward) or on later levels and
// lower rows (backward), so neither the thread count nor cutting the
// levels into pieces can change an operation.
func TestPhasedSolvesMatchSerialSubstitution(t *testing.T) {
	for name, a := range testMatrices(t) {
		b := make([]float64, a.N)
		rng := util.NewRNG(5)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for _, method := range []LowerMethod{LowerNone, LowerER, LowerSR} {
			for threads := 1; threads <= 4; threads++ {
				opt := DefaultOptions()
				opt.Threads = threads
				opt.Lower = method
				opt.Split.MinRowsPerLevel = 8
				e, err := Factorize(a, opt)
				if err != nil {
					t.Fatalf("%s %v threads=%d: %v", name, method, threads, err)
				}
				msg := solveMismatch(e, b)
				e.Close()
				if msg != "" {
					t.Fatalf("%s %v threads=%d: %s", name, method, threads, msg)
				}
			}
		}
	}
}

// TestPhasedApplyWithBusyRuntime is the solve twin of
// TestRefactorizeWithBusyRuntime: on a shared two-lane runtime whose
// only worker is held in a blocked region, an Apply on the phased
// route finishes, the caller running every piece alone, and gives the
// inline route's bits.
func TestPhasedApplyWithBusyRuntime(t *testing.T) {
	rt := exec.New(2)
	defer rt.Close()
	a := testMatrices(t)["grid3d"]
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
		r := make([]float64, a.N)
		for i := range r {
			r[i] = 1 + float64(i%7)
		}
		forceSolveRoute(e, false)
		want := make([]float64, a.N)
		e.NewContext().Apply(r, want)
		forceSolveRoute(e, true)

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

		z := make([]float64, a.N)
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.NewContext().Apply(r, z)
		}()
		var timedOut bool
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			timedOut = true
		}
		close(release)
		<-sideDone
		if timedOut {
			<-done // the released worker lets it finish
			t.Fatalf("%v: phased Apply did not return within 10 s while the runtime's only worker was busy", method)
		}
		if i := firstBitDiff(z, want); i >= 0 {
			t.Errorf("%v: phased Apply differs from inline at %d: %g, want %g", method, i, z[i], want[i])
		}
		e.Close()
	}
}

// TestPhasedConcurrentContexts: goroutines applying one engine on the
// phased route, each through its own context, open their phased
// regions on one shared runtime at the same time and each gets the
// inline route's bits.
func TestPhasedConcurrentContexts(t *testing.T) {
	rt := exec.New(3)
	defer rt.Close()
	a := testMatrices(t)["tetra"]
	opt := DefaultOptions()
	opt.Threads = 3
	opt.Runtime = rt
	opt.Split.MinRowsPerLevel = 8
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const goroutines = 4
	rhs := make([][]float64, goroutines)
	want := make([][]float64, goroutines)
	forceSolveRoute(e, false)
	for g := range rhs {
		rhs[g] = make([]float64, a.N)
		rng := util.NewRNG(uint64(100 + g))
		for i := range rhs[g] {
			rhs[g][i] = rng.NormFloat64()
		}
		want[g] = make([]float64, a.N)
		e.NewContext().Apply(rhs[g], want[g])
	}
	forceSolveRoute(e, true)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := e.NewContext()
			z := make([]float64, a.N)
			for rep := 0; rep < 20; rep++ {
				c.Apply(rhs[g], z)
				if i := firstBitDiff(z, want[g]); i >= 0 {
					t.Errorf("goroutine %d, apply %d: phased Apply differs from inline at %d", g, rep, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPhasedPlanCoversUpperStage: the forward plan cuts every upper
// level into min(Threads, rows) contiguous ranges in ascending order,
// each gate counting the pieces of earlier levels, and the backward
// plan runs the same pieces with the levels descending.
func TestPhasedPlanCoversUpperStage(t *testing.T) {
	for name, a := range testMatrices(t) {
		for _, threads := range []int{2, 3, 4} {
			opt := DefaultOptions()
			opt.Threads = threads
			opt.Split.MinRowsPerLevel = 8
			e, err := Factorize(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			p := e.newSweepPlan()
			ptr := e.split.UpperLvlPtr
			i := 0
			for l := 0; l < e.split.CutLevel; l++ {
				first := i
				for k := min(threads, ptr[l+1]-ptr[l]); k > 0; k-- {
					if p.cut[i] < ptr[l] || p.cut[i+1] > ptr[l+1] || p.cut[i] >= p.cut[i+1] {
						t.Fatalf("%s threads=%d: piece %d [%d, %d) leaves level %d [%d, %d) or is empty",
							name, threads, i, p.cut[i], p.cut[i+1], l, ptr[l], ptr[l+1])
					}
					if p.fwdGate[i] != int32(first) {
						t.Fatalf("%s threads=%d: forward gate of piece %d is %d, want %d", name, threads, i, p.fwdGate[i], first)
					}
					i++
				}
				for j := first; j < i; j++ {
					if got, want := p.bwdGate[len(p.bwdGate)-1-j], int32(len(p.bwdGate)-i); got != want {
						t.Fatalf("%s threads=%d: backward gate of piece %d is %d, want %d", name, threads, j, got, want)
					}
				}
			}
			if i != len(p.fwdGate) || len(p.cut) != i+1 || p.cut[0] != 0 || p.cut[i] != e.split.NUpper {
				t.Fatalf("%s threads=%d: %d pieces over %d cuts [%d … %d], want cuts covering [0, %d)",
					name, threads, len(p.fwdGate), len(p.cut), p.cut[0], p.cut[len(p.cut)-1], e.split.NUpper)
			}
			e.Close()
		}
	}
}
