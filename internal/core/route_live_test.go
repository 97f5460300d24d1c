//go:build !race

// These tests time triangular sweeps, so they are left out of -race
// builds, whose instrumentation stretches every sweep. Run them alone
// with two Ps, as CI does:
//
//	GOMAXPROCS=2 go test -count=1 -run TestSolveRouteLive ./internal/core

package core

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"javelin/internal/exec"
	"javelin/internal/gen"
	"javelin/internal/order"
	"javelin/internal/sparse"
	"javelin/internal/util"
)

// cpuStallUs returns the machine's cumulative CPU pressure stall time
// in microseconds: the total of the "some" line of /proc/pressure/cpu,
// time during which a runnable task waited for a CPU. It returns -1
// where the kernel does not report it.
func cpuStallUs() int64 {
	b, err := os.ReadFile("/proc/pressure/cpu")
	if err != nil {
		return -1
	}
	_, rest, _ := strings.Cut(string(b), "total=")
	f := strings.Fields(rest)
	if len(f) == 0 {
		return -1
	}
	us, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return -1
	}
	return us
}

// routeApplies is how many applies after a disturbance an engine gets
// to settle its solve route.
const routeApplies = 200

// suiteMatrix returns the suite matrix called name at scale with a
// zero-free diagonal, in nested-dissection order, as the benchmark
// sets it up.
func suiteMatrix(t *testing.T, name string, scale float64) *sparse.CSR {
	t.Helper()
	spec, ok := gen.ByName(name)
	if !ok {
		t.Fatalf("suite has no matrix %q", name)
	}
	a := spec.Build(spec.ScaledN(scale))
	if !a.HasFullDiagonal() {
		a = sparse.PermuteRows(a, order.ZeroFreeDiagonal(a))
	}
	return sparse.PermuteSym(a, order.ComputeND(a), util.MaxThreads())
}

// liveRouteSetup skips the caller unless it may time sweeps: not in
// -short mode, with at least two Ps, and with the CPUs not already
// busy while the test idles for 50 ms.
func liveRouteSetup(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("timing test")
	}
	if p := util.MaxThreads(); p < 2 {
		t.Skipf("GOMAXPROCS=%d: the solves have one route", p)
	}
	watch := newStallWatch()
	time.Sleep(50 * time.Millisecond)
	watch.skipIfBusy(t)
}

// stallWatch skips the test when some task on the machine waited for a
// CPU for more than a tenth of the time since start: then the sweeps'
// times say more about the machine's load than about the routes, as
// they do beside the other packages' tests in `go test ./...`.
type stallWatch struct {
	start time.Time
	stall int64
}

func newStallWatch() stallWatch { return stallWatch{time.Now(), cpuStallUs()} }

func (w stallWatch) skipIfBusy(t *testing.T) {
	t.Helper()
	if w.stall < 0 {
		return
	}
	waited := time.Duration(cpuStallUs()-w.stall) * time.Microsecond
	if took := time.Since(w.start); waited > took/10 {
		t.Skipf("CPUs busy: tasks waited %v for a CPU in %v", waited, took)
	}
}

// applyVector returns a fixed right-hand side for a.
func applyVector(a *sparse.CSR) []float64 {
	r := make([]float64, a.N)
	rng := util.NewRNG(33)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	return r
}

// TestSolveRouteLiveRecoversAfterGarbage: 30 engines of the pde matrix
// are factorized back to back at Threads=2 on one Runtime(2) while a
// goroutine allocates garbage, each applied 70 times under it, so
// every one of them has its first samples, and its first exploration
// at the 64th sweep, with the second lane contended. Once the
// goroutine stops, at least 29 of the 30 must sweep phased within
// routeApplies applies: the phased route pays on this matrix, and a
// route chosen under load must not stick.
func TestSolveRouteLiveRecoversAfterGarbage(t *testing.T) {
	liveRouteSetup(t)
	const engines, underLoad, want = 30, 70, 29
	a := suiteMatrix(t, "parabolic_fem", 0.05)
	r := applyVector(a)
	z := make([]float64, a.N)
	rt := exec.New(2)
	defer rt.Close()

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		var keep [][]byte
		for {
			select {
			case <-stop:
				return
			default:
			}
			keep = append(keep, make([]byte, 64<<10))
			if len(keep) == 64 {
				keep = keep[:0]
			}
		}
	}()
	es := make([]*Engine, engines)
	for i := range es {
		opt := DefaultOptions()
		opt.Threads, opt.Runtime = 2, rt
		e, err := Factorize(a, opt)
		if err != nil {
			close(stop)
			t.Fatal(err)
		}
		defer e.Close()
		c := e.NewContext()
		for k := 0; k < underLoad; k++ {
			c.Apply(r, z)
		}
		es[i] = e
	}
	close(stop)
	<-stopped
	loaded := 0
	for _, e := range es {
		if e.SolveRoute().Phased {
			loaded++
		}
	}

	watch := newStallWatch()
	phased := 0
	for _, e := range es {
		c := e.NewContext()
		for k := 0; k < routeApplies; k++ {
			c.Apply(r, z)
		}
		if got := e.SolveRoute(); got.Phased {
			phased++
		} else {
			t.Logf("an engine sweeps inline: %+v", got)
		}
	}
	watch.skipIfBusy(t)
	t.Logf("phased: %d of %d engines under load, %d after %d more applies",
		loaded, engines, phased, routeApplies)
	if phased < want {
		t.Fatalf("%d of %d engines sweep phased %d applies after the garbage stopped, want at least %d",
			phased, engines, routeApplies, want)
	}
}

// TestSolveRouteLiveSettlesInlineOnPowerflow: on the powerflow matrix,
// whose upper levels are too small to repay a region per level, a
// Threads=2 engine with the SR lower stage, as the powerflow-refactor
// workload runs it, sweeps inline after routeApplies applies and three
// explorations, having timed both routes. Put on the phased route, it
// returns to inline within routeApplies applies.
func TestSolveRouteLiveSettlesInlineOnPowerflow(t *testing.T) {
	liveRouteSetup(t)
	watch := newStallWatch()
	a := suiteMatrix(t, "TSOPF_RS_b300_c2", 0.05)
	r := applyVector(a)
	z := make([]float64, a.N)
	opt := DefaultOptions()
	opt.Threads, opt.Lower = 2, LowerSR
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	c := e.NewContext()
	for k, start := 0, time.Now(); k < routeApplies ||
		e.route.explorations.Load() < 3 && time.Since(start) < 2*time.Second; k++ {
		c.Apply(r, z)
	}
	settled := e.SolveRoute()
	forceSolveRoute(e, true)
	for k := 0; k < routeApplies; k++ {
		c.Apply(r, z)
	}
	back := e.SolveRoute()
	watch.skipIfBusy(t)
	t.Logf("settled: %+v; %d applies after the phased start: %+v", settled, routeApplies, back)
	if settled.Phased || settled.InlineSamples == 0 || settled.PhasedSamples == 0 {
		t.Errorf("settled route %+v, want inline with samples of both routes", settled)
	}
	if back.Phased || back.Switches != 1 {
		t.Errorf("%d applies after a phased start: %+v, want inline after 1 switch", routeApplies, back)
	}
}
