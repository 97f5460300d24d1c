package core

import (
	"runtime"
	"testing"
	"time"

	"javelin/internal/exec"
)

// routeSim drives a route state with synthetic forward sweeps on a
// synthetic clock: each sweep begins gap after the previous one ended
// and takes cost[phased], except that an inline sweep beginning within
// exec.IdleSpin of the last phased one takes polled, as it does beside
// a worker still polling for that sweep's region.
type routeSim struct {
	r      *solveRoute
	now    time.Time
	gap    time.Duration
	cost   map[bool]time.Duration
	polled time.Duration
}

func newRouteSim(gap, inline, phased, polled time.Duration) *routeSim {
	born := time.Now()
	return &routeSim{r: &solveRoute{born: born}, now: born, gap: gap,
		cost: map[bool]time.Duration{false: inline, true: phased}, polled: polled}
}

// sweep runs one forward sweep as forwardUpper does and returns
// whether it ran phased.
func (m *routeSim) sweep() bool {
	r := m.r
	m.now = m.now.Add(m.gap)
	p, timed := r.pick(m.now)
	d := m.cost[p]
	if !p && int64(m.now.Sub(r.born))-r.phasedEnd.Load() < int64(exec.IdleSpin) {
		d = m.polled
	}
	m.now = m.now.Add(d)
	if p {
		r.phasedEnd.Store(int64(m.now.Sub(r.born)))
	}
	if timed {
		r.record(p, d)
	}
	return p
}

// TestSolveRouteChoice: sweeps a millisecond apart, the phased route
// twice as fast. The sweeps start inline; the first exploration opens
// at sweep 64, its second sweep finds the phased route faster, and the
// engine switches at once; then the sweeps stay phased except for an
// inline exploration every 64 sweeps, whose first sweep is no sample
// and whose next two are. An estimate is the least time of the last routeWindow
// samples, so a slower route loses only once its whole window is slow,
// and a route faster by less than the margin does not win.
func TestSolveRouteChoice(t *testing.T) {
	const us = time.Microsecond
	m := newRouteSim(time.Millisecond, 100*us, 50*us, 100*us)
	r := m.r
	for s := uint64(1); s <= 200; s++ {
		want := s >= 64 && (s < 2*routeExplore || s%routeExplore > routeSamples)
		if got := m.sweep(); got != want {
			t.Fatalf("sweep %d runs phased=%v, want %v", s, got, want)
		}
	}
	if !r.phased.Load() || r.switches.Load() != 1 || r.explorations.Load() != 3 {
		t.Fatalf("after 200 sweeps: phased=%v with %d switches and %d explorations, want phased after 1 and 3",
			r.phased.Load(), r.switches.Load(), r.explorations.Load())
	}
	// The phased route slows to 120 µs: its estimate keeps its best
	// time until the whole window holds the new one.
	m.cost[true] = 120 * us
	for k := 1; k <= routeWindow; k++ {
		if p := m.sweep(); !p || r.phased.Load() != (k < routeWindow) {
			t.Fatalf("slow phased sample %d: swept phased=%v, now phased=%v", k, p, r.phased.Load())
		}
	}
	if r.switches.Load() != 2 {
		t.Fatalf("%d switches, want 2", r.switches.Load())
	}
	// Phased at 95 µs against inline at 100 µs is inside the margin:
	// the explorations of the next 200 sweeps do not switch back.
	m.cost[true] = 95 * us
	for k := 0; k < 200; k++ {
		m.sweep()
	}
	if r.phased.Load() || r.switches.Load() != 2 || r.phasedEst.best() != int64(95*us) {
		t.Fatalf("inside the margin: phased=%v, %d switches, phased estimate %v; want inline, 2 and 95µs",
			r.phased.Load(), r.switches.Load(), time.Duration(r.phasedEst.best()))
	}
}

// TestSolveRouteInlineWaitsForIdleWorker: sweeps 10 µs apart on a
// host where an inline sweep takes 60 µs, but 162 µs while the worker
// still polls after a phased sweep (100 µs). An engine that sweeps
// phased must leave it at its first exploration, whose inline sweeps
// become samples only once the worker has had exec.IdleSpin to park;
// and once inline, the sweeps just after a phased exploration are no
// samples either. Timed beside the polling worker, inline would read
// slower than phased and the engine would keep the slower route.
func TestSolveRouteInlineWaitsForIdleWorker(t *testing.T) {
	const us = time.Microsecond
	m := newRouteSim(10*us, 60*us, 100*us, 162*us)
	r := m.r
	r.phased.Store(true)
	for r.explorations.Load() == 0 {
		m.sweep()
	}
	if r.phased.Load() || r.switches.Load() != 1 || r.inlineEst.best() != int64(60*us) || r.inlineEst.samples.Load() != 1 {
		t.Fatalf("after the first exploration: phased=%v, %d switches, inline %v from %d samples; want inline, 1, 60µs from 1",
			r.phased.Load(), r.switches.Load(), time.Duration(r.inlineEst.best()), r.inlineEst.samples.Load())
	}
	// Through the next phased exploration and 40 sweeps after it.
	for r.explorations.Load() == 1 {
		m.sweep()
	}
	for k := 0; k < 40; k++ {
		m.sweep()
	}
	for i := range r.inlineEst.last {
		if v := r.inlineEst.last[i].Load(); v != 0 && v != int64(60*us) {
			t.Fatalf("inline window slot %d holds %v: a sweep beside the polling worker was kept", i, time.Duration(v))
		}
	}
	if r.phased.Load() || r.switches.Load() != 1 {
		t.Fatalf("after the phased exploration: phased=%v with %d switches, want inline after 1", r.phased.Load(), r.switches.Load())
	}
}

// TestSolveRouteExploreGap: sweeps a microsecond apart explore once
// per routeExploreGap (10 ms), not once per 64 sweeps: 35 ms of such
// sweeps hold three explorations of three phased sweeps each, the
// opening one and two that may be samples.
func TestSolveRouteExploreGap(t *testing.T) {
	m := newRouteSim(time.Microsecond, 0, 0, 0)
	explored := 0
	for m.now.Sub(m.r.born) < 35*time.Millisecond {
		if p, _ := m.r.pick(m.now); p {
			explored++
		}
		m.now = m.now.Add(time.Microsecond)
	}
	if explored != 9 || m.r.explorations.Load() != 3 {
		t.Fatalf("%d exploring sweeps in %d explorations in 35 ms of sweeps a microsecond apart, want 9 in 3",
			explored, m.r.explorations.Load())
	}
}

// TestSolveRouteOneP: where only one lane can run at a time the solves
// have one route. At GOMAXPROCS=1 an engine with Threads=2 on a
// two-lane runtime builds no route state, reports zeros and a settled
// route, and its applies open no region.
func TestSolveRouteOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := exec.New(2)
	defer rt.Close()
	a := testMatrices(t)["grid3d"]
	opt := DefaultOptions()
	opt.Threads, opt.Runtime = 2, rt
	e, err := Factorize(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	r := make([]float64, a.N)
	for i := range r {
		r[i] = float64(i%5) - 2
	}
	c := e.NewContext()
	before := rt.Stats().Regions
	for k := 0; k < 20; k++ {
		c.Apply(r, r)
	}
	if got := rt.Stats().Regions - before; got != 0 {
		t.Errorf("20 applies opened %d regions, want 0", got)
	}
	if got := e.SolveRoute(); got != (SolveRoute{}) || !e.RouteSettled() {
		t.Errorf("SolveRoute() = %+v, settled %v; want zeros, settled", got, e.RouteSettled())
	}
}
