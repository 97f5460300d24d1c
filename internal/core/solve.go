package core

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"javelin/internal/exec"
)

// SolveLower solves L·x = b on the engine's permuted indexing, where
// L is the unit-lower factor. b and x are length-N slices in the
// PERMUTED ordering (use Apply for the user-ordering round trip);
// b and x may alias.
//
// It is forward substitution, rows ascending. Inline it is one sweep
// on the calling goroutine, at every thread count. On the phased
// route it sweeps the upper-stage levels in ascending order as one
// exec.Runtime.Phases region, each level's rows cut into one range per
// lane with a barrier between levels, and then the lower rows
// [NUpper, n) inline, ascending. On an engine with a sweep plan each
// call times its upper stage, and the engine's live estimates pick the
// route (see Engine.SolveRoute). TriLower is row-local and every L
// entry of an upper-stage row points to an earlier level, so every
// thread count and both routes give the bits of plain serial
// substitution on the engine's factor.
//
// On a context from NewContext each call pins the current epoch for
// its own duration only; when pairing SolveLower with SolveUpper under
// concurrent Refactorize, run the pair on one acquired context
// (AcquireContext … ReleaseContext) so both halves use one factor
// generation.
//
//javelin:noalloc
func (c *SolveContext) SolveLower(b, x []float64) {
	c.enter()
	defer c.exit()
	e := c.e
	lu := e.factor.LU
	if &b[0] != &x[0] {
		copy(x, b)
	}
	lo := 0
	if r := e.route; r != nil {
		c.forwardUpper(r, x)
		lo = e.split.NUpper
	}
	e.kt.TriLower(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, x, lo, e.n)
}

// forwardUpper runs the upper-stage rows of a forward sweep on the
// route r picks and, when pick counts the sweep as a sample, feeds
// their time, read with two clock reads, back into r. A phased sweep
// in which no lane but the caller's ran a piece cost what an inline
// one does plus the region, so its time is not kept either.
//
//javelin:noalloc
func (c *SolveContext) forwardUpper(r *solveRoute, x []float64) {
	e := c.e
	t0 := time.Now()
	phased, timed := r.pick(t0)
	var t1 time.Time
	if phased {
		c.joined.Store(false)
		t1 = c.runPhased(r, r.plan.fwdGate, c.forward, x)
		timed = timed && c.joined.Load()
	} else {
		lu := e.factor.LU
		e.kt.TriLower(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, x, 0, e.split.NUpper)
		t1 = time.Now()
	}
	if timed {
		r.record(phased, t1.Sub(t0))
	}
}

// SolveUpper solves U·x = b on the permuted indexing (b, x length N,
// may alias) by backward substitution, the mirror of SolveLower.
// Inline it is one descending sweep on the calling goroutine, at
// every thread count. On the phased route it sweeps the lower rows
// [NUpper, n) inline, descending, and then the upper-stage levels in
// descending order as one exec.Runtime.Phases region. It takes the
// route the forward sweeps take at the time, the one in use or the
// one being explored, and is not timed (see Engine.SolveRoute).
// Under the lower(A+Aᵀ) leveling every U entry of an upper-stage row
// points to a later level or to a lower row, and TriUpper is
// row-local, so every thread count and both routes give the bits of
// plain serial substitution. See SolveLower's note on epoch pinning
// when pairing the two under concurrent Refactorize.
//
//javelin:noalloc
func (c *SolveContext) SolveUpper(b, x []float64) {
	c.enter()
	defer c.exit()
	e := c.e
	lu := e.factor.LU
	if &b[0] != &x[0] {
		copy(x, b)
	}
	r := e.route
	if r == nil || !r.current() {
		e.kt.TriUpper(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, x, 0, e.n)
		return
	}
	e.kt.TriUpper(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, x, e.split.NUpper, e.n)
	c.runPhased(r, r.plan.bwdGate, c.backward, x)
}

// The live route choice's constants. Each route's estimate is the
// least of its last routeWindow samples. The sweeps start inline; an
// exploration runs the route not in use once at least routeExplore
// forward sweeps and routeExploreGap have passed since the engine was
// built or the last exploration opened, and closes after routeSamples
// forward sweeps that could be samples. The engine moves to the other
// route when that one's estimate is below its own by more than
// 1/routeMargin of it.
const (
	routeWindow     = 8
	routeExplore    = 64
	routeExploreGap = 10 * time.Millisecond
	routeSamples    = 2
	routeMargin     = 10
)

// solveRoute is an engine's live choice between its two solve routes:
// the upper-stage rows of each sweep run inline or phased, and the
// engine learns which is faster from its own forward sweeps, an
// ε-greedy choice between two arms (Sutton & Barto, ch. 2) like the
// run-time kernel selection of OSKI (Vuduc, Demmel & Yelick, 2005).
// Every route is plain substitution, so a switch changes no bit. All
// mutable state is atomic: concurrent contexts share it without a
// lock or an allocation. Times are kept in nanoseconds since born.
type solveRoute struct {
	plan *sweepPlan
	born time.Time

	phased    atomic.Bool // the route in use
	exploring atomic.Bool // the sweeps run the other route
	// explored is the forward sweep that opened the last exploration
	// and openedAt its time; timed counts the forward sweeps of the
	// open exploration that could be samples.
	explored     atomic.Uint64
	openedAt     atomic.Int64
	timed        atomic.Uint32
	explorations atomic.Uint64 // explorations closed
	sweeps       atomic.Uint64 // forward sweeps begun
	switches     atomic.Uint64
	phasedEnd    atomic.Int64 // when the last phased sweep ended

	inlineEst, phasedEst routeEstimate
}

// estimate returns the route's estimate.
func (r *solveRoute) estimate(phased bool) *routeEstimate {
	if phased {
		return &r.phasedEst
	}
	return &r.inlineEst
}

// current reports whether the sweeps run phased now: on the route in
// use, or on the other one while an exploration is open.
func (r *solveRoute) current() bool {
	return r.phased.Load() != r.exploring.Load()
}

// pick returns whether the forward sweep beginning at now runs phased
// and whether its time may be a sample of that route's cost. It opens
// an exploration once at least routeExplore sweeps and
// routeExploreGap have passed since the engine was built or the last
// one opened; the exploration's sweeps, backward ones included, run
// the route not in use, and it closes with its routeSamples-th sweep
// that may be a sample.
//
// Samples are taken only where the runtime's worker is in the state
// the route keeps it in. A phased sweep leaves the worker polling for
// exec.IdleSpin, and on a host with few CPUs a polling worker slows
// the caller's own sweeps: an inline sweep timed soon after a phased
// one reads up to 2.7× its time with the worker parked. So an inline
// sweep may be a sample only when it begins at least exec.IdleSpin
// after the engine's last phased sweep ended, and an inline
// exploration runs until two such sweeps; the sweeps start inline,
// with Factorize's regions as the phased sweep they wait out. The
// first sweep of an exploration is never a sample: a phased one may
// have to wake a parked worker, while the next finds it polling, as
// every phased sweep does once the engine sweeps phased. The gap
// bounds how often exploring keeps the worker polling where a sweep
// takes microseconds.
func (r *solveRoute) pick(now time.Time) (phased, timed bool) {
	s := r.sweeps.Add(1)
	at := int64(now.Sub(r.born))
	opens := false
	if last := r.explored.Load(); !r.exploring.Load() && s >= last+routeExplore &&
		at-r.openedAt.Load() >= int64(routeExploreGap) && r.explored.CompareAndSwap(last, s) {
		r.openedAt.Store(at)
		r.timed.Store(0)
		r.exploring.Store(true)
		opens = true
	}
	phased = r.current()
	timed = !opens && (phased || at-r.phasedEnd.Load() >= int64(exec.IdleSpin))
	if timed && r.exploring.Load() && r.timed.Add(1) == routeSamples {
		r.closeExploration()
	}
	return phased, timed
}

// closeExploration returns the sweeps to the route in use.
func (r *solveRoute) closeExploration() {
	if r.exploring.CompareAndSwap(true, false) {
		r.explorations.Add(1)
	}
}

// record keeps d as a sample of the route's upper-stage time and moves
// the engine to the other route when that one's estimate is lower by
// the margin, which also closes an open exploration. A route with no
// sample has no estimate and never wins.
func (r *solveRoute) record(phased bool, d time.Duration) {
	r.estimate(phased).add(d)
	cur := r.phased.Load()
	mine, other := r.estimate(cur).best(), r.estimate(!cur).best()
	if other < mine-mine/routeMargin && r.phased.CompareAndSwap(cur, !cur) {
		r.switches.Add(1)
		r.closeExploration()
	}
}

// routeEstimate is one route's sample window: its last routeWindow
// kept upper-stage times in nanoseconds, 0 marking a slot not yet
// filled, and its count of kept samples.
type routeEstimate struct {
	samples atomic.Uint64
	last    [routeWindow]atomic.Int64
}

// add records one sample.
func (s *routeEstimate) add(d time.Duration) {
	k := s.samples.Add(1) - 1
	s.last[k%routeWindow].Store(max(int64(d), 1))
}

// best returns the least time in the window, or math.MaxInt64 before
// the first sample. A stall (a descheduled lane, a GC assist, a
// worker waking from its park) only lengthens a sweep, so the least
// time ignores one-off stalls.
func (s *routeEstimate) best() int64 {
	b := int64(math.MaxInt64)
	for i := range s.last {
		if v := s.last[i].Load(); v > 0 {
			b = min(b, v)
		}
	}
	return b
}

// sweepPlan is the phased route's piece plan over the upper stage:
// each level's rows cut into one contiguous range per lane. Forward
// piece i covers rows [cut[i], cut[i+1]), levels ascending; backward
// piece i is forward piece len(cut)-2-i, so its levels descend. Each
// gate entry counts the pieces of the phases (levels) before the
// piece's own in its sweep.
type sweepPlan struct {
	cut              []int
	fwdGate, bwdGate []int32
}

// newSweepPlan cuts every upper level into min(Threads, rows) ranges
// of nearly equal row counts.
func (e *Engine) newSweepPlan() *sweepPlan {
	cut, fwd := e.cutLevels(e.opt.Threads)
	pieces := len(fwd)
	p := &sweepPlan{cut: cut, fwdGate: fwd, bwdGate: make([]int32, pieces)}
	end := pieces // one past the last piece of forward piece j's level
	for j := pieces - 1; j >= 0; j-- {
		p.bwdGate[pieces-1-j] = int32(pieces - end)
		if fwd[j] == int32(j) {
			end = j // j opens its level
		}
	}
	return p
}

// cutLevels cuts every upper level into min(k, rows) contiguous ranges
// of nearly equal row counts, levels ascending. Range i covers rows
// [cut[i], cut[i+1]), and gate[i], its Phases gate in a forward
// sweep, counts the ranges of the levels before its own.
func (e *Engine) cutLevels(k int) (cut []int, gate []int32) {
	ptr, levels := e.split.UpperLvlPtr, e.split.CutLevel
	pieces := 0
	for l := 0; l < levels; l++ {
		pieces += min(k, ptr[l+1]-ptr[l])
	}
	cut = make([]int, pieces+1)
	gate = make([]int32, pieces)
	i := 0
	for l := 0; l < levels; l++ {
		lo, rows := ptr[l], ptr[l+1]-ptr[l]
		m := min(k, rows)
		first := int32(i)
		for q := 0; q < m; q++ {
			cut[i] = lo + q*rows/m
			gate[i] = first
			i++
		}
	}
	cut[pieces] = e.split.NUpper
	return cut, gate
}

// runPhased runs one sweep of the phased route over x: the pieces of
// gate, each through body, as one runtime region of up to Threads
// lanes. It returns when the sweep ended and keeps that time in r.
//
//javelin:noalloc
func (c *SolveContext) runPhased(r *solveRoute, gate []int32, body func(lane, i int), x []float64) time.Time {
	c.x = x
	c.e.rt.Phases(gate, c.e.opt.Threads, body)
	c.x = nil
	end := time.Now()
	r.phasedEnd.Store(int64(end.Sub(r.born)))
	return end
}

// forwardPiece runs TriLower over the rows of forward piece i and
// notes when a lane other than the caller's runs it.
//
//javelin:noalloc
func (c *SolveContext) forwardPiece(lane, i int) {
	if lane != 0 {
		c.joined.Store(true)
	}
	e := c.e
	lu, cut := e.factor.LU, e.route.plan.cut
	e.kt.TriLower(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, c.x, cut[i], cut[i+1])
}

// backwardPiece runs TriUpper over the rows of backward piece i.
//
//javelin:noalloc
func (c *SolveContext) backwardPiece(_, i int) {
	e := c.e
	lu, cut := e.factor.LU, e.route.plan.cut
	j := len(cut) - 2 - i
	e.kt.TriUpper(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, c.x, cut[j], cut[j+1])
}

// SolveRoute reports how an engine's solves run their upper-stage
// rows and the live estimates behind the choice.
type SolveRoute struct {
	// Phased is true while the rows run level by level through
	// exec.Runtime.Phases, false while they run inline.
	Phased bool
	// InlineEst and PhasedEst are each route's estimate of one forward
	// sweep of the upper stage (the least of its last few kept
	// samples), 0 before the route's first sample; InlineSamples and
	// PhasedSamples count the samples kept so far.
	InlineEst, PhasedEst         time.Duration
	InlineSamples, PhasedSamples uint64
	// Switches counts the changes of route.
	Switches uint64
}

// SolveRoute returns the route the solves take now and the estimates
// behind it. An engine whose solves cannot run phased (one thread,
// fewer than two lanes runnable at Factorize, or no upper level with
// two rows) runs inline and reports zeros. Otherwise every forward
// sweep times its upper stage on the route it takes and keeps the time
// as a sample of that route, unless it ran phased and no second lane
// joined it, or ran inline within exec.IdleSpin of the engine's last
// phased sweep. The sweeps start inline and take the route in use; at
// most once per 64 forward sweeps and 10 ms they explore the other
// route until two of its forward sweeps could be samples, to give it
// an estimate and keep it current, and the route changes when the
// other estimate is lower by more than a tenth. Backward sweeps take
// the route the forward ones take and are not timed. Reading the state
// takes no lock, so the report may straddle a sweep in flight.
func (e *Engine) SolveRoute() SolveRoute {
	r := e.route
	if r == nil {
		return SolveRoute{}
	}
	est := func(s *routeEstimate) (time.Duration, uint64) {
		n := s.samples.Load()
		if n == 0 {
			return 0, 0
		}
		return time.Duration(s.best()), n
	}
	out := SolveRoute{Phased: r.phased.Load(), Switches: r.switches.Load()}
	out.InlineEst, out.InlineSamples = est(&r.inlineEst)
	out.PhasedEst, out.PhasedSamples = est(&r.phasedEst)
	return out
}

// RouteSettled reports whether the engine's solves have chosen their
// route from both routes' costs: at once for an engine whose solves
// run inline only, and after the first exploration for one that
// chooses live. Code that times solves applies the engine until it
// holds, so it times the route the sweeps settle on rather than the
// inline start.
func (e *Engine) RouteSettled() bool {
	return e.route == nil || e.route.explorations.Load() > 0
}

// newSolveRoute gives the engine its route state when its solves can
// run phased: at least two lanes can run at once (Threads never
// exceeds the runtime's parallelism) and some upper level holds two
// rows. Otherwise the solves stay inline and time nothing.
func (e *Engine) newSolveRoute() *solveRoute {
	if min(e.opt.Threads, runtime.GOMAXPROCS(0)) < 2 {
		return nil
	}
	p := e.newSweepPlan()
	if len(p.fwdGate) == e.split.CutLevel {
		return nil // no level has two rows to share
	}
	return &solveRoute{plan: p, born: time.Now()}
}
