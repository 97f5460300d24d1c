package core

import (
	"math"
	"runtime"
	"time"
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
// [NUpper, n) inline, ascending; Factorize picks the route by timing
// both (see Engine.SolveRoute). TriLower is row-local and every L
// entry of an upper-stage row points to an earlier level, so every
// thread count and both routes give the bits of plain serial
// substitution on the engine's factor.
//
// On an unpinned context each call pins the current epoch for its
// own duration only; when pairing SolveLower with SolveUpper under
// concurrent Refactorize, bracket the pair with PinEpoch/UnpinEpoch
// so both halves use one factor generation.
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
	p := e.phasedPlan()
	if p == nil {
		e.kt.TriLower(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, x, 0, e.n)
		return
	}
	c.runPhased(p.fwdGate, c.forward, x)
	e.kt.TriLower(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, x, e.split.NUpper, e.n)
}

// SolveUpper solves U·x = b on the permuted indexing (b, x length N,
// may alias) by backward substitution, the mirror of SolveLower.
// Inline it is one descending sweep on the calling goroutine, at
// every thread count. On the phased route it sweeps the lower rows
// [NUpper, n) inline, descending, and then the upper-stage levels in
// descending order as one exec.Runtime.Phases region. Under the
// lower(A+Aᵀ) leveling every U entry of an upper-stage row points to
// a later level or to a lower row, and TriUpper is row-local, so
// every thread count and both routes give the bits of plain serial
// substitution. See SolveLower's note on PinEpoch when pairing the
// two under concurrent Refactorize.
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
	p := e.phasedPlan()
	if p == nil {
		e.kt.TriUpper(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, x, 0, e.n)
		return
	}
	e.kt.TriUpper(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, x, e.split.NUpper, e.n)
	c.runPhased(p.bwdGate, c.backward, x)
}

// solveRoute is the outcome of an engine's route probe: the best time
// of the forward upper-stage sweep on each route and, when the phased
// route won, its piece plan.
type solveRoute struct {
	inlineBest, phasedBest time.Duration
	plan                   *sweepPlan
}

// phasedPlan returns the piece plan of the phased route, or nil when
// the solves run inline.
func (e *Engine) phasedPlan() *sweepPlan {
	if e.route == nil {
		return nil
	}
	return e.route.plan
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
// lanes.
//
//javelin:noalloc
func (c *SolveContext) runPhased(gate []int32, body func(lane, i int), x []float64) {
	c.x = x
	c.e.rt.Phases(gate, c.e.opt.Threads, body)
	c.x = nil
}

// forwardPiece runs TriLower over the rows of forward piece i.
//
//javelin:noalloc
func (c *SolveContext) forwardPiece(_, i int) {
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
// rows and the probe behind the choice.
type SolveRoute struct {
	// Phased is true when the rows run level by level through
	// exec.Runtime.Phases, false when they run inline.
	Phased bool
	// InlineBest and PhasedBest are the probe's best times for one
	// forward sweep of the upper stage on each route, both 0 when no
	// probe ran.
	InlineBest, PhasedBest time.Duration
}

// SolveRoute returns the route the solves take and the probe's best
// time on each route. It only reports; nothing sets the route but
// Factorize.
func (e *Engine) SolveRoute() SolveRoute {
	r := e.route
	if r == nil {
		return SolveRoute{}
	}
	return SolveRoute{Phased: r.plan != nil, InlineBest: r.inlineBest, PhasedBest: r.phasedBest}
}

// probeTrials is the number of timed trials per route in the solve
// route probe.
const probeTrials = 5

// chooseSolveRoute times the forward upper-stage sweep inline and
// phased on this host and keeps the phased route only if its best time
// is lower. An engine with one thread, or where fewer than two lanes
// can run at once (Threads never exceeds the runtime's parallelism),
// runs no probe and stays inline, and so does one whose levels all
// hold a single row. The probe sweeps a private zero vector, which
// both routes keep zero, so every run costs the same; after one
// untimed run of each route it interleaves the trials, each timed on
// the second of two back-to-back runs, so that waking a parked worker
// is not charged to the phased route.
func (e *Engine) chooseSolveRoute() {
	if min(e.opt.Threads, runtime.GOMAXPROCS(0)) < 2 {
		return
	}
	p := e.newSweepPlan()
	if len(p.fwdGate) == e.split.CutLevel {
		return // no level has two rows to share
	}
	r := &solveRoute{plan: p}
	e.route = r
	c := e.NewContext()
	c.enter()
	defer c.exit()
	lu, x := e.factor.LU, c.tmp1
	inline := func() {
		e.kt.TriLower(lu.RowPtr, e.factor.DiagPos, lu.ColIdx, c.vals, x, 0, e.split.NUpper)
	}
	phased := func() { c.runPhased(p.fwdGate, c.forward, x) }
	second := func(run func()) time.Duration {
		run()
		t0 := time.Now()
		run()
		return time.Since(t0)
	}
	inline()
	phased()
	r.inlineBest, r.phasedBest = math.MaxInt64, math.MaxInt64
	for t := 0; t < probeTrials; t++ {
		r.inlineBest = min(r.inlineBest, second(inline))
		r.phasedBest = min(r.phasedBest, second(phased))
	}
	if r.phasedBest >= r.inlineBest {
		r.plan = nil
	}
}
