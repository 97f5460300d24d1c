package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Adaptive parallel cutoff.
//
// Opening a claim-based region is cheap but not free: two mutex hops,
// a handful of atomics, and (when workers are parked) a wake. For a
// kernel touching a few thousand floats that fixed cost exceeds the
// whole serial loop, and on a machine where GOMAXPROCS is smaller
// than the runtime's lane count the "parallel" region is actually
// time-sliced onto fewer cores than it has participants — pure
// overhead. The cutoff answers, per call site, "is this region worth
// opening?" from two inputs: the amount of work (caller-estimated in
// ops ≈ flops ≈ nanoseconds) and the measured per-region overhead of
// this runtime on this machine.
//
// Decisions here only choose between running a fixed instruction
// sequence inline or spread over lanes; callers must ensure both
// executions are bitwise identical (true for all Javelin kernels:
// partition boundaries, not participant count, define the float
// association).
//
// Remaining callers: spmv.ParallelOn (PiecesFor); in internal/core
// the factor scatter (PiecesFor) and each factorization pass's one
// Phases region over the numeric stages (ParallelWorth, which caps
// the region at Threads lanes or at 1); the krylov reductions
// (ParallelWorth) and the CSRLS baseline sweeps in internal/trisolve
// (PiecesFor). The engine's triangular solves do not use the model:
// each engine times its upper-stage sweep inline and as one Phases
// region at Factorize and keeps the faster route, because a phased
// sweep pays a barrier per level, a cost this model does not see.

const (
	// cutoffNsPerOp converts caller work estimates (ops) to
	// nanoseconds. One fused multiply-add plus a dependent load from a
	// warm cache is on the order of a nanosecond on anything recent;
	// being off by 2-3x either way only shifts the cutoff within the
	// region-overhead noise band.
	cutoffNsPerOp = 1.0

	// cutoffGainFactor is how many region-overheads of *saved* time a
	// region must promise before it opens. Greater than 1 so that
	// marginal regions — where the model's error bars straddle zero —
	// stay serial: a wrong "serial" costs a bounded fraction of the
	// region, a wrong "parallel" can cost multiples of it.
	cutoffGainFactor = 8.0

	// cutoffMinPieceOps is the least work a single piece should carry;
	// PiecesFor reduces the piece count below the lane count rather
	// than deal out blocks smaller than this.
	cutoffMinPieceOps = 4096

	// Clamps for the measured overhead, guarding against a scheduler
	// hiccup during calibration (too high → nothing ever parallel) or
	// a time source too coarse to see the region at all (too low →
	// cutoff vanishes).
	cutoffOverheadFloorNs = 200.0
	cutoffOverheadCeilNs  = 100000.0

	cutoffCalibrationTrials = 8
)

// overheadState is the lazily measured per-region overhead, one per
// Runtime (it depends on the worker count).
type overheadState struct {
	once sync.Once
	ns   float64
}

// RegionOverheadNs returns the measured cost of opening, running and
// retiring one (nearly) empty parallel region on this runtime, in
// nanoseconds. Measured once, on first use, as the minimum over a few
// trials — the minimum because calibration noise is one-sided (a
// preempted trial reads high, none reads low).
func (r *Runtime) RegionOverheadNs() float64 {
	r.overhead.once.Do(r.calibrateOverhead)
	return r.overhead.ns
}

func (r *Runtime) calibrateOverhead() {
	best := cutoffOverheadCeilNs
	n := r.Parallelism()
	if n < 2 {
		// Inline-only runtime: regions degenerate to plain loops and
		// the cutoff never fires (ParallelWorth is false below p=2),
		// so charge the floor and skip the measurement.
		r.overhead.ns = cutoffOverheadFloorNs
		return
	}
	// The lanes run the body concurrently, so the sink is atomic.
	var sink atomic.Int64
	for t := 0; t < cutoffCalibrationTrials; t++ {
		t0 := time.Now()
		r.For(n, 0, func(i int) { sink.Add(int64(i)) })
		if d := float64(time.Since(t0)); d < best {
			best = d
		}
	}
	if best < cutoffOverheadFloorNs {
		best = cutoffOverheadFloorNs
	}
	r.overhead.ns = best
}

// effectiveParallelism is the lane count that can actually run
// simultaneously: the runtime's width clamped by GOMAXPROCS. A
// runtime wider than the scheduler's P count just time-slices; extra
// lanes add coordination cost without adding throughput.
func (r *Runtime) effectiveParallelism() int {
	p := r.Parallelism()
	if g := runtime.GOMAXPROCS(0); g < p {
		p = g
	}
	return p
}

// ParallelWorth reports whether a region of roughly ops units of work
// (flops, touched nonzeros, moved floats — anything on the order of
// nanoseconds each) would finish sooner split over this runtime's
// lanes than run inline by the caller. False whenever fewer than two
// lanes can truly run at once.
func (r *Runtime) ParallelWorth(ops int64) bool {
	if ops <= 0 {
		return false
	}
	p := r.effectiveParallelism()
	if p < 2 {
		return false
	}
	serialNs := float64(ops) * cutoffNsPerOp
	savedNs := serialNs * (1.0 - 1.0/float64(p))
	return savedNs >= cutoffGainFactor*r.RegionOverheadNs()
}

// PiecesFor sizes a region: the number of contiguous pieces a loop of
// roughly ops units of work should be cut into, at most maxPar
// (<= 0 means no cap beyond the runtime's width). It returns 1 when
// the region is not worth opening at all (callers should then run the
// serial kernel inline and skip the runtime entirely), and otherwise
// never deals out pieces carrying less than cutoffMinPieceOps work.
func (r *Runtime) PiecesFor(ops int64, maxPar int) int {
	if !r.ParallelWorth(ops) {
		return 1
	}
	p := r.effectiveParallelism()
	if maxPar > 0 && maxPar < p {
		p = maxPar
	}
	if byWork := ops / cutoffMinPieceOps; byWork < int64(p) {
		p = int(byWork)
	}
	if p < 1 {
		p = 1
	}
	return p
}
