// Package p2p implements the point-to-point synchronization scheme of
// Park et al. that Javelin uses in place of per-level barriers
// (paper Section III-A, Fig. 4).
//
// Rows of each level are dealt round-robin to worker threads. Because
// a worker processes its rows in ascending (level, deal) order, the
// assignment induces an implied total order per worker: when worker t
// has published progress counter c, every row dealt to t with deal
// index < c is complete. The full dependency set of a row is therefore
// pruned to at most one wait per producing worker — the maximum deal
// index among its dependencies on that worker — and waits become cheap
// spins on per-worker atomic counters, letting fast threads run ahead
// of slow ones instead of stalling at a barrier.
package p2p

import (
	"runtime"
	"sync/atomic"

	"javelin/internal/exec"
)

// cacheLinePad separates per-worker counters to avoid false sharing;
// 64 bytes is the common x86 line, 128 covers adjacent-line prefetch.
const cacheLinePad = 128

type paddedCounter struct {
	v atomic.Int64
	_ [cacheLinePad - 8]byte
}

// DepFunc enumerates the dependency rows of a row by calling emit for
// each. Dependencies outside the scheduled row set are ignored.
type DepFunc func(row int, emit func(dep int))

// Schedule is a p2p execution plan: an assignment of rows to workers
// and pruned dependency lists. The plan itself is immutable after
// NewSchedule; all per-execution state (the per-worker progress
// counters) lives in Run objects, so any number of concurrent
// executions can share one plan — build once per (pattern, workers),
// then either call Schedule.Run (convenience, one execution at a
// time) or give each goroutine its own NewRun.
type Schedule struct {
	Workers int
	// rt executes the sweeps: each Execute is one gang of Workers
	// pieces on the persistent runtime (no per-call goroutines).
	rt *exec.Runtime
	// RowOf[w] lists the rows of worker w in execution order
	// (level-major, round-robin dealt within each level).
	RowOf [][]int

	ownerOf []int32 // -1 when the row is not scheduled
	seqOf   []int32

	// Pruned dependencies, flattened per worker: for worker w's k-th
	// row, entries depPtr[w][k] .. depPtr[w][k+1] are indices into
	// depW/depS giving (producer worker, required sequence).
	depPtr [][]int32
	depW   [][]int32
	depS   [][]int32

	// defaultRun backs the Schedule.Run convenience method; concurrent
	// executions must use separate NewRun objects instead.
	defaultRun *Run
}

// Run holds the mutable state of one Schedule execution: the
// per-worker published progress counters. A Run may be reused for any
// number of sequential executions; distinct Runs over the same
// Schedule may execute concurrently (each goroutine needs its own).
type Run struct {
	s        *Schedule
	progress []paddedCounter
}

// NewRun creates an independent execution state for the schedule.
func (s *Schedule) NewRun() *Run {
	return &Run{s: s, progress: make([]paddedCounter, s.Workers)}
}

// NewSchedule builds a plan for rows grouped into levels (levels[l] is
// the slice of row ids in level l; rows within a level must be
// mutually independent). n is the total row-id space (ids < n). deps
// enumerates each row's dependency rows; dependencies on rows not
// present in levels are ignored (the caller guarantees they complete
// before Run starts — e.g. upper-stage rows during a lower-stage run).
// rt is the execution runtime the sweeps run on (nil means the
// process-wide default); size it to at least workers lanes or every
// sweep falls back to spawning goroutines.
func NewSchedule(rt *exec.Runtime, levels [][]int, n, workers int, deps DepFunc) *Schedule {
	if workers < 1 {
		workers = 1
	}
	if rt == nil {
		rt = exec.Default()
	}
	s := &Schedule{
		Workers: workers,
		rt:      rt,
		RowOf:   make([][]int, workers),
		ownerOf: make([]int32, n),
		seqOf:   make([]int32, n),
		depPtr:  make([][]int32, workers),
		depW:    make([][]int32, workers),
		depS:    make([][]int32, workers),
	}
	for i := range s.ownerOf {
		s.ownerOf[i] = -1
	}
	// Deal each level's rows to workers in contiguous blocks: adjacent
	// rows share cache lines of the solution/factor arrays, so blocked
	// dealing avoids the false sharing a round-robin deal would cause,
	// while still inducing the per-worker implied order the pruning
	// relies on.
	for _, rows := range levels {
		nr := len(rows)
		chunk := (nr + workers - 1) / workers
		if chunk < 1 {
			chunk = 1
		}
		for k, r := range rows {
			w := k / chunk
			if w >= workers {
				w = workers - 1
			}
			s.ownerOf[r] = int32(w)
			s.seqOf[r] = int32(len(s.RowOf[w]))
			s.RowOf[w] = append(s.RowOf[w], r)
		}
	}
	// Prune: per row, keep only the max sequence per producing worker;
	// drop same-worker dependencies (implied by program order).
	maxSeq := make([]int32, workers)
	for w := 0; w < workers; w++ {
		s.depPtr[w] = make([]int32, len(s.RowOf[w])+1)
		for k, r := range s.RowOf[w] {
			for i := range maxSeq {
				maxSeq[i] = -1
			}
			deps(r, func(dep int) {
				if dep < 0 || dep >= n {
					return
				}
				ow := s.ownerOf[dep]
				if ow < 0 {
					return
				}
				if os := s.seqOf[dep]; os > maxSeq[ow] {
					maxSeq[ow] = os
				}
			})
			for ow := 0; ow < workers; ow++ {
				if ms := maxSeq[ow]; ms >= 0 && ow != w {
					s.depW[w] = append(s.depW[w], int32(ow))
					s.depS[w] = append(s.depS[w], ms)
				}
			}
			s.depPtr[w][k+1] = int32(len(s.depW[w]))
		}
	}
	s.defaultRun = s.NewRun()
	return s
}

// Run executes body(row) for every scheduled row on the schedule's
// built-in default Run. It is the convenience path for single-caller
// use; for concurrent executions over one schedule, give each caller
// its own NewRun and call Execute on it.
func (s *Schedule) Run(body func(row int)) {
	s.defaultRun.Execute(body)
}

// Execute runs body(row) for every scheduled row as one gang of
// Workers pieces on the schedule's runtime, honoring all dependencies
// via p2p spin waits. The gang guarantee (all pieces running at once)
// is what makes the spin waits safe; concurrent Executes over a
// shared runtime are admission-controlled, not deadlocked. body must
// complete the row before returning. A Run must not be executed
// concurrently with itself.
func (r *Run) Execute(body func(row int)) {
	for i := range r.progress {
		r.progress[i].v.Store(0)
	}
	s := r.s
	if s.Workers == 1 {
		r.runWorker(0, body)
		return
	}
	s.rt.Gang(s.Workers, func(w int) {
		r.runWorker(w, body)
	})
}

func (r *Run) runWorker(w int, body func(row int)) {
	s := r.s
	rows := s.RowOf[w]
	depPtr, depW, depS := s.depPtr[w], s.depW[w], s.depS[w]
	for k, row := range rows {
		for d := depPtr[k]; d < depPtr[k+1]; d++ {
			ow, need := depW[d], int64(depS[d])+1
			// Two-phase wait: a short tight spin catches the common
			// case (producer a few rows ahead) with minimal latency;
			// afterwards, periodic yields keep waiters from hammering
			// the producer's cache line and from starving runnable
			// goroutines when workers exceed cores.
			spins := 0
			for r.progress[ow].v.Load() < need {
				spins++
				if spins > 512 && spins&63 == 0 {
					runtime.Gosched()
				}
			}
		}
		body(row)
		r.progress[w].v.Store(int64(k + 1))
	}
}
