// Package p2p implements the point-to-point synchronization scheme of
// Park et al. that Javelin uses in place of per-level barriers
// (paper Section III-A, Fig. 4).
//
// Rows of each level are dealt to worker threads in contiguous blocks.
// Because a worker processes its rows in ascending (level, deal)
// order, the assignment induces an implied total order per worker:
// when worker t has published progress counter c, every row dealt to
// t with deal index < c is complete. The full dependency set of a row
// is therefore pruned to at most one wait per producing worker — the
// maximum deal index among its dependencies on that worker — and
// waits become cheap spins on per-worker atomic counters, letting fast
// threads run ahead of slow ones instead of stalling at a barrier.
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

// Schedule is a p2p execution plan: an assignment of rows to workers,
// pruned dependency lists, and the per-worker progress counters of the
// sweep in flight. Build it once per (pattern, workers) and Run it any
// number of times, one sweep at a time.
type Schedule struct {
	Workers int
	// rt executes the sweeps: each Run is one gang of Workers pieces
	// on the persistent runtime (no per-call goroutines).
	rt *exec.Runtime
	// RowOf[w] lists the rows of worker w in execution order
	// (level-major, dealt in contiguous blocks within each level).
	RowOf [][]int

	ownerOf []int32 // -1 when the row is not scheduled
	seqOf   []int32

	// Pruned dependencies, flattened per worker: for worker w's k-th
	// row, entries depPtr[w][k] .. depPtr[w][k+1] are indices into
	// depW/depS giving (producer worker, required sequence).
	depPtr [][]int32
	depW   [][]int32
	depS   [][]int32

	// progress[w] is the number of rows worker w has completed in the
	// running sweep.
	progress []paddedCounter
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
		Workers:  workers,
		rt:       rt,
		RowOf:    make([][]int, workers),
		ownerOf:  make([]int32, n),
		seqOf:    make([]int32, n),
		depPtr:   make([][]int32, workers),
		depW:     make([][]int32, workers),
		depS:     make([][]int32, workers),
		progress: make([]paddedCounter, workers),
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
	return s
}

// Run executes body(w, row) for every scheduled row as one gang of
// Workers pieces on the schedule's runtime, honoring all dependencies
// via p2p spin waits; w is the worker that owns the row, so body may
// index per-worker scratch by it. The gang guarantee (all pieces
// running at once) is what makes the spin waits safe; concurrent gangs
// over a shared runtime are admission-controlled, not deadlocked. body
// must complete the row before returning. A Schedule must not be run
// concurrently with itself.
func (s *Schedule) Run(body func(w, row int)) {
	for i := range s.progress {
		s.progress[i].v.Store(0)
	}
	if s.Workers == 1 {
		s.runWorker(0, body)
		return
	}
	s.rt.Gang(s.Workers, func(w int) {
		s.runWorker(w, body)
	})
}

func (s *Schedule) runWorker(w int, body func(w, row int)) {
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
			for s.progress[ow].v.Load() < need {
				spins++
				if spins > 512 && spins&63 == 0 {
					runtime.Gosched()
				}
			}
		}
		body(w, row)
		s.progress[w].v.Store(int64(k + 1))
	}
}
