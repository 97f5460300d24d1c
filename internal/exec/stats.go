package exec

import (
	"fmt"
	"sync/atomic"
)

// Stats is a snapshot of a Runtime's activity counters. It answers
// the capacity-planning questions a shared pool raises: how many
// regions are being opened, how evenly chunks spread (claim
// contention), and how much park/wake churn the spin-then-park
// workers see when the pool runs near idle or near saturation.
//
// Counters are cumulative since the Runtime was created. For a
// per-phase view, snapshot before and after and subtract:
//
//	before := rt.Stats()
//	...workload...
//	delta := rt.Stats().Sub(before)
//
// Collection is always on and cheap: every counted event is per
// region, never per piece, so the counters share one
// padded allocation written only by the goroutines opening regions
// (workers write none), and the park-path counters are plain fields
// bumped under r.mu. JSON tags give the snapshot stable snake_case
// names when an embedder marshals it (javelin.RuntimeStats).
type Stats struct {
	// Regions counts regions executed (For and Phases calls with at
	// least one piece), including ones that ran inline on the caller.
	Regions uint64 `json:"regions"`
	// Chunks counts pieces claimed off region cursors and run; a
	// region that ran inline on the caller counts one. Chunks/Regions
	// is the average fan-out actually realized.
	Chunks uint64 `json:"chunks"`
	// StealAttempts and StealSuccesses are always 0: the runtime has
	// no work-stealing scheduler (every region's pieces are known when
	// it opens and are claimed off one cursor). The fields remain only
	// so existing readers of the snapshot keep compiling.
	StealAttempts  uint64 `json:"steal_attempts"`
	StealSuccesses uint64 `json:"steal_successes"`
	// Gangs and GangWaitNs are always 0: the runtime has no gang
	// construct (the factor stages run level by level in one Phases
	// region). The fields remain only so existing readers of the
	// snapshot keep compiling.
	Gangs      uint64 `json:"gangs"`
	GangWaitNs uint64 `json:"gang_wait_ns"`
	// Parks counts worker transitions into the parked state (blocked
	// on the idle condvar); Wakes counts returns from it (spurious
	// wakes included). SpinToParks counts the times a worker found no
	// work for its whole idle budget (IdleSpin of wall-clock time
	// since its last claim or wake) and reached for the park lock,
	// whether or not it ended up waiting; a worker leaving a closed
	// runtime counts once too. High SpinToParks with few Parks means
	// work keeps arriving just as workers give up spinning: the pool
	// is near its churn point.
	Parks       uint64 `json:"parks"`
	Wakes       uint64 `json:"wakes"`
	SpinToParks uint64 `json:"spin_to_parks"`
}

// Sub returns the counter-wise difference s − prev: the activity
// between two snapshots of the same Runtime.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Regions:        s.Regions - prev.Regions,
		Chunks:         s.Chunks - prev.Chunks,
		StealAttempts:  s.StealAttempts - prev.StealAttempts,
		StealSuccesses: s.StealSuccesses - prev.StealSuccesses,
		Gangs:          s.Gangs - prev.Gangs,
		GangWaitNs:     s.GangWaitNs - prev.GangWaitNs,
		Parks:          s.Parks - prev.Parks,
		Wakes:          s.Wakes - prev.Wakes,
		SpinToParks:    s.SpinToParks - prev.SpinToParks,
	}
}

// String renders the snapshot as aligned "name value" lines, one
// counter per line (the format javelin-info/javelin-bench -stats
// print).
func (s Stats) String() string {
	return fmt.Sprintf(
		"regions         %d\n"+
			"chunks          %d\n"+
			"steal_attempts  %d\n"+
			"steal_successes %d\n"+
			"gangs           %d\n"+
			"gang_wait_ns    %d\n"+
			"parks           %d\n"+
			"wakes           %d\n"+
			"spin_to_parks   %d",
		s.Regions, s.Chunks, s.StealAttempts, s.StealSuccesses,
		s.Gangs, s.GangWaitNs, s.Parks, s.Wakes, s.SpinToParks)
}

// laneStats holds the atomic counters of the callers' lane: the
// goroutines that open regions. The padding rounds the struct to 128
// bytes (two cache lines: the adjacent-line prefetcher pulls pairs),
// so its own allocation shares no line with any other object.
type laneStats struct {
	regions atomic.Uint64
	chunks  atomic.Uint64
	_       [112]byte
}

// Stats returns a snapshot of the counters plus the mutex-guarded
// park-path counters. Safe to call at any time from any goroutine,
// including while regions are running; the snapshot is per-counter
// atomic, not globally consistent (a region may appear in Regions
// before its chunks land in Chunks).
func (r *Runtime) Stats() Stats {
	s := Stats{
		Regions: r.stats.regions.Load(),
		Chunks:  r.stats.chunks.Load(),
	}
	r.mu.Lock()
	s.Parks = r.pkParks
	s.Wakes = r.pkWakes
	s.SpinToParks = r.pkSpinToParks
	r.mu.Unlock()
	return s
}
