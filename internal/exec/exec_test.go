package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversRangeOnce(t *testing.T) {
	r := New(4)
	defer r.Close()
	for _, n := range []int{1, 2, 7, 100, 1777} {
		for _, par := range []int{1, 2, 4, 8, 0} {
			hits := make([]atomic.Int32, n)
			r.For(n, par, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("n=%d par=%d: index %d hit %d times", n, par, i, hits[i].Load())
				}
			}
		}
	}
}

func TestForEmptyAndSmall(t *testing.T) {
	r := New(4)
	defer r.Close()
	r.For(0, 4, func(int) { t.Error("body called for n=0") })
	r.Ranges(0, 4, func(int, int, int) { t.Error("body called for n=0") })
	ran := false
	r.For(1, 8, func(i int) { ran = true })
	if !ran {
		t.Fatal("n=1 not run")
	}
}

func TestRangesCoverAndSkipEmpty(t *testing.T) {
	r := New(4)
	defer r.Close()
	// pieces > n: the trailing empty pieces must never invoke body.
	n, pieces := 3, 8
	covered := make([]atomic.Int32, n)
	var calls atomic.Int32
	r.Ranges(n, pieces, func(p, lo, hi int) {
		calls.Add(1)
		if lo >= hi {
			t.Errorf("empty range delivered: piece %d [%d,%d)", p, lo, hi)
		}
		if p < 0 || p >= pieces {
			t.Errorf("piece index %d out of range", p)
		}
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
	if calls.Load() > int32(n) {
		t.Fatalf("%d body calls for %d non-empty pieces", calls.Load(), n)
	}
}

func TestRangesDistinctPieceScratch(t *testing.T) {
	r := New(4)
	defer r.Close()
	n, pieces := 1000, 4
	scratch := make([][]int, pieces)
	r.Ranges(n, pieces, func(p, lo, hi int) {
		for i := lo; i < hi; i++ {
			scratch[p] = append(scratch[p], i)
		}
	})
	total := 0
	for _, s := range scratch {
		total += len(s)
	}
	if total != n {
		t.Fatalf("pieces covered %d of %d", total, n)
	}
}

func TestConcurrentRegionsShareRuntime(t *testing.T) {
	r := New(4)
	defer r.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				r.For(100, 4, func(i int) { total.Add(1) })
			}
		}()
	}
	wg.Wait()
	if total.Load() != 8*50*100 {
		t.Fatalf("total %d", total.Load())
	}
}

func TestMixedConstructsConcurrently(t *testing.T) {
	r := New(4)
	defer r.Close()
	var wg sync.WaitGroup
	var forTotal, rangesTotal atomic.Int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		for rep := 0; rep < 30; rep++ {
			r.For(64, 4, func(i int) { forTotal.Add(1) })
		}
	}()
	go func() {
		defer wg.Done()
		for rep := 0; rep < 30; rep++ {
			r.Ranges(16, 4, func(piece, lo, hi int) { rangesTotal.Add(int64(hi - lo)) })
		}
	}()
	wg.Wait()
	if forTotal.Load() != 30*64 || rangesTotal.Load() != 30*16 {
		t.Fatalf("for=%d ranges=%d", forTotal.Load(), rangesTotal.Load())
	}
}

func TestParallelismFloorAndDefault(t *testing.T) {
	r := New(1)
	defer r.Close()
	if r.Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d, want 1", r.Parallelism())
	}
	ran := false
	r.For(1, 4, func(i int) { ran = true })
	if !ran {
		t.Fatal("inline region did not run")
	}
	if Default() != Default() {
		t.Fatal("Default() not a singleton")
	}
	if got := Default().Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default parallelism %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	r := New(4)
	var count atomic.Int64
	r.For(100, 4, func(i int) { count.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Close()
		}()
	}
	wg.Wait()
	r.Close()
	if count.Load() != 100 {
		t.Fatalf("ran %d", count.Load())
	}
}

// TestClosedRuntimeDegrades: regions opened after Close must still
// complete correctly, driven by the caller alone.
func TestClosedRuntimeDegrades(t *testing.T) {
	r := New(4)
	r.Close()
	var count atomic.Int64
	r.For(100, 4, func(i int) { count.Add(1) })
	r.Ranges(20, 4, func(piece, lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 120 {
		t.Fatalf("count=%d", count.Load())
	}
}

// TestNoGoroutineGrowthWhenWarm is the runtime-level half of the
// acceptance criterion: repeated regions on a warm runtime must not
// spawn goroutines.
func TestNoGoroutineGrowthWhenWarm(t *testing.T) {
	r := New(4)
	defer r.Close()
	warm := func() {
		r.For(256, 4, func(i int) {})
		r.Ranges(256, 4, func(piece, lo, hi int) {})
	}
	warm()
	before := runtime.NumGoroutine()
	for rep := 0; rep < 100; rep++ {
		warm()
	}
	after := runtime.NumGoroutine()
	if after > before {
		t.Fatalf("goroutines grew from %d to %d across warm regions", before, after)
	}
}

// phaseGate returns the gate of consecutive phases of the given sizes:
// each piece waits on every piece of the phases before its own.
func phaseGate(sizes ...int) []int32 {
	var gate []int32
	for _, s := range sizes {
		first := int32(len(gate))
		for k := 0; k < s; k++ {
			gate = append(gate, first)
		}
	}
	return gate
}

// TestPhasesRunsEachPieceOnceAfterItsGate: every piece runs exactly
// once and starts only when at least gate[i] pieces have finished, on
// phase gates of uneven sizes, an all-zero gate (a plain loop), one
// piece per phase, and a sliding gate that is not a phase structure.
// On the phase gates no piece starts before every piece of the earlier
// phases has finished.
func TestPhasesRunsEachPieceOnceAfterItsGate(t *testing.T) {
	sliding := make([]int32, 40)
	for i := range sliding {
		sliding[i] = int32(max(0, i-3))
	}
	gates := []struct {
		name   string
		gate   []int32
		phased bool
	}{
		{"uneven", phaseGate(3, 1, 5, 2, 1, 7, 4), true},
		{"all-zero", make([]int32, 33), true},
		{"one-per-phase", phaseGate(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), true},
		{"sliding", sliding, false},
	}
	for _, lanes := range []int{1, 2, 4} {
		r := New(lanes)
		for _, g := range gates {
			for _, maxPar := range []int{0, 1, 2, 8} {
				n := len(g.gate)
				runs := make([]atomic.Int32, n)
				finished := make([]atomic.Bool, n)
				var done atomic.Int32
				var sink atomic.Uint64
				r.Phases(g.gate, maxPar, func(_, i int) {
					if got := done.Load(); got < g.gate[i] {
						t.Errorf("lanes=%d %s maxPar=%d: piece %d started after %d pieces finished, gate %d",
							lanes, g.name, maxPar, i, got, g.gate[i])
					}
					if g.phased {
						for j := 0; j < int(g.gate[i]); j++ {
							if !finished[j].Load() {
								t.Errorf("lanes=%d %s maxPar=%d: piece %d started before piece %d of an earlier phase finished",
									lanes, g.name, maxPar, i, j)
							}
						}
					}
					// Uneven cost, so that lanes overtake each other.
					x := uint64(i)
					for k := 0; k < 200*(1+i%5); k++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
					sink.Add(x)
					runs[i].Add(1)
					finished[i].Store(true)
					done.Add(1)
				})
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("lanes=%d %s maxPar=%d: piece %d ran %d times, want 1", lanes, g.name, maxPar, i, got)
					}
				}
			}
		}
		r.Close()
	}
	New(2).Phases(nil, 0, func(int, int) { t.Error("body called for an empty gate") })
}

// TestPhasesLanesAreExclusive: every piece runs exactly once, on a
// lane below min(maxPar, Parallelism(), pieces), and no two pieces run
// on one lane at once, so a body may own scratch per lane. The gates
// are 101 pieces in phases of uneven sizes, 101 pieces in one phase,
// and two gates with fewer pieces than most runtimes have lanes.
func TestPhasesLanesAreExclusive(t *testing.T) {
	gates := [][]int32{
		phaseGate(20, 1, 30, 7, 1, 40, 2),
		make([]int32, 101),
		phaseGate(2),
		phaseGate(1, 2),
	}
	for _, lanes := range []int{2, 4, 8} {
		r := New(lanes)
		for _, gate := range gates {
			for _, maxPar := range []int{0, 1, 2, 3} {
				n := len(gate)
				limit := min(lanes, n)
				if maxPar > 0 {
					limit = min(limit, maxPar)
				}
				runs := make([]atomic.Int32, n)
				busy := make([]atomic.Bool, lanes)
				var outside, shared atomic.Int32
				var sink atomic.Uint64
				r.Phases(gate, maxPar, func(lane, i int) {
					runs[i].Add(1)
					if lane < 0 || lane >= limit {
						outside.Add(1)
						return
					}
					if !busy[lane].CompareAndSwap(false, true) {
						shared.Add(1)
						return
					}
					// Uneven cost: every seventh piece does 100× the work.
					work := 100
					if i%7 == 0 {
						work = 10000
					}
					x := uint64(i)
					for k := 0; k < work; k++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
					sink.Add(x)
					busy[lane].Store(false)
				})
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("lanes=%d pieces=%d maxPar=%d: piece %d ran %d times, want 1", lanes, n, maxPar, i, got)
					}
				}
				if k := outside.Load(); k != 0 {
					t.Fatalf("lanes=%d pieces=%d maxPar=%d: %d pieces ran on a lane outside [0, %d)", lanes, n, maxPar, k, limit)
				}
				if k := shared.Load(); k != 0 {
					t.Fatalf("lanes=%d pieces=%d maxPar=%d: %d pieces started on a lane already in use", lanes, n, maxPar, k)
				}
			}
		}
		r.Close()
	}
}

// TestPhasesGateHoldsBackLaterPhases: while one lane runs a piece of
// the first phase, the lane that finished the phase's other piece does
// not start a piece of the second phase.
func TestPhasesGateHoldsBackLaterPhases(t *testing.T) {
	r := New(2)
	defer r.Close()
	var started [4]atomic.Bool
	r.Phases(phaseGate(2, 2), 2, func(_, i int) {
		started[i].Store(true)
		if i != 0 {
			return
		}
		// Piece 1 can only run on the other lane while this one is
		// here; once it has, that lane is free to reach for phase two.
		for t0 := time.Now(); !started[1].Load(); runtime.Gosched() {
			if time.Since(t0) > 10*time.Second {
				t.Error("no second lane ran piece 1 within 10 s")
				return
			}
		}
		for t0 := time.Now(); time.Since(t0) < 5*time.Millisecond; runtime.Gosched() {
			if started[2].Load() || started[3].Load() {
				t.Error("a piece of the second phase started before the first phase finished")
				return
			}
		}
	})
}

// TestPhasesCallerPanicReleasesWorkers: a panic in a body the caller
// runs reaches the caller, and the worker that finished the first
// phase's other piece, now waiting on a gate the panicked piece would
// have opened, leaves the region: the runtime runs the next region
// and Close returns.
func TestPhasesCallerPanicReleasesWorkers(t *testing.T) {
	r := New(2)
	workerRan := make(chan struct{})
	var signal sync.Once
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want the caller's panic \"boom\"", p)
			}
		}()
		r.Phases([]int32{0, 0, 2, 2}, 2, func(lane, _ int) {
			if lane != 0 {
				signal.Do(func() { close(workerRan) })
				return
			}
			select {
			case <-workerRan:
			case <-time.After(5 * time.Second):
			}
			panic("boom")
		})
	}()
	within := func(what string, f func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5 s after a caller panic in a Phases region", what)
		}
	}
	var ran atomic.Int32
	within("For", func() { r.For(4, 2, func(int) { ran.Add(1) }) })
	if n := ran.Load(); n != 4 {
		t.Fatalf("For ran %d iterations, want 4", n)
	}
	within("Close", r.Close)
}

// TestPhasesCompletesWithBusyWorker: a Phases region finishes when the
// runtime's only worker is held in a blocked region, the caller
// running every piece alone, one after another, as lane 0.
func TestPhasesCompletesWithBusyWorker(t *testing.T) {
	r := New(2)
	defer r.Close()
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(2)
	sideDone := make(chan struct{})
	go func() {
		defer close(sideDone)
		r.Ranges(2, 2, func(int, int, int) {
			entered.Done()
			<-release
		})
	}()
	entered.Wait()

	gate := phaseGate(2, 2, 2, 2, 1, 2)
	runs := make([]atomic.Int32, len(gate))
	var busy, overlaps, offCaller atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Phases(gate, 2, func(lane, i int) {
			if busy.Add(1) != 1 {
				overlaps.Add(1)
			}
			if lane != 0 {
				offCaller.Add(1)
			}
			runs[i].Add(1)
			busy.Add(-1)
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		close(release)
		<-done
		t.Fatal("Phases did not return within 10 s while the runtime's only worker was busy")
	}
	close(release)
	<-sideDone
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("piece %d ran %d times, want 1", i, got)
		}
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d pieces overlapped another with the only worker busy", n)
	}
	if n := offCaller.Load(); n != 0 {
		t.Fatalf("%d pieces ran on a lane other than the caller's 0 with the only worker busy", n)
	}
}
