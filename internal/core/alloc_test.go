//go:build !race

// Allocation counts live behind !race: under the race detector
// sync.Pool drops objects at random, so the runtime's pooled regions
// would allocate.

package core

import (
	"math"
	"runtime"
	"testing"

	"javelin/internal/gen"
	"javelin/internal/sparse"
)

// TestRefactorizeAllocationsPerCall: a warm Refactorize makes as many
// allocations on TetraMesh(6,6,6) as on a matrix four times larger,
// under every lower method at Threads 1 and 2, because its scratch
// (one lane per thread) is allocated per call, never per row or
// level. testing.AllocsPerRun runs at GOMAXPROCS=1, where the cost
// model keeps every stage inline, so the dispatched routes are counted
// separately: every stage forced parallel, at the process's
// GOMAXPROCS, taking the fewest allocations of ten calls (a sync.Pool
// miss or another goroutine's allocation, such as a parking worker's
// wait record, can only add).
func TestRefactorizeAllocationsPerCall(t *testing.T) {
	small := gen.TetraMesh(6, 6, 6, 0x31)
	large := gen.TetraMesh(24, 6, 6, 0x31)
	for _, threads := range []int{1, 2} {
		for _, method := range []LowerMethod{LowerNone, LowerER, LowerSR} {
			var inline, dispatched [2]uint64
			for i, a := range []*sparse.CSR{small, large} {
				opt := DefaultOptions()
				opt.Threads = threads
				opt.Lower = method
				e, err := Factorize(a, opt)
				if err != nil {
					t.Fatal(err)
				}
				refactorize := func() {
					if err := e.Refactorize(a); err != nil {
						t.Fatal(err)
					}
				}
				refactorize() // the second value buffer
				refactorize()
				inline[i] = uint64(testing.AllocsPerRun(10, refactorize))
				e.factorOps = math.MaxInt64 / 2
				// Finish any GC cycle the earlier tests left pending
				// (it would empty the runtime's pools mid-trial), then
				// warm the pools.
				runtime.GC()
				refactorize()
				dispatched[i] = math.MaxUint64
				var ms runtime.MemStats
				for trial := 0; trial < 10; trial++ {
					runtime.ReadMemStats(&ms)
					before := ms.Mallocs
					refactorize()
					runtime.ReadMemStats(&ms)
					dispatched[i] = min(dispatched[i], ms.Mallocs-before)
				}
				e.Close()
			}
			if inline[0] != inline[1] {
				t.Errorf("threads=%d %v: inline Refactorize allocates %d objects on n=%d, %d on n=%d",
					threads, method, inline[0], small.N, inline[1], large.N)
			}
			if dispatched[0] != dispatched[1] {
				t.Errorf("threads=%d %v: dispatched Refactorize allocates %d objects on n=%d, %d on n=%d",
					threads, method, dispatched[0], small.N, dispatched[1], large.N)
			}
			t.Logf("threads=%d %v: %d objects inline, %d dispatched", threads, method, inline[0], dispatched[0])
		}
	}
}

// TestPhasedApplyAllocations: a warm Apply on the phased route
// allocates nothing. Its region bodies are bound when the context is
// made, and the region itself comes from the runtime's pool. The count
// is the fewest allocations of ten calls, as in
// TestRefactorizeAllocationsPerCall's dispatched route.
func TestPhasedApplyAllocations(t *testing.T) {
	a := gen.TetraMesh(8, 8, 8, 0x31)
	for _, method := range []LowerMethod{LowerNone, LowerER, LowerSR} {
		opt := DefaultOptions()
		opt.Threads = 2
		opt.Lower = method
		opt.Split.MinRowsPerLevel = 8
		e, err := Factorize(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		forceSolveRoute(e, true)
		c := e.NewContext()
		r := make([]float64, a.N)
		for i := range r {
			r[i] = 1
		}
		z := make([]float64, a.N)
		runtime.GC()
		c.Apply(r, z)
		fewest := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for trial := 0; trial < 10; trial++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			c.Apply(r, z)
			runtime.ReadMemStats(&ms)
			fewest = min(fewest, ms.Mallocs-before)
		}
		e.Close()
		if fewest != 0 {
			t.Errorf("%v: a warm phased Apply allocates %d objects, want 0", method, fewest)
		}
	}
}
