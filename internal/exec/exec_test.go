package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
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
