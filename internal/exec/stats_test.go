package exec

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestStatsCountsRegionsAndChunks(t *testing.T) {
	r := New(4)
	defer r.Close()
	s0 := r.Stats()

	const regions = 10
	n := 1000
	for i := 0; i < regions; i++ {
		r.For(n, 4, func(int, int) {})
	}
	d := r.Stats().Sub(s0)
	if d.Regions != regions {
		t.Fatalf("Regions = %d, want %d", d.Regions, regions)
	}
	// Every piece of a dispatched region is claimed and run exactly
	// once, and each counts one chunk.
	if d.Chunks != uint64(regions*n) {
		t.Fatalf("Chunks = %d, want %d", d.Chunks, regions*n)
	}
}

func TestStatsCountsInlineRegions(t *testing.T) {
	r := New(1) // no workers: every region runs inline
	defer r.Close()
	s0 := r.Stats()
	r.For(100, 8, func(int, int) {})
	r.Phases(make([]int32, 4), 4, func(int, int) {})
	r.For(0, 8, func(int, int) {}) // empty: not a region
	d := r.Stats().Sub(s0)
	if d.Regions != 2 {
		t.Fatalf("Regions = %d, want 2", d.Regions)
	}
	if d.Chunks == 0 {
		t.Fatalf("Chunks = 0, want > 0")
	}
}

func TestStatsParkWakeChurn(t *testing.T) {
	r := New(4)
	defer r.Close()
	// Let the workers go idle, then wake them with a region; repeat.
	// Parks/Wakes are timing-dependent, so require only that counters
	// stay consistent and eventually move.
	for i := 0; i < 20; i++ {
		r.For(64, 4, func(int, int) {})
	}
	s := r.Stats()
	if s.Wakes > 0 && s.Parks == 0 {
		t.Fatalf("Wakes %d with Parks 0", s.Wakes)
	}
	if s.Parks > 0 && s.SpinToParks == 0 {
		t.Fatalf("Parks %d with SpinToParks 0", s.Parks)
	}
}

func TestStatsDeltaAndConcurrentSnapshots(t *testing.T) {
	r := New(4)
	defer r.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // hammer snapshots while regions run (race check)
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Stats()
			}
		}
	}()
	s0 := r.Stats()
	for i := 0; i < 50; i++ {
		r.For(1000, 4, func(int, int) {})
	}
	close(stop)
	wg.Wait()
	d := r.Stats().Sub(s0)
	if d.Regions != 50 {
		t.Fatalf("delta Regions = %d, want 50", d.Regions)
	}
	if got := d.Sub(d); got != (Stats{}) {
		t.Fatalf("d.Sub(d) = %+v, want zero", got)
	}
}

func TestStatsStringListsEveryCounter(t *testing.T) {
	s := Stats{Regions: 1, Chunks: 2, StealAttempts: 4,
		StealSuccesses: 5, Gangs: 6, GangWaitNs: 7, Parks: 8, Wakes: 9,
		SpinToParks: 10}
	out := s.String()
	for _, want := range []string{"regions", "chunks",
		"steal_attempts", "steal_successes", "gangs", "gang_wait_ns",
		"parks", "wakes", "spin_to_parks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestLaneStatsPaddedToCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(laneStats{}); sz%64 != 0 {
		t.Fatalf("laneStats size %d is not a multiple of the cache line", sz)
	}
}

func TestStatsNarrowRuntimeLanes(t *testing.T) {
	// New(1) has zero workers; its inline regions are still counted.
	r := New(1)
	defer r.Close()
	r.For(10, 4, func(int, int) {})
	if got := r.Stats().Regions; got != 1 {
		t.Fatalf("Regions = %d, want 1", got)
	}
}
