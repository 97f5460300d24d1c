//go:build !race

// These tests time the workers' idle budget, so they are left out of
// -race builds, whose instrumentation stretches every gap they
// measure. Run them with two Ps:
//
//	GOMAXPROCS=2 go test -count=3 -run IdleSpin ./internal/exec

package exec

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// busyWait spins on the calling goroutine for d without yielding its P.
func busyWait(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// cpuStallUs returns the machine's cumulative CPU pressure stall time
// in microseconds: the total of the "some" line of /proc/pressure/cpu,
// time during which a runnable task waited for a CPU. It returns -1
// where the kernel does not report it.
func cpuStallUs() int64 {
	b, err := os.ReadFile("/proc/pressure/cpu")
	if err != nil {
		return -1
	}
	_, rest, _ := strings.Cut(string(b), "total=")
	f := strings.Fields(rest)
	if len(f) == 0 {
		return -1
	}
	us, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return -1
	}
	return us
}

// TestIdleSpinShortGapsDoNotPark: regions separated by gaps well under
// IdleSpin, as a solve's matvecs, reductions and sweeps are, find the
// worker still polling instead of parked.
//
// The budget is wall-clock time, so a worker whose thread waits for a
// CPU longer than the budget parks, as it should. An attempt therefore
// counts only if no task on the machine waited for a CPU for as long
// as one gap while it ran (where the kernel reports CPU pressure), and
// the median of three counted attempts decides.
func TestIdleSpinShortGapsDoNotPark(t *testing.T) {
	const regions, attempts, maxParks = 50, 3, 5
	gap := IdleSpin / 5
	var parks []uint64
	for deadline := time.Now().Add(500 * time.Millisecond); len(parks) < attempts; {
		if time.Now().After(deadline) {
			t.Skipf("CPUs busy: %d of %d attempts ran without a task waiting %v for a CPU", len(parks), attempts, gap)
		}
		stall := cpuStallUs()
		r := New(2)
		for i := 0; i < regions; i++ {
			r.For(2, 2, func(int, int) { busyWait(20 * time.Microsecond) })
			busyWait(gap)
		}
		n := r.Stats().Parks
		r.Close()
		if stall >= 0 && cpuStallUs()-stall >= gap.Microseconds() {
			continue
		}
		parks = append(parks, n)
	}
	slices.Sort(parks)
	if m := parks[attempts/2]; m > maxParks {
		t.Fatalf("worker parked %v times in %d regions %v apart (median %d), want at most %d",
			parks, regions, gap, m, maxParks)
	}
}

// TestIdleSpinIdleWorkerParks: once no region has opened for longer
// than IdleSpin, the worker parks instead of polling forever.
func TestIdleSpinIdleWorkerParks(t *testing.T) {
	r := New(2)
	defer r.Close()
	r.For(2, 2, func(int, int) {})
	for deadline := time.Now().Add(time.Second); r.Stats().Parks == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("worker idle for 1s without parking (IdleSpin %v)", IdleSpin)
		}
		time.Sleep(IdleSpin)
	}
}

// TestIdleSpinCloseDoesNotWaitOutSpin: Close stops a polling worker at
// its next poll; waiting out the idle budget would take IdleSpin per
// Close.
func TestIdleSpinCloseDoesNotWaitOutSpin(t *testing.T) {
	const cycles = 100
	start := time.Now()
	for i := 0; i < cycles; i++ {
		r := New(2)
		r.For(2, 2, func(int, int) {})
		r.Close()
	}
	if took, limit := time.Since(start), cycles*IdleSpin/2; took >= limit {
		t.Fatalf("%d New/For/Close cycles took %v, want under %v", cycles, took, limit)
	}
}
