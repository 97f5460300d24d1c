package exec

import (
	"sync"
	"testing"
)

// The spawn benchmarks reproduce the pre-runtime ParallelFor (fresh
// goroutines + WaitGroup join per call) so the per-region saving of
// the persistent runtime stays measurable at small n, where spawn
// overhead used to dominate SpMV-bound paths.

func spawnedFor(n, threads int, body func(i int)) {
	if threads > n {
		threads = n
	}
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

func benchFor(b *testing.B, n int, warm bool) {
	x := make([]float64, n)
	body := func(i int) { x[i] += 1 }
	if warm {
		r := New(4)
		defer r.Close()
		piece := func(_, p int) {
			for i, hi := p*n/4, (p+1)*n/4; i < hi; i++ {
				body(i)
			}
		}
		r.For(4, 4, piece)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.For(4, 4, piece)
		}
		return
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spawnedFor(n, 4, body)
	}
}

func BenchmarkForWarmRuntimeN1e3(b *testing.B) { benchFor(b, 1000, true) }
func BenchmarkForSpawnedN1e3(b *testing.B)     { benchFor(b, 1000, false) }
func BenchmarkForWarmRuntimeN1e5(b *testing.B) { benchFor(b, 100000, true) }
func BenchmarkForSpawnedN1e5(b *testing.B)     { benchFor(b, 100000, false) }

// BenchmarkStatsSnapshot prices the Stats() snapshot itself (two
// atomic loads plus the park counters under r.mu) so the snapshot path
// stays cheap enough to poll from monitoring loops.
func BenchmarkStatsSnapshot(b *testing.B) {
	r := New(8)
	defer r.Close()
	r.For(8, 8, func(int, int) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Stats()
	}
}
