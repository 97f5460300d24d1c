//go:build !race

package bench

import (
	"testing"

	"javelin/internal/core"
	"javelin/internal/util"
)

// TestApplyTwoThreadOverhead pins the point of the probed solve
// route: asking for 2 threads must never be catastrophically slower
// than the serial loop, even on matrices far too small to parallelize
// and on machines with one or two CPUs (where waiting at a level
// barrier costs more than the level's rows). At 2 threads Factorize
// times the upper-stage sweep inline and phased and keeps the faster,
// and with one P it runs no probe and stays inline, so a 2T apply
// differs from 1T only in the staging order or where the phased
// route measured faster. The bound is deliberately loose — it guards
// against a route choice that loses, not against timer noise.
func TestApplyTwoThreadOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const maxRatio = 2.0
	for _, name := range []string{"wang3", "scircuit"} {
		inst := BuildInstance(goldenSpec(t, name), 0.02, true)
		a := inst.A
		r := make([]float64, a.N)
		rng := util.NewRNG(77)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		z := make([]float64, a.N)

		timeApply := func(threads int) int64 {
			opt := core.DefaultOptions()
			opt.Threads = threads
			e, err := core.Factorize(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ctx := e.NewContext()
			ctx.Apply(r, z) // warm caches
			return TimeBest(5, func() { ctx.Apply(r, z) }).Nanoseconds()
		}
		ns1 := timeApply(1)
		ns2 := timeApply(2)
		ratio := float64(ns2) / float64(ns1)
		t.Logf("%s: 1T apply %dns, 2T apply %dns (ratio %.2f)", name, ns1, ns2, ratio)
		if ratio > maxRatio {
			t.Errorf("%s: 2T apply %.2fx slower than 1T (limit %.1fx)", name, ratio, maxRatio)
		}
	}
}
