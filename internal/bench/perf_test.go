//go:build !race

package bench

import (
	"testing"

	"javelin/internal/core"
	"javelin/internal/util"
)

// TestApplyTwoThreadOverhead pins the point of the inline solves:
// asking for 2 threads must never be catastrophically slower than the
// serial loop, even on matrices far too small to parallelize and on
// machines with one or two CPUs (where a p2p sweep's spin-waits cost
// more than its rows). The solves never dispatch, so at 2 threads the
// staged traversal runs inline and only the staging order itself
// differs from 1T. The bound is deliberately loose — it guards
// against re-introducing dispatched sweeps that lose, not against
// timer noise.
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
