package bench

import (
	"fmt"
	"math"
	"testing"

	"javelin/internal/core"
	"javelin/internal/gen"
	"javelin/internal/krylov"
	"javelin/internal/util"
)

// Golden convergence trajectories, recorded with one thread before
// the kernel dispatch layer existed. The values are float64 bit
// patterns of the first monitored residuals and of the solution
// checksum, per matrix. Every thread count must reproduce them exactly: the kernel tables keep the reference summation order,
// the factor values do not depend on the thread count, both triangular
// sweeps are plain substitution on every route, and the thread count
// and the live solve route only choose between inline and parallel
// execution of the same arithmetic — neither moves a solve onto a
// different numeric path. Any machine must reproduce these bits,
// whatever its P count: nothing here depends on scheduling.
type goldenCase struct {
	matrix string
	sum    uint64
	traj   []uint64
}

var goldenPR5 = []goldenCase{
	{"wang3", 0x402e03d80f7f8183, []uint64{0x3ff0000000000000, 0x3fbc0371847d3355, 0x3f9968d86cff41e7, 0x3f7893c3ef580595, 0x3f5b89c1da2a2a73, 0x3f35de05fd9225e4}},
	{"scircuit", 0x403b9eb9318257fd, []uint64{0x3ff0000000000000, 0x3fb7d1d2b66a9d48, 0x3f8e37dce7ce59ee, 0x3f63dd91e5f30ae0, 0x3f3d816e343ec8df, 0x3f141d01cd656f84}},
	{"ecology2", 0xc0d8e29d11380e26, []uint64{0x3ff0000000000000, 0x3fd37319b8dc9628, 0x3fd10df1c4c7b4fd, 0x3fca8cac7a8b51aa, 0x3fc6f897cdaa1a50, 0x3fc3f4b6d7ac2c8f}},
	{"TSOPF_RS_b300_c2", 0x4011c4adf1bbea89, []uint64{0x3fc5e4b9201dfe05, 0x3f44b77f34f5a516, 0x3ec6e002b68311bf, 0x3e48173a5700daeb, 0x3dcaa04f7fd51c4e}},
}

func goldenSpec(t *testing.T, name string) gen.Spec {
	t.Helper()
	for _, s := range gen.Suite() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("suite has no matrix %q", name)
	return gen.Spec{}
}

// TestGoldenTrajectoriesPR5 pins the solver trajectories to the
// pre-refactor 1-thread bits at 1, 2 and 8 threads.
func TestGoldenTrajectoriesPR5(t *testing.T) {
	insts := map[string]Instance{}
	for _, gc := range goldenPR5 {
		for _, threads := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/%dT", gc.matrix, threads), func(t *testing.T) {
				testGolden(t, gc, threads, insts)
			})
		}
	}
}

// testGolden factors gc's matrix at the given thread count and checks
// its solver trajectory and solution checksum against gc's bits.
func testGolden(t *testing.T, gc goldenCase, threads int, insts map[string]Instance) {
	inst, ok := insts[gc.matrix]
	if !ok {
		inst = BuildInstance(goldenSpec(t, gc.matrix), 0.02, true)
		insts[gc.matrix] = inst
	}
	a := inst.A
	opt := core.DefaultOptions()
	opt.Threads = threads
	e, err := core.Factorize(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	b := make([]float64, a.N)
	rng := util.NewRNG(12345)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, a.N)
	var traj []float64
	kopt := krylov.Options{Tol: 1e-10, MaxIter: 40, Threads: threads, Runtime: e.Runtime(),
		Monitor: func(it krylov.IterInfo) bool {
			if len(traj) < 6 {
				traj = append(traj, it.Residual)
			}
			return true
		}}
	pc := e.NewContext()
	if a.PatternSymmetric() {
		_, err = krylov.CG(a, pc, b, x, kopt)
	} else {
		_, err = krylov.GMRES(a, pc, b, x, kopt)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range gc.traj {
		if i >= len(traj) {
			t.Fatalf("trajectory too short: %d monitored, want >= %d", len(traj), len(gc.traj))
		}
		if got := math.Float64bits(traj[i]); got != want {
			t.Errorf("iteration %d residual bits: got %016x want %016x (value %g)", i, got, want, traj[i])
		}
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if got := math.Float64bits(sum); got != gc.sum {
		t.Errorf("solution checksum bits: got %016x want %016x (value %g)", got, gc.sum, sum)
	}
}
