package p2p

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"javelin/internal/exec"
	"javelin/internal/gen"
	"javelin/internal/levelset"
	"javelin/internal/util"
)

// testRT is a shared wide runtime so schedules up to 8 workers run on
// persistent lanes rather than the spawn fallback.
var testRT = exec.New(9)

// buildFromMatrixLevels builds a schedule from a matrix's level sets,
// mirroring how the engine uses the package.
func buildFromMatrixLevels(n int, rowDeps [][]int, workers int) *Schedule {
	// compute levels
	lvl := make([]int, n)
	maxL := 0
	for i := 0; i < n; i++ {
		l := 0
		for _, d := range rowDeps[i] {
			if lvl[d]+1 > l {
				l = lvl[d] + 1
			}
		}
		lvl[i] = l
		if l > maxL {
			maxL = l
		}
	}
	levels := make([][]int, maxL+1)
	for i := 0; i < n; i++ {
		levels[lvl[i]] = append(levels[lvl[i]], i)
	}
	return NewSchedule(testRT, levels, n, workers, func(r int, emit func(int)) {
		for _, d := range rowDeps[r] {
			emit(d)
		}
	})
}

func TestScheduleRespectsDependencies(t *testing.T) {
	rng := util.NewRNG(1)
	n := 500
	deps := make([][]int, n)
	for i := 1; i < n; i++ {
		k := rng.Intn(4)
		for e := 0; e < k; e++ {
			deps[i] = append(deps[i], rng.Intn(i))
		}
	}
	for workers := 1; workers <= 8; workers *= 2 {
		s := buildFromMatrixLevels(n, deps, workers)
		done := make([]atomic.Bool, n)
		var violations atomic.Int64
		s.Run(func(_, r int) {
			for _, d := range deps[r] {
				if !done[d].Load() {
					violations.Add(1)
				}
			}
			done[r].Store(true)
		})
		if v := violations.Load(); v != 0 {
			t.Fatalf("workers=%d: %d dependency violations", workers, v)
		}
		for i := range done {
			if !done[i].Load() {
				t.Fatalf("workers=%d: row %d never ran", workers, i)
			}
		}
	}
}

func TestScheduleRunsEveryRowExactlyOnce(t *testing.T) {
	check := func(seed uint64) bool {
		rng := util.NewRNG(seed)
		n := 60 + rng.Intn(100)
		deps := make([][]int, n)
		for i := 1; i < n; i++ {
			for e := 0; e < rng.Intn(3); e++ {
				deps[i] = append(deps[i], rng.Intn(i))
			}
		}
		s := buildFromMatrixLevels(n, deps, 1+rng.Intn(7))
		counts := make([]atomic.Int64, n)
		var foreign atomic.Int64
		s.Run(func(w, r int) {
			counts[r].Add(1)
			if s.ownerOf[r] != int32(w) {
				foreign.Add(1)
			}
		})
		for i := range counts {
			if counts[i].Load() != 1 {
				return false
			}
		}
		// body's worker index is the row's owner.
		return foreign.Load() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPruningReducesDependencies(t *testing.T) {
	// On a mesh matrix, pruned deps must be at most (workers − 1) per
	// row and far fewer than the raw sub-diagonal nnz.
	a := gen.GridLaplacian(40, 40, 1, gen.Star5, 1)
	lv := levelset.Compute(a, levelset.LowerA)
	levels := make([][]int, lv.Count)
	for l := 0; l < lv.Count; l++ {
		levels[l] = append([]int(nil), lv.LevelRows(l)...)
	}
	workers := 4
	rawDeps := 0
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			if c < i {
				rawDeps++
			}
		}
	}
	s := NewSchedule(testRT, levels, a.N, workers, func(r int, emit func(int)) {
		cols, _ := a.Row(r)
		for _, c := range cols {
			if c >= r {
				break
			}
			emit(c)
		}
	})
	deps, rows := 0, 0
	for w := 0; w < s.Workers; w++ {
		deps += len(s.depW[w])
		rows += len(s.RowOf[w])
	}
	if deps >= rawDeps {
		t.Errorf("pruning ineffective: %d pruned vs %d raw", deps, rawDeps)
	}
	if deps > a.N*(workers-1) {
		t.Errorf("pruned deps %d exceed n·(w−1) bound %d", deps, a.N*(workers-1))
	}
	if rows != a.N {
		t.Errorf("scheduled %d rows, want %d", rows, a.N)
	}
}

func TestScheduleReusable(t *testing.T) {
	// Run twice; second run must behave identically (progress reset).
	deps := [][]int{nil, {0}, {1}, {0, 2}}
	s := buildFromMatrixLevels(4, deps, 2)
	for round := 0; round < 3; round++ {
		out := make([]int, 0, 4)
		lock := make(chan struct{}, 1)
		lock <- struct{}{}
		s.Run(func(_, r int) {
			<-lock
			out = append(out, r)
			lock <- struct{}{}
		})
		if len(out) != 4 {
			t.Fatalf("round %d: ran %d rows", round, len(out))
		}
	}
}

func TestSingleWorkerIsSequential(t *testing.T) {
	deps := [][]int{nil, {0}, {1}, {2}}
	s := buildFromMatrixLevels(4, deps, 1)
	var got []int
	s.Run(func(_, r int) { got = append(got, r) })
	for i, r := range got {
		if r != i {
			t.Fatalf("sequential order violated: %v", got)
		}
	}
}

func TestDepsOutsideScheduleIgnored(t *testing.T) {
	// Rows 2,3 scheduled; row 2 depends on row 0 (not scheduled) —
	// the schedule must not deadlock.
	levels := [][]int{{2}, {3}}
	s := NewSchedule(nil, levels, 4, 2, func(r int, emit func(int)) {
		emit(0) // unscheduled
		if r == 3 {
			emit(2)
		}
	})
	ran := make([]atomic.Bool, 4)
	s.Run(func(_, r int) { ran[r].Store(true) })
	if !ran[2].Load() || !ran[3].Load() {
		t.Fatal("scheduled rows did not run")
	}
}
