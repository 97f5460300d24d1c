package javelin

// Benchmark harness: one testing.B benchmark per paper table/figure,
// plus ablation benches for the design choices DESIGN.md calls out.
// These run the same code paths as cmd/javelin-bench at a small fixed
// scale so `go test -bench=. -benchmem` regenerates every experiment
// in minutes; use the command for larger scales.

import (
	"io"
	"sync"
	"testing"

	"javelin/internal/baseline"
	"javelin/internal/bench"
	"javelin/internal/core"
	"javelin/internal/gen"
	"javelin/internal/ilu"
	"javelin/internal/krylov"
	"javelin/internal/levelset"
	"javelin/internal/sparse"
	"javelin/internal/trisolve"
	"javelin/internal/util"
)

const benchScale = 0.03

func benchConfig() bench.Config {
	return bench.Config{
		Scale:   benchScale,
		Threads: []int{1, 2, 4, 8},
		Repeats: 1,
		Out:     io.Discard,
	}
}

// benchMatrix returns a mid-size preordered suite matrix for the
// kernel-level benchmarks.
func benchMatrix(b *testing.B, name string) *sparse.CSR {
	b.Helper()
	spec, ok := gen.ByName(name)
	if !ok {
		b.Fatalf("unknown matrix %s", name)
	}
	return bench.Preorder(spec.Build(spec.ScaledN(benchScale)))
}

// --- Table I -----------------------------------------------------------

func BenchmarkTable1Stats(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		bench.RunTable1(cfg)
	}
}

// --- Table II ----------------------------------------------------------

func BenchmarkTable2Iterations(b *testing.B) {
	cfg := benchConfig()
	cfg.Matrices = []string{"apache2", "ecology2"} // subset keeps -bench=. fast
	for i := 0; i < b.N; i++ {
		bench.RunTable2(cfg)
	}
}

// --- Table III / IV ----------------------------------------------------

func BenchmarkTable3LevelStats(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		bench.RunTable3(cfg)
	}
}

func BenchmarkTable4LevelStats(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		bench.RunTable4(cfg)
	}
}

// --- Fig. 9 ------------------------------------------------------------

func BenchmarkFig9WSMPSlowdown(b *testing.B) {
	cfg := benchConfig()
	cfg.Matrices = []string{"wang3", "scircuit", "apache2"}
	cfg.Threads = []int{1, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		bench.RunFig9(cfg)
	}
}

// Direct kernel comparison underlying Fig. 9: the two factorizations
// on one matrix, reported as separate benches so -benchmem shows the
// data-movement difference.
func BenchmarkFig9JavelinILU(b *testing.B) {
	a := benchMatrix(b, "scircuit")
	opt := core.DefaultOptions()
	opt.Threads = 4
	e, err := core.Factorize(a, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Refactorize(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9SupernodalBaseline(b *testing.B) {
	a := benchMatrix(b, "scircuit")
	opt := baseline.DefaultSupernodalOptions()
	opt.Threads = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Supernodal(a, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figs. 10 & 11 -----------------------------------------------------

func BenchmarkFig10HaswellSpeedup(b *testing.B) {
	cfg := benchConfig()
	cfg.Matrices = []string{"wang3", "apache2", "scircuit"}
	cfg.Threads = []int{1, 2, 4} // "Haswell" half/full-socket analogue
	for i := 0; i < b.N; i++ {
		bench.RunScaling(cfg, "Fig. 10")
	}
}

func BenchmarkFig11KNLSpeedup(b *testing.B) {
	cfg := benchConfig()
	cfg.Matrices = []string{"wang3", "apache2", "scircuit"}
	cfg.Threads = []int{1, 4, 8} // "KNL" higher-thread analogue
	for i := 0; i < b.N; i++ {
		bench.RunScaling(cfg, "Fig. 11")
	}
}

// Per-thread-count ILU kernels (the bars behind Figs. 10/11).
func benchILUAtThreads(b *testing.B, threads int, lower core.LowerMethod) {
	a := benchMatrix(b, "apache2")
	opt := core.DefaultOptions()
	opt.Threads = threads
	opt.Lower = lower
	e, err := core.Factorize(a, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Refactorize(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkILU_LS_1T(b *testing.B)      { benchILUAtThreads(b, 1, core.LowerNone) }
func BenchmarkILU_LS_4T(b *testing.B)      { benchILUAtThreads(b, 4, core.LowerNone) }
func BenchmarkILU_LS_8T(b *testing.B)      { benchILUAtThreads(b, 8, core.LowerNone) }
func BenchmarkILU_LSLower_4T(b *testing.B) { benchILUAtThreads(b, 4, core.LowerAuto) }
func BenchmarkILU_LSLower_8T(b *testing.B) { benchILUAtThreads(b, 8, core.LowerAuto) }

// --- Fig. 12 -----------------------------------------------------------

func BenchmarkFig12TriSolve(b *testing.B) {
	cfg := benchConfig()
	cfg.Matrices = []string{"apache2", "ecology2"}
	for i := 0; i < b.N; i++ {
		bench.RunFig12(cfg)
	}
}

// The three stri methods on one matrix (the bars of Fig. 12).
func benchStri(b *testing.B, mode string, threads int) {
	a := benchMatrix(b, "ecology2")
	optLS := core.DefaultOptions()
	optLS.Threads = threads
	if mode == "lslower" {
		optLS.Lower = core.LowerAuto
	} else {
		optLS.Lower = core.LowerNone
	}
	e, err := core.Factorize(a, optLS)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	rhs := make([]float64, a.N)
	rng := util.NewRNG(5)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, a.N)
	ctx := e.NewContext()
	var csrls *trisolve.CSRLS
	if mode == "csrls" {
		csrls = trisolve.NewCSRLS(e.Factor(), threads)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch mode {
		case "csrls":
			csrls.SolveLower(rhs, x)
			csrls.SolveUpper(x, x)
		default:
			ctx.SolveLower(rhs, x)
			ctx.SolveUpper(x, x)
		}
	}
}

func BenchmarkStriCSRLS_4T(b *testing.B)   { benchStri(b, "csrls", 4) }
func BenchmarkStriLS_4T(b *testing.B)      { benchStri(b, "ls", 4) }
func BenchmarkStriLSLower_4T(b *testing.B) { benchStri(b, "lslower", 4) }
func BenchmarkStriCSRLS_8T(b *testing.B)   { benchStri(b, "csrls", 8) }
func BenchmarkStriLS_8T(b *testing.B)      { benchStri(b, "ls", 8) }
func BenchmarkStriLSLower_8T(b *testing.B) { benchStri(b, "lslower", 8) }

// --- Fig. 13 -----------------------------------------------------------

func BenchmarkFig13RCMSpeedup(b *testing.B) {
	cfg := benchConfig()
	cfg.Matrices = []string{"apache2", "ecology2"}
	cfg.Threads = []int{1, 4}
	for i := 0; i < b.N; i++ {
		bench.RunFig13(cfg)
	}
}

// --- Ablations ----------------------------------------------------------

// Ablation: SR vs ER on a matrix whose lower stage is nontrivial.
func benchLowerMethod(b *testing.B, m core.LowerMethod) {
	a := benchMatrix(b, "TSOPF_RS_b300_c2")
	opt := core.DefaultOptions()
	opt.Threads = 4
	opt.Lower = m
	opt.Split.MinRowsPerLevel = 32
	e, err := core.Factorize(a, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Refactorize(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLowerSR(b *testing.B) { benchLowerMethod(b, core.LowerSR) }
func BenchmarkAblationLowerER(b *testing.B) { benchLowerMethod(b, core.LowerER) }

// Ablation: stage-split sensitivity parameter A (Table III's R-A).
func benchSplitA(b *testing.B, minRows int) {
	a := benchMatrix(b, "fem_filter")
	opt := core.DefaultOptions()
	opt.Threads = 4
	opt.Split.MinRowsPerLevel = minRows
	e, err := core.Factorize(a, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Refactorize(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSplitA16(b *testing.B) { benchSplitA(b, 16) }
func BenchmarkAblationSplitA32(b *testing.B) { benchSplitA(b, 32) }

// Ablation: the serial reference (dense-scratch up-looking) vs the
// engine's merge-kernel at one thread.
func BenchmarkSerialReferenceILU(b *testing.B) {
	a := benchMatrix(b, "apache2")
	f, err := ilu.Factorize(a, ilu.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ilu.Refactorize(f, a, ilu.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Symbolic phase cost (excluded from the paper's timings, benched for
// completeness).
func BenchmarkSymbolicILU0(b *testing.B) {
	a := benchMatrix(b, "apache2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ilu.SymbolicPattern(a, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLevelScheduleBuild(b *testing.B) {
	a := benchMatrix(b, "apache2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		levelset.Compute(a, levelset.LowerAAT)
	}
}

// --- Concurrent solve contexts & batched multi-RHS ----------------------

// benchApplyEngine factors the acceptance matrix: a 100×100 grid
// Laplacian (ILU(0) preconditioner application is the measured op).
func benchApplyEngine(b *testing.B, threads int) (*core.Engine, []float64) {
	b.Helper()
	a := gen.GridLaplacian(100, 100, 1, gen.Star5, 0.1)
	opt := core.DefaultOptions()
	opt.Threads = threads
	e, err := core.Factorize(a, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	rhs := make([]float64, a.N)
	rng := util.NewRNG(42)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return e, rhs
}

// benchBatchRHS measures k=8 right-hand sides per iteration, either
// as one ApplyBatch sweep or as 8 sequential Apply calls, and reports
// ns/rhs so the two are directly comparable.
func benchBatchRHS(b *testing.B, batch bool, threads int) {
	e, rhs := benchApplyEngine(b, threads)
	const k = 8
	R := make([][]float64, k)
	Z := make([][]float64, k)
	for j := 0; j < k; j++ {
		R[j] = rhs
		Z[j] = make([]float64, len(rhs))
	}
	ctx := e.NewContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch {
			ctx.ApplyBatch(R, Z)
		} else {
			for j := 0; j < k; j++ {
				ctx.Apply(R[j], Z[j])
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/rhs")
}

func BenchmarkApplySequential8RHS_1T(b *testing.B) { benchBatchRHS(b, false, 1) }
func BenchmarkApplyBatch8RHS_1T(b *testing.B)      { benchBatchRHS(b, true, 1) }
func BenchmarkApplySequential8RHS_4T(b *testing.B) { benchBatchRHS(b, false, 4) }
func BenchmarkApplyBatch8RHS_4T(b *testing.B)      { benchBatchRHS(b, true, 4) }

// benchConcurrentApply runs `workers` goroutines, each applying the
// one shared engine through its own SolveContext b.N times. Each
// apply is single-threaded (Threads: 1): the server scenario where
// parallelism comes from concurrent callers, not from within one
// solve. Reported ns/apply = wall time / total applies; flat ns/op
// across worker counts means linear throughput scaling.
func benchConcurrentApply(b *testing.B, workers int) {
	e, rhs := benchApplyEngine(b, 1)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := e.NewContext()
			z := make([]float64, len(rhs))
			for i := 0; i < b.N; i++ {
				ctx.Apply(rhs, z)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*workers), "ns/apply")
}

func BenchmarkConcurrentApply1G(b *testing.B) { benchConcurrentApply(b, 1) }
func BenchmarkConcurrentApply2G(b *testing.B) { benchConcurrentApply(b, 2) }
func BenchmarkConcurrentApply4G(b *testing.B) { benchConcurrentApply(b, 4) }
func BenchmarkConcurrentApply8G(b *testing.B) { benchConcurrentApply(b, 8) }

// Reusable krylov workspaces: repeated CG solves with and without a
// workspace, showing the per-call allocation cost disappears.
func benchCGWorkspace(b *testing.B, reuse bool) {
	a := gen.GridLaplacian(100, 100, 1, gen.Star5, 0.1)
	opt := core.DefaultOptions()
	opt.Threads = 1
	e, err := core.Factorize(a, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	rhs := make([]float64, a.N)
	rng := util.NewRNG(3)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, a.N)
	ctx := e.NewContext()
	var ws *krylov.Workspace
	if reuse {
		ws = krylov.NewWorkspace()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		if _, err := krylov.CG(a, ctx, rhs, x, krylov.Options{Tol: 1e-8, Work: ws}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCGPerCallAlloc(b *testing.B)   { benchCGWorkspace(b, false) }
func BenchmarkCGWorkspaceReuse(b *testing.B) { benchCGWorkspace(b, true) }
