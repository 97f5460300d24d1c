package main

import (
	"math/rand/v2"
	"time"

	"javelin"
	"javelin/internal/ilu"
	"javelin/internal/kernels"
	"javelin/internal/levelset"
	"javelin/internal/spmv"
)

// Each standalone layer call is repeated until it has run at least
// layerMinCalls times and for layerMinTime, or layerMaxCalls times;
// its metric is the median call.
const (
	layerMinCalls = 5
	layerMaxCalls = 400
	layerMinTime  = 100 * time.Millisecond
)

// sink keeps reduction results alive so their calls are not elided.
var sink float64

// layerTimer times standalone calls, one span each under the layer
// phase's root span, and stores each median as a metric.
type layerTimer struct {
	tr   *tracer
	root int
	m    map[string]metric
}

var unitDur = map[string]time.Duration{"ms": time.Millisecond, "us": time.Microsecond, "ns": time.Nanosecond}

// time records the median duration of fn as metric name_unit, with one
// span named name per call; prep, when non-nil, runs untimed before
// each call (to restore an operand a kernel overwrites).
func (lt layerTimer) time(name, unit string, prep, fn func()) {
	var ds []float64
	start := time.Now()
	for len(ds) < layerMinCalls || (len(ds) < layerMaxCalls && time.Since(start) < layerMinTime) {
		if prep != nil {
			prep()
		}
		sp := lt.tr.begin(name, lt.root, 0)
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
		lt.tr.end(sp)
	}
	lt.m[name+"_"+unit] = metric{median(ds) / float64(unitDur[unit]), unit}
}

// runLayers calls each layer's public entry point on its own, on the
// workload's preordered matrix, and adds the medians to m: the ILU
// symbolic phase, the level-set split, Refactorize at 2 threads (with
// the workload's lower method and forced to ER) and at 1, Apply and
// the two triangular sweeps, SpMV, each active kernel slot on
// workload-sized operands, and VersionedMatrix.UpdateValues.
func runLayers(sys *system, w workload, rt *javelin.Runtime, tr *tracer, seed uint64, m map[string]metric) error {
	lt := layerTimer{tr: tr, root: tr.begin("layers", 0, 0), m: m}
	defer tr.end(lt.root)
	a := sys.a.Raw()
	n := a.N

	pat, err := ilu.SymbolicPattern(a, 0)
	if err != nil {
		return err
	}
	lt.time("ilu.symbolic", "ms", nil, func() { pat, _ = ilu.SymbolicPattern(a, 0) })
	lt.time("levelset.split", "ms", nil, func() {
		levelset.ComputeSplit(pat, levelset.LowerAAT, levelset.DefaultSplitOptions())
	})

	p2, err := factorize(sys.a, w.lower, 2, rt)
	if err != nil {
		return err
	}
	defer p2.Close()
	p1, err := factorize(sys.a, w.lower, 1, rt)
	if err != nil {
		return err
	}
	defer p1.Close()
	pER, err := factorize(sys.a, javelin.LowerER, 2, rt)
	if err != nil {
		return err
	}
	defer pER.Close()
	var refacErr error
	refactorize := func(p *javelin.Preconditioner) func() {
		return func() {
			if err := p.Refactorize(sys.a); err != nil {
				refacErr = err
			}
		}
	}
	lt.time("core.refactorize", "ms", nil, refactorize(p2))
	lt.time("core.refactorize_1t", "ms", nil, refactorize(p1))
	lt.time("core.refactorize_er", "ms", nil, refactorize(pER))
	if refacErr != nil {
		return refacErr
	}

	r := rand.New(rand.NewPCG(seed, 1<<32))
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 2*r.Float64() - 1
		}
		return v
	}
	x, y, z := vec(), vec(), vec()
	ap2, ap1 := p2.NewApplier(), p1.NewApplier()
	lt.time("core.apply", "us", nil, func() { ap2.Apply(x, z) })
	lt.time("core.apply_1t", "us", nil, func() { ap1.Apply(x, z) })
	sc := p2.Engine().NewContext()
	lt.time("core.solve_lower", "us", nil, func() { sc.SolveLower(x, z) })
	lt.time("core.solve_upper", "us", nil, func() { sc.SolveUpper(x, z) })
	lt.time("spmv.matvec", "us", nil, func() { spmv.ParallelOn(rt, a, x, y, 2) })
	lt.time("spmv.matvec_1t", "us", nil, func() { spmv.ParallelOn(rt, a, x, y, 1) })

	kt := kernels.Active()
	f := p1.Engine().Factor()
	lu := f.LU
	restore := func() { copy(z, x) }
	lt.time("kernels.dot", "ns", nil, func() { sink += kt.Dot(x, y) })
	lt.time("kernels.axpy", "ns", nil, func() { kt.Axpy(1e-9, x, y) })
	lt.time("kernels.spmvrows", "ns", nil, func() { kt.SpMVRows(a.RowPtr, a.ColIdx, a.Val, x, y, 0, n) })
	lt.time("kernels.trilower", "ns", restore, func() { kt.TriLower(lu.RowPtr, f.DiagPos, lu.ColIdx, lu.Val, z, 0, n) })
	lt.time("kernels.triupper", "ns", restore, func() { kt.TriUpper(lu.RowPtr, f.DiagPos, lu.ColIdx, lu.Val, z, 0, n) })

	vm := sys.vm
	if vm == nil {
		if vm, err = javelin.NewVersionedMatrix(sys.a); err != nil {
			return err
		}
	}
	var updErr error
	lt.time("sparse.update_values", "us", nil, func() {
		if err := vm.UpdateValues(a.Val); err != nil {
			updErr = err
		}
	})
	return updErr
}
