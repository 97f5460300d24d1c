package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"javelin"
)

// tol is the relative-residual target of every solve, and the limit
// the benchmark's own recomputed residual must meet.
const tol = 1e-6

// setups is how many times a run sets the system up; setup_s is their
// median.
const setups = 15

// system is a set-up solve service: the preordered matrix, its
// preconditioner and Solver, and the permutations that carry a
// caller's vectors into the solver's ordering.
type system struct {
	a *javelin.Matrix // P·A·Pᵀ after the zero-free diagonal and ND orderings
	p *javelin.Preconditioner
	s *javelin.Solver
	// bPerm and xPerm map the caller's ordering to the solver's:
	// b2[i] = b[bPerm[i]] and x[xPerm[i]] = x2[i].
	bPerm, xPerm []int
	// vm is the live matrix the Solver pins on refactorization
	// workloads; aw holds the values each step refactorizes from, and
	// aw's entry j takes raw entry emap[j].
	vm   *javelin.VersionedMatrix
	aw   *javelin.Matrix
	emap []int
}

// setupTimes splits one setup into the parts the traced run reports.
type setupTimes struct {
	total, preorder, factorize time.Duration
	heapBytes                  float64
}

// setUp builds the system the way a caller would: zero-free diagonal
// (when the matrix needs one), ND ordering and the symmetric
// permutation, Factorize, then the Solver.
func setUp(in *inputs, w workload, threads int, rt *javelin.Runtime, tr *tracer) (*system, setupTimes, error) {
	var t setupTimes
	root := tr.begin("setup", 0, 0)
	defer tr.end(root)
	t0 := time.Now()

	sp := tr.begin("order.preorder", root, 0)
	m, bPerm := in.raw, []int(nil)
	if !in.raw.Raw().HasFullDiagonal() {
		zp := javelin.ZeroFreeDiagonal(in.raw)
		m = javelin.PermuteRows(in.raw, zp)
		bPerm = zp
	}
	nd := javelin.ComputeOrdering(javelin.OrderND, m)
	a := javelin.PermuteSym(m, nd)
	tr.end(sp)
	t1 := time.Now()

	sp = tr.begin("core.factorize", root, 0)
	p, err := factorize(a, w.lower, threads, rt)
	tr.end(sp)
	if err != nil {
		return nil, t, err
	}
	t2 := time.Now()

	sp = tr.begin("javelin.new_solver", root, 0)
	sys := &system{a: a, p: p, xPerm: nd, bPerm: composePerm(bPerm, nd)}
	if w.refactor {
		if sys.vm, err = javelin.NewVersionedMatrix(a); err == nil {
			sys.s, err = javelin.NewVersionedSolver(sys.vm, p, solverOpts(w, threads, rt, nil)...)
		}
	} else {
		sys.s, err = javelin.NewSolver(a, p, solverOpts(w, threads, rt, nil)...)
	}
	tr.end(sp)
	if err != nil {
		p.Close()
		return nil, t, fmt.Errorf("new solver: %w", err)
	}
	t3 := time.Now()
	t.total, t.preorder, t.factorize = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1)
	return sys, t, nil
}

func factorize(a *javelin.Matrix, lower javelin.LowerMethod, threads int, rt *javelin.Runtime) (*javelin.Preconditioner, error) {
	opt := javelin.DefaultOptions()
	opt.Threads = threads
	opt.Lower = lower
	opt.Runtime = rt
	p, err := javelin.Factorize(a, opt)
	if err != nil {
		return nil, fmt.Errorf("factorize (threads=%d, lower=%v): %w", threads, lower, err)
	}
	return p, nil
}

func solverOpts(w workload, threads int, rt *javelin.Runtime, mon func(javelin.IterInfo) bool) []javelin.SolverOption {
	opts := []javelin.SolverOption{
		javelin.WithMethod(w.method), javelin.WithTol(tol),
		javelin.WithThreads(threads), javelin.WithRuntime(rt),
	}
	if mon != nil {
		opts = append(opts, javelin.WithMonitor(mon))
	}
	return opts
}

// composePerm returns q with q[i] = rows[nd[i]], or nd itself when
// there was no row permutation.
func composePerm(rows, nd []int) []int {
	if rows == nil {
		return nd
	}
	q := make([]int, len(nd))
	for i, o := range nd {
		q[i] = rows[o]
	}
	return q
}

// setUpMedian sets the system up `setups` times and keeps the last.
// Each setup starts from a collected heap, so its heap growth is the
// memory the set-up system holds.
func setUpMedian(in *inputs, w workload, threads int, rt *javelin.Runtime, tr *tracer) (*system, []setupTimes, error) {
	var all []setupTimes
	var sys *system
	var ms runtime.MemStats
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.p.Close()
			sys = nil
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		h0 := ms.HeapAlloc
		s, t, err := setUp(in, w, threads, rt, tr)
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		t.heapBytes = float64(ms.HeapAlloc) - float64(h0)
		sys = s
		all = append(all, t)
	}
	if w.refactor {
		if err := sys.prepareSteps(in); err != nil {
			sys.p.Close()
			return nil, nil, err
		}
	}
	return sys, all, nil
}

// prepareSteps builds the entry map from raw entries to the solver's
// ordering by pushing entry indices through the same permutations, and
// the matrix each step refactorizes from.
func (sys *system) prepareSteps(in *inputs) error {
	raw := in.raw.Raw()
	idx := raw.Clone()
	for e := range idx.Val {
		idx.Val[e] = float64(e)
	}
	m, err := javelin.WrapCSR(idx)
	if err != nil {
		return err
	}
	if !raw.HasFullDiagonal() {
		m = javelin.PermuteRows(m, javelin.ZeroFreeDiagonal(in.raw))
	}
	pm := javelin.PermuteSym(m, sys.xPerm).Raw()
	sys.emap = make([]int, len(pm.Val))
	for j, v := range pm.Val {
		sys.emap[j] = int(v)
	}
	sys.aw, err = javelin.WrapCSR(sys.a.Raw().Clone())
	return err
}

// opResult is one operation's outcome. For a solve, total == solve.
type opResult struct {
	total, update, refac, solve time.Duration
	iters                       int
	relres                      float64
	xHash                       uint64
	err                         error
}

// client is one closed-loop caller: its Solver (shared or its own) and
// its vector buffers.
type client struct {
	s             *javelin.Solver
	mon           *iterMonitor
	b2, x2, x, ax []float64
}

func (sys *system) newClient(s *javelin.Solver, mon *iterMonitor) *client {
	n := sys.a.N()
	return &client{s: s, mon: mon, b2: make([]float64, n), x2: make([]float64, n), x: make([]float64, n), ax: make([]float64, n)}
}

// run performs operation i for request req: a solve of pool entry
// i mod poolSize from a zero initial guess, preceded on refactorization
// workloads by publishing that entry's values and refactorizing. Only
// the calls into javelin are timed; the result is then checked against
// the raw input.
func (sys *system) run(ctx context.Context, c *client, in *inputs, i int, req uint64, tr *tracer) opResult {
	k := i % poolSize
	b := in.rhs[k]
	for j, o := range sys.bPerm {
		c.b2[j] = b[o]
	}
	clear(c.x2)
	var vals []float64
	if sys.vm != nil {
		vals = in.vals[k]
		w := sys.aw.Raw().Val
		for j, e := range sys.emap {
			w[j] = vals[e]
		}
	}

	var r opResult
	var mEpoch, fEpoch uint64
	root := "solve"
	if sys.vm != nil {
		root = "step"
	}
	op := tr.begin(root, 0, req)
	t0 := time.Now()
	if sys.vm != nil {
		sp := tr.begin("sparse.update_values", op, req)
		r.err = sys.vm.UpdateValues(sys.aw.Raw().Val)
		tr.end(sp)
		r.update = time.Since(t0)
		if r.err != nil {
			tr.end(op)
			return r
		}
		t1 := time.Now()
		sp = tr.begin("core.refactorize", op, req)
		r.err = sys.p.Refactorize(sys.aw)
		tr.end(sp)
		r.refac = time.Since(t1)
		if r.err != nil {
			tr.end(op)
			return r
		}
		mEpoch, fEpoch = sys.vm.Epoch(), sys.p.Engine().FactorEpoch()
	}
	solveSpan := op
	if sys.vm != nil {
		solveSpan = tr.begin("solve", op, req)
	}
	c.mon.startSolve(solveSpan, req)
	ts := time.Now()
	st, err := c.s.Solve(ctx, c.b2, c.x2)
	te := time.Now()
	c.mon.finish()
	if solveSpan != op {
		tr.end(solveSpan)
	}
	tr.end(op)
	r.solve, r.total = te.Sub(ts), te.Sub(t0)
	r.iters = st.Iterations
	if err != nil {
		r.err = err
		return r
	}
	if sys.vm != nil && (st.MatrixEpoch != mEpoch || st.FactorEpoch != fEpoch) {
		r.err = fmt.Errorf("solve ran on epochs (A %d, factor %d), step published (A %d, factor %d)",
			st.MatrixEpoch, st.FactorEpoch, mEpoch, fEpoch)
		return r
	}

	for j, o := range sys.xPerm {
		c.x[o] = c.x2[j]
	}
	if vals != nil {
		in.raw.Raw().MatVecVals(vals, c.x, c.ax)
	} else {
		in.raw.MatVec(c.x, c.ax)
	}
	var rr, bb float64
	for j, bj := range b {
		d := bj - c.ax[j]
		rr += d * d
		bb += bj * bj
	}
	r.relres = math.Sqrt(rr / bb)
	r.xHash = fnvVec(c.x2)
	if !(r.relres <= tol) {
		r.err = fmt.Errorf("recomputed relative residual %.3g exceeds %g", r.relres, tol)
	}
	return r
}

// blocks is how many rounds interleave divides a run into.
const blocks = 10

// phase is one measured loop: a system, its closed-loop clients, and
// the results of the operations run so far, in operation order.
type phase struct {
	sys     *system
	in      *inputs
	rt      *javelin.Runtime
	tr      *tracer
	clients []*client
	ops     []opResult
	busy    time.Duration        // wall time of the blocks run so far
	stats   javelin.RuntimeStats // runtime counters moved by this phase
}

// newPhase prepares nops operations from `clients` goroutines. Each
// client first runs one untimed operation so pools and caches are warm.
// With a tracer, every client solves through its own Solver carrying a
// monitor (a monitor cannot tell concurrent callers of one Solver
// apart); otherwise all clients share sys.s.
func (sys *system) newPhase(w workload, threads, clients, nops int, in *inputs, rt *javelin.Runtime, tr *tracer) (*phase, error) {
	p := &phase{sys: sys, in: in, rt: rt, tr: tr, ops: make([]opResult, nops)}
	for c := 0; c < clients; c++ {
		s, mon := sys.s, (*iterMonitor)(nil)
		if tr != nil {
			mon = &iterMonitor{t: tr}
			var err error
			if s, err = sys.newSolver(w, threads, rt, mon.callback); err != nil {
				return nil, err
			}
		}
		cl := sys.newClient(s, mon)
		if r := sys.run(context.Background(), cl, in, c, 0, nil); r.err != nil {
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
		p.clients = append(p.clients, cl)
	}
	return p, nil
}

// runOps runs operations [lo, hi), client c taking every len(clients)-th
// one from lo+c. Operation i is request i+1.
func (p *phase) runOps(lo, hi int) {
	ctx := context.Background()
	before := p.rt.Stats()
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, cl := range p.clients {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			for i := lo + c; i < hi; i += len(p.clients) {
				p.ops[i] = p.sys.run(ctx, cl, p.in, i, uint64(i)+1, p.tr)
			}
		}(c, cl)
	}
	wg.Wait()
	p.busy += time.Since(t0)
	// Adds this block's counter delta: the counters are uint64, so
	// p.stats − (before − after) wraps to p.stats + (after − before).
	p.stats = p.stats.Sub(before.Sub(p.rt.Stats()))
}

// gaps returns the intervals between monitor callbacks of every client.
func (p *phase) gaps() []time.Duration {
	var out []time.Duration
	for _, cl := range p.clients {
		if cl.mon != nil {
			out = append(out, cl.mon.gaps...)
		}
	}
	return out
}

// interleave runs the phases in `blocks` rounds, each phase running its
// next share of operations in turn, so every phase samples the host's
// speed, which drifts on a scale of seconds, over the whole run rather
// than over one stretch of it. It then checks repeated inputs.
func interleave(phases ...*phase) {
	for b := 0; b < blocks; b++ {
		for _, p := range phases {
			n := len(p.ops)
			p.runOps(n*b/blocks, n*(b+1)/blocks)
		}
	}
	for _, p := range phases {
		checkRepeats(p.ops)
	}
}

func (sys *system) newSolver(w workload, threads int, rt *javelin.Runtime, mon func(javelin.IterInfo) bool) (*javelin.Solver, error) {
	if sys.vm != nil {
		return javelin.NewVersionedSolver(sys.vm, sys.p, solverOpts(w, threads, rt, mon)...)
	}
	return javelin.NewSolver(sys.a, sys.p, solverOpts(w, threads, rt, mon)...)
}

// errNotRepeatable marks an operation whose iterations or solution bits
// differ from an earlier operation on the same pool entry.
var errNotRepeatable = errors.New("result differs from an earlier operation on the same input")

// checkRepeats fails every operation whose iteration count or solution
// fingerprint differs from the first successful operation on the same
// pool entry: trajectories are deterministic at a fixed thread count.
func checkRepeats(ops []opResult) {
	type key struct {
		iters int
		hash  uint64
	}
	first := make(map[int]key)
	for i := range ops {
		r := &ops[i]
		if r.err != nil {
			continue
		}
		k := key{r.iters, r.xHash}
		f, ok := first[i%poolSize]
		if !ok {
			first[i%poolSize] = k
		} else if f != k {
			r.err = errNotRepeatable
		}
	}
}
