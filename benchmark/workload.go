package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"javelin"
	"javelin/internal/bench"
	"javelin/internal/gen"
	"javelin/internal/sparse"
)

// nominalSeconds is the --seconds value at which a workload runs the
// operation counts in its table entry; other values scale the counts
// linearly. The counts, not the clock, end each phase, so two commits
// measured with the same --seconds do identical work.
const nominalSeconds = 20

// poolSize is the number of distinct right-hand sides (and, on the
// refactorization workload, value perturbations) a run cycles through.
// Operation i uses pool entry i mod poolSize, so every entry repeats and
// the run can check that repeats give bit-identical results.
const poolSize = 16

// workload is one named input and load. The matrix is a generated
// analogue of a paper suite matrix; the seed only draws right-hand
// sides and value perturbations.
type workload struct {
	name   string
	matrix string  // internal/gen suite name
	scale  float64 // generator scale (fraction of the paper's N)
	method javelin.Method
	lower  javelin.LowerMethod
	// threads is the engine and solver thread count of the measured
	// phase; clients is the number of closed-loop goroutines sharing
	// its Solver.
	threads int
	clients int
	// refactor makes each operation a step: publish perturbed values,
	// refactorize, solve. Otherwise an operation is one solve.
	refactor bool
	// ops and serialOps are the operation counts of the measured phase
	// and of the serial baseline (one client, Threads=1) at
	// nominalSeconds.
	ops, serialOps int
	// matrixFNV is the expected fingerprint of the generated matrix; a
	// run whose input differs fails, so the input cannot change
	// silently.
	matrixFNV uint64
}

var workloads = []workload{
	{
		// 3D PDE with CG: solve-bound, the upper-stage p2p sweep and SpMV dominate, working set above L2.
		name:   "pde-cg",
		matrix: "parabolic_fem", scale: 0.05,
		method: javelin.MethodCG, lower: javelin.LowerAuto,
		threads: 2, clients: 1,
		ops: 120, serialOps: 40,
		matrixFNV: 0xf53d668e353ac72f,
	},
	{
		// Small circuit with GMRES: region dispatch and p2p wait overhead, not arithmetic, set the time.
		name:   "circuit-gmres",
		matrix: "trans4", scale: 0.05,
		method: javelin.MethodGMRES, lower: javelin.LowerAuto,
		threads: 2, clients: 1,
		ops: 2000, serialOps: 500,
		matrixFNV: 0x9afa25ea92e6735a,
	},
	{
		// Dense power-flow blocks, SR lower stage: each step publishes new values, refactorizes and solves.
		name:   "powerflow-refactor",
		matrix: "TSOPF_RS_b300_c2", scale: 0.05,
		method: javelin.MethodGMRES, lower: javelin.LowerSR,
		threads: 2, clients: 1, refactor: true,
		ops: 250, serialOps: 40,
		matrixFNV: 0xce81316d6706b1b3,
	},
	{
		// Two clients share one Threads=1 Solver: throughput through concurrency, pools and epoch pins.
		name:   "pde-cg-shared",
		matrix: "parabolic_fem", scale: 0.05,
		method: javelin.MethodCG, lower: javelin.LowerAuto,
		threads: 1, clients: 2,
		ops: 300, serialOps: 60,
		matrixFNV: 0xf53d668e353ac72f,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs is everything the program under test receives: the raw
// generated matrix, the right-hand-side pool and, on the
// refactorization workload, one perturbed value array per pool entry
// (in the raw matrix's entry order).
type inputs struct {
	raw  *javelin.Matrix
	rhs  [][]float64
	vals [][]float64
}

// makeInputs generates the matrix and draws the seeded pool.
func makeInputs(w workload, scale float64, seed uint64) (*inputs, error) {
	spec, ok := gen.ByName(w.matrix)
	if !ok {
		return nil, fmt.Errorf("workload %s: no generator %q", w.name, w.matrix)
	}
	raw, err := javelin.WrapCSR(bench.BuildInstance(spec, scale, false).Raw)
	if err != nil {
		return nil, fmt.Errorf("workload %s: generated matrix: %w", w.name, err)
	}
	in := &inputs{raw: raw}
	n := raw.N()
	for k := 0; k < poolSize; k++ {
		r := rand.New(rand.NewPCG(seed, uint64(k)))
		b := make([]float64, n)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		in.rhs = append(in.rhs, b)
	}
	if w.refactor {
		in.vals = perturbations(raw.Raw(), seed)
	}
	return in, nil
}

// perturbations scales every off-diagonal value of a by an independent
// factor in [0.99, 1.01), one array per pool entry; the diagonal is
// unchanged.
func perturbations(a *sparse.CSR, seed uint64) [][]float64 {
	out := make([][]float64, poolSize)
	for k := range out {
		r := rand.New(rand.NewPCG(seed, uint64(poolSize+k)))
		v := make([]float64, len(a.Val))
		for i := 0; i < a.N; i++ {
			for e := a.RowPtr[i]; e < a.RowPtr[i+1]; e++ {
				v[e] = a.Val[e]
				if a.ColIdx[e] != i {
					v[e] *= 0.99 + 0.02*r.Float64()
				}
			}
		}
		out[k] = v
	}
	return out
}

// fnvMatrix is the FNV-64a fingerprint of a matrix's shape, pattern and
// value bits.
func fnvMatrix(a *sparse.CSR) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(a.N))
	put(uint64(a.M))
	for _, p := range a.RowPtr {
		put(uint64(p))
	}
	for _, c := range a.ColIdx {
		put(uint64(c))
	}
	for _, v := range a.Val {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// fnvVec is the FNV-64a fingerprint of a vector's bits.
func fnvVec(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}
