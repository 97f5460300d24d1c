// Package kernels is the single home of Javelin's numeric inner
// loops: the vector primitives (dot, sum-of-squares, axpy, scale),
// the sparse row-range kernels (CSR SpMV, forward and backward
// substitution), the permutation copies, and the dense-panel
// micro-kernel behind the packed n×k batched solves. Every consumer —
// spmv (and through it every Krylov matvec), trisolve, krylov's
// reductions, the engine's triangular sweeps — dispatches through the
// table selected here instead of open-coding its own per-element
// loop. The plain loop in sparse.CSR.MatVec stays outside on purpose:
// it is the independent check the tests and the benchmark's residual
// hold these kernels to.
//
// # Variants and dispatch
//
// Implementations come in named variants registered in a kernel
// table. Selection order: the `purego` tag forces "go-reference"
// (plain scalar loops, zero assembly linked in); otherwise on amd64
// runtime CPU feature detection (internal/cpuid) selects "avx2" when
// the CPU and OS support it; everything else defaults to
// "go-blocked" — 4-way unrolled loops over explicitly re-sliced
// blocks, shaped so the Go compiler eliminates bounds checks and can
// issue the four loads of a block independently. The "avx2" table
// backs the elementwise kernels (Axpy, Scale, PanelUpdate) and the
// row bodies of the sparse reductions with Go-assembly AVX2; slots
// without an asm win keep the go-blocked bodies — slots are plain
// function values, so tables compose. Feature-gated tables are
// registered only when executable on the running machine (a NEON
// table would claim arm64 the same way). Select the active variant
// once at process start (or with Select in tests); Engine and Runtime
// constructors capture the active table, so a solve never sees the
// variant change mid-flight.
//
// # Determinism contract
//
// All variants of a kernel must be bitwise equivalent: same inputs,
// same float64 bits out, pinned by cross-variant fuzz tests. For the
// reduction kernels (Dot, SumSq, and the row sums of SpMVRows,
// TriLower and TriUpper) this means every variant
// performs the additions in exactly the reference's ascending index
// order with a single chained accumulator — unrolling buys dropped
// bounds checks and independent loads, NOT reassociation. The
// assembly variants obey the same rule: independent multiplies may
// fill vector lanes, but the combine is a scalar chain in reference
// order, remainder tails run the same scalar sequence, and FMA
// contraction is banned outright (an FMA rounds once where
// mul-then-add rounds twice — different bits). The elementwise
// kernels (Axpy, Scale, PanelUpdate) have no ordering freedom to lose
// and may vectorize fully. This is the same fixed-block/ordered-combine
// contract that makes solver trajectories bit-identical at every
// thread count (see internal/krylov/reduce.go), extended down one
// layer: scheduling may change with the machine, arithmetic may not.
//
// The contract is machine-checked: `javelin-vet` (internal/analyzers)
// blocks CI on violations, and any new variant must pass it. The
// kernelpurity analyzer scans the Go bodies in this package for
// math.FMA, map iteration, goroutine launches, and time/math/rand
// imports; the asmvet analyzer scans *_amd64.s for FMA opcodes
// (VFMADD*/VFNMADD*/VFMSUB*/VFNMSUB* are banned outright) and for any
// RET in an AVX-bodied TEXT block not immediately preceded by
// VZEROUPPER. The cross-variant fuzz tests remain the behavioral
// check; the analyzers catch the structural mistakes before a fuzzer
// has to.
package kernels

// Dot returns Σ x[i]·y[i] accumulated in ascending index order.
// len(y) must be at least len(x).
func Dot(x, y []float64) float64 { return active.Dot(x, y) }

// SumSq returns Σ x[i]² accumulated in ascending index order.
func SumSq(x []float64) float64 { return active.SumSq(x) }

// Axpy computes y[i] += alpha·x[i]. len(y) must be at least len(x).
func Axpy(alpha float64, x, y []float64) { active.Axpy(alpha, x, y) }

// Scale computes x[i] *= alpha.
func Scale(alpha float64, x []float64) { active.Scale(alpha, x) }

// SpMVRows computes y[i] = Σ vals[k]·x[colIdx[k]] over each row i in
// [lo, hi) of a CSR matrix, each sum accumulated in index order — one
// call per contiguous row block, so a parallel SpMV costs one
// dispatch per block instead of one closure call per row. vals is
// indexed by the pattern, so a pinned epoch's buffer can stand in for
// the matrix's own values.
func SpMVRows(rowPtr, colIdx []int, vals, x, y []float64, lo, hi int) {
	active.SpMVRows(rowPtr, colIdx, vals, x, y, lo, hi)
}

// PanelUpdate applies xr[j] -= vals[p]·xb[colIdx[p]*k+j] for p in
// [lo, hi) and j in [0, k): one row's sparse factor entries applied
// to all k right-hand sides of the packed row-major n×k panel xb —
// the BLAS3-shaped inner kernel of the batched triangular solves.
func PanelUpdate(xb []float64, k int, xr []float64, vals []float64, colIdx []int, lo, hi int) {
	active.PanelUpdate(xb, k, xr, vals, colIdx, lo, hi)
}

// TriLower performs forward substitution in place over rows [lo, hi)
// ascending: x[r] = ((x[r] − v₀·x₀) − v₁·x₁) − … over k in
// [rowPtr[r], diagPos[r]), a CHAIN of subtractions in index order.
// It is deliberately not x[r] minus a gathered sum: (s−a)−b and
// s−(a+b) round differently, and the solvers' trajectories are pinned
// to the chained form. The whole sweep is one dispatch — factor rows
// are short, so per-row dispatch would rival the arithmetic.
func TriLower(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int) {
	active.TriLower(rowPtr, diagPos, colIdx, vals, x, lo, hi)
}

// TriUpper performs backward substitution in place over rows [lo, hi)
// descending: x[r] = (x[r] − Σ super-diagonal vals·x) / vals[diagPos[r]],
// each row the same subtraction chain as TriLower followed by the
// diagonal division.
func TriUpper(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int) {
	active.TriUpper(rowPtr, diagPos, colIdx, vals, x, lo, hi)
}
