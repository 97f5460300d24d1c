package sparse

import (
	"fmt"

	"javelin/internal/exec"
)

// Perm represents a permutation: Perm[newIndex] = oldIndex.
// Applying Perm p to a vector x produces y with y[new] = x[p[new]].
type Perm []int

// Identity returns the identity permutation of size n.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Inverse returns q with q[old] = new.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for newI, oldI := range p {
		q[oldI] = newI
	}
	return q
}

// Validate checks that p is a bijection on [0, n).
func (p Perm) Validate() error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v < 0 || v >= len(p) {
			return fmt.Errorf("sparse: perm[%d]=%d out of range", i, v)
		}
		if seen[v] {
			return fmt.Errorf("sparse: perm[%d]=%d repeats an earlier entry", i, v)
		}
		seen[v] = true
	}
	return nil
}

// PermuteSym returns P·A·Pᵀ where row/column old p[new] moves to new,
// copying in parallel on the process-wide default runtime. It panics
// if p is not a permutation of [0, A.N).
func PermuteSym(a *CSR, p Perm, threads int) *CSR {
	return PermuteSymOn(nil, a, p, threads)
}

// PermuteSymOn returns P·A·Pᵀ where row/column old p[new] moves to
// new, with the row copies scheduled on the given runtime (nil means
// the default). The permutation is applied symmetrically, as done for
// coefficient matrices before factorization. Column indices in each
// output row are re-sorted. The copy is done in parallel over rows
// (the paper's "copy ... in parallel allowing for first-touch"), in
// min(threads, n) contiguous pieces (threads <= 0 means the runtime's
// parallelism). It panics, naming the first bad entry, if p is not a
// permutation of [0, n).
func PermuteSymOn(rt *exec.Runtime, a *CSR, p Perm, threads int) *CSR {
	if rt == nil {
		rt = exec.Default()
	}
	n := a.N
	if len(p) != n || a.M != n {
		panic("sparse: PermuteSym requires square matrix and matching perm")
	}
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	inv := p.Inverse()
	ptr := make([]int, n+1)
	for newI := 0; newI < n; newI++ {
		ptr[newI+1] = a.RowLen(p[newI])
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	col := make([]int, ptr[n])
	val := make([]float64, ptr[n])
	if threads <= 0 {
		threads = rt.Parallelism()
	}
	k := min(threads, n)
	rt.For(k, k, func(_, i int) {
		for newI, hi := i*n/k, (i+1)*n/k; newI < hi; newI++ {
			cols, vals := a.Row(p[newI])
			base := ptr[newI]
			for c, j := range cols {
				col[base+c] = inv[j]
				val[base+c] = vals[c]
			}
			sortRow(col[base:base+len(cols)], val[base:base+len(cols)])
		}
	})
	return &CSR{N: n, M: n, RowPtr: ptr, ColIdx: col, Val: val}
}

// PermuteRows returns the matrix with rows reordered by p (columns
// untouched): out row new = a row p[new]. It panics, naming the first
// bad entry, if p is not a permutation of [0, A.N).
func PermuteRows(a *CSR, p Perm) *CSR {
	n := a.N
	if len(p) != n {
		panic("sparse: PermuteRows perm length mismatch")
	}
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	ptr := make([]int, n+1)
	for newI := 0; newI < n; newI++ {
		ptr[newI+1] = ptr[newI] + a.RowLen(p[newI])
	}
	col := make([]int, ptr[n])
	val := make([]float64, ptr[n])
	for newI := 0; newI < n; newI++ {
		cols, vals := a.Row(p[newI])
		copy(col[ptr[newI]:], cols)
		copy(val[ptr[newI]:], vals)
	}
	return &CSR{N: n, M: a.M, RowPtr: ptr, ColIdx: col, Val: val}
}

// sortRow sorts a (cols, vals) pair by ascending column via insertion
// sort — rows are short in ILU workloads, and insertion sort avoids
// allocation.
func sortRow(cols []int, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1] = cols[j]
			vals[j+1] = vals[j]
			j--
		}
		cols[j+1] = c
		vals[j+1] = v
	}
}
