package sparse

// Transpose returns aᵀ as a new CSR. Columns in each output row come
// out ascending because the counting pass visits rows of a in order.
func (a *CSR) Transpose() *CSR {
	n, m := a.N, a.M
	nnz := a.Nnz()
	ptr := make([]int, m+1)
	for _, j := range a.ColIdx {
		ptr[j+1]++
	}
	for j := 0; j < m; j++ {
		ptr[j+1] += ptr[j]
	}
	col := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, m)
	copy(next, ptr[:m])
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			p := next[j]
			col[p] = i
			val[p] = a.Val[k]
			next[j] = p + 1
		}
	}
	return &CSR{N: m, M: n, RowPtr: ptr, ColIdx: col, Val: val}
}

// MatVec computes y = a*x serially. len(x) == M, len(y) == N.
func (a *CSR) MatVec(x, y []float64) {
	a.MatVecVals(a.Val, x, y)
}

// MatVecVals computes y = a*x serially against an explicit value
// slice indexed by a's pattern — the epoch-pinned read path: a
// Versioned reader passes the pinned epoch's buffer instead of a.Val,
// the same explicit-values discipline the ILU numeric kernels use.
// len(vals) == Nnz.
func (a *CSR) MatVecVals(vals, x, y []float64) {
	for i := 0; i < a.N; i++ {
		s := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += vals[k] * x[a.ColIdx[k]]
		}
		y[i] = s
	}
}
