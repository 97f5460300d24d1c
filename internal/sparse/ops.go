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

// SymmetrizedPattern returns the pattern of A+Aᵀ with zero values; a
// must be square. Aᵀ's pattern is built without values, and each
// output row is the merge of row i of A with column i of A in one
// pass.
func (a *CSR) SymmetrizedPattern() *CSR {
	if a.N != a.M {
		panic("sparse: SymmetrizedPattern requires a square matrix")
	}
	n, nnz := a.N, a.Nnz()
	// tPtr counts each column, is summed to the column ends, and
	// steps back to the starts as the rows are placed last to first,
	// so each column's rows come out ascending.
	tPtr := make([]int, n+1)
	for _, j := range a.ColIdx {
		tPtr[j]++
	}
	for j := 1; j <= n; j++ {
		tPtr[j] += tPtr[j-1]
	}
	tCol := make([]int, nnz)
	for i := n - 1; i >= 0; i-- {
		for k := a.RowPtr[i+1] - 1; k >= a.RowPtr[i]; k-- {
			j := a.ColIdx[k]
			tPtr[j]--
			tCol[tPtr[j]] = i
		}
	}
	ptr := make([]int, n+1)
	col := make([]int, 0, 2*nnz)
	for i := 0; i < n; i++ {
		x, y := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], tCol[tPtr[i]:tPtr[i+1]]
		for len(x) > 0 && len(y) > 0 {
			switch {
			case x[0] < y[0]:
				col, x = append(col, x[0]), x[1:]
			case x[0] > y[0]:
				col, y = append(col, y[0]), y[1:]
			default:
				col, x, y = append(col, x[0]), x[1:], y[1:]
			}
		}
		col = append(append(col, x...), y...)
		ptr[i+1] = len(col)
	}
	return &CSR{N: n, M: n, RowPtr: ptr, ColIdx: col, Val: make([]float64, len(col))}
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
