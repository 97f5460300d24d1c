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

// SymmetrizedPattern returns the pattern of A+Aᵀ (values are the sum
// where both exist; pattern union otherwise). a must be square.
func (a *CSR) SymmetrizedPattern() *CSR {
	if a.N != a.M {
		panic("sparse: SymmetrizedPattern requires a square matrix")
	}
	at := a.Transpose()
	return Add(a, at)
}

// Add returns a + b (pattern union, values summed). Shapes must match.
func Add(a, b *CSR) *CSR {
	if a.N != b.N || a.M != b.M {
		panic("sparse: Add shape mismatch")
	}
	n := a.N
	ptr := make([]int, n+1)
	// First pass: count union sizes with a merge.
	for i := 0; i < n; i++ {
		ka, ea := a.RowPtr[i], a.RowPtr[i+1]
		kb, eb := b.RowPtr[i], b.RowPtr[i+1]
		cnt := 0
		for ka < ea && kb < eb {
			ca, cb := a.ColIdx[ka], b.ColIdx[kb]
			switch {
			case ca == cb:
				ka++
				kb++
			case ca < cb:
				ka++
			default:
				kb++
			}
			cnt++
		}
		cnt += (ea - ka) + (eb - kb)
		ptr[i+1] = ptr[i] + cnt
	}
	nnz := ptr[n]
	col := make([]int, nnz)
	val := make([]float64, nnz)
	for i := 0; i < n; i++ {
		ka, ea := a.RowPtr[i], a.RowPtr[i+1]
		kb, eb := b.RowPtr[i], b.RowPtr[i+1]
		p := ptr[i]
		for ka < ea && kb < eb {
			ca, cb := a.ColIdx[ka], b.ColIdx[kb]
			switch {
			case ca == cb:
				col[p] = ca
				val[p] = a.Val[ka] + b.Val[kb]
				ka++
				kb++
			case ca < cb:
				col[p] = ca
				val[p] = a.Val[ka]
				ka++
			default:
				col[p] = cb
				val[p] = b.Val[kb]
				kb++
			}
			p++
		}
		for ; ka < ea; ka++ {
			col[p] = a.ColIdx[ka]
			val[p] = a.Val[ka]
			p++
		}
		for ; kb < eb; kb++ {
			col[p] = b.ColIdx[kb]
			val[p] = b.Val[kb]
			p++
		}
	}
	return &CSR{N: n, M: a.M, RowPtr: ptr, ColIdx: col, Val: val}
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
