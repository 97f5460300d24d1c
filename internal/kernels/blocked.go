package kernels

// The "go-blocked" variant: the same arithmetic as go-reference,
// restructured into 4-wide unrolled blocks over explicit full-slice
// re-slices. The re-slicing (x[i:i+4:i+4]) proves the block bounds to
// the compiler once, so the four loads issue without per-element
// bounds checks and without the loop-carried index compare; Go does
// not autovectorize, but this removes most of the scalar loop
// overhead, which is where a gather-bound CSR kernel spends its time.
//
// Reductions keep ONE chained accumulator: s += a; s += b; … performs
// the additions in exactly the reference order, so the results are
// bitwise identical (the determinism contract). Independent
// accumulator lanes would be faster still and are deliberately NOT
// used — they reassociate the sum and would change every solver
// trajectory in the repository.

var blockedTable = &Table{
	Name:        "go-blocked",
	Dot:         dotBlocked,
	SumSq:       sumSqBlocked,
	Axpy:        axpyBlocked,
	Scale:       scaleBlocked,
	SpMVRows:    spmvRowsBlocked,
	PanelUpdate: panelUpdateBlocked,
	TriLower:    triLowerBlocked,
	TriUpper:    triUpperBlocked,
	GatherPerm:  gatherPermBlocked,
	ScatterPerm: scatterPermBlocked,
}

//javelin:noalloc
func dotBlocked(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	s := 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		s += x4[0] * y4[0]
		s += x4[1] * y4[1]
		s += x4[2] * y4[2]
		s += x4[3] * y4[3]
	}
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

//javelin:noalloc
func sumSqBlocked(x []float64) float64 {
	n := len(x)
	s := 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		s += x4[0] * x4[0]
		s += x4[1] * x4[1]
		s += x4[2] * x4[2]
		s += x4[3] * x4[3]
	}
	for ; i < n; i++ {
		s += x[i] * x[i]
	}
	return s
}

//javelin:noalloc
func axpyBlocked(alpha float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		y4[0] += alpha * x4[0]
		y4[1] += alpha * x4[1]
		y4[2] += alpha * x4[2]
		y4[3] += alpha * x4[3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

//javelin:noalloc
func scaleBlocked(alpha float64, x []float64) {
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		x4 := x[i : i+4 : i+4]
		x4[0] *= alpha
		x4[1] *= alpha
		x4[2] *= alpha
		x4[3] *= alpha
	}
	for ; i < n; i++ {
		x[i] *= alpha
	}
}

// gatherBlocked is the row body of spmvRowsBlocked: one chained
// accumulator over the row's entries in index order.
//
//javelin:noalloc
func gatherBlocked(vals []float64, cols []int, x []float64) float64 {
	n := len(cols)
	vals = vals[:n]
	s := 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		c4 := cols[i : i+4 : i+4]
		v4 := vals[i : i+4 : i+4]
		s += v4[0] * x[c4[0]]
		s += v4[1] * x[c4[1]]
		s += v4[2] * x[c4[2]]
		s += v4[3] * x[c4[3]]
	}
	for ; i < n; i++ {
		s += vals[i] * x[cols[i]]
	}
	return s
}

// triLowerBlocked and triUpperBlocked are the triangular-substitution
// row kernels: a CHAIN of subtractions, s = ((s − v₀·x₀) − v₁·x₁) − …,
// never the subtraction of a gathered sum — (s−a)−b and s−(a+b) round
// differently, and every solver trajectory is pinned to the former.
// The unrolled chain sits inline in the row loop: factor rows average
// a handful of nonzeros, so even a direct (non-inlinable) call per row
// is measurable against the sweep itself.
//
//javelin:noalloc
func triLowerBlocked(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		kLo, dp := rowPtr[r], diagPos[r]
		c := colIdx[kLo:dp:dp]
		v := vals[kLo:dp:dp]
		s := x[r]
		n := len(c)
		i := 0
		for ; i+4 <= n; i += 4 {
			c4 := c[i : i+4 : i+4]
			v4 := v[i : i+4 : i+4]
			s -= v4[0] * x[c4[0]]
			s -= v4[1] * x[c4[1]]
			s -= v4[2] * x[c4[2]]
			s -= v4[3] * x[c4[3]]
		}
		for ; i < n; i++ {
			s -= v[i] * x[c[i]]
		}
		x[r] = s
	}
}

//javelin:noalloc
func triUpperBlocked(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int) {
	for r := hi - 1; r >= lo; r-- {
		dp := diagPos[r]
		kHi := rowPtr[r+1]
		c := colIdx[dp+1 : kHi : kHi]
		v := vals[dp+1 : kHi : kHi]
		s := x[r]
		n := len(c)
		i := 0
		for ; i+4 <= n; i += 4 {
			c4 := c[i : i+4 : i+4]
			v4 := v[i : i+4 : i+4]
			s -= v4[0] * x[c4[0]]
			s -= v4[1] * x[c4[1]]
			s -= v4[2] * x[c4[2]]
			s -= v4[3] * x[c4[3]]
		}
		for ; i < n; i++ {
			s -= v[i] * x[c[i]]
		}
		x[r] = s / vals[dp]
	}
}

//javelin:noalloc
func spmvRowsBlocked(rowPtr, colIdx []int, vals, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		rLo, rHi := rowPtr[i], rowPtr[i+1]
		y[i] = gatherBlocked(vals[rLo:rHi], colIdx[rLo:rHi], x)
	}
}

//javelin:noalloc
func gatherPermBlocked(perm []int, x, y []float64) {
	n := len(perm)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		p4 := perm[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		y4[0] = x[p4[0]]
		y4[1] = x[p4[1]]
		y4[2] = x[p4[2]]
		y4[3] = x[p4[3]]
	}
	for ; i < n; i++ {
		y[i] = x[perm[i]]
	}
}

//javelin:noalloc
func scatterPermBlocked(perm []int, x, y []float64) {
	n := len(perm)
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		p4 := perm[i : i+4 : i+4]
		x4 := x[i : i+4 : i+4]
		y[p4[0]] = x4[0]
		y[p4[1]] = x4[1]
		y[p4[2]] = x4[2]
		y[p4[3]] = x4[3]
	}
	for ; i < n; i++ {
		y[perm[i]] = x[i]
	}
}

//javelin:noalloc
func panelUpdateBlocked(xb []float64, k int, xr []float64, vals []float64, colIdx []int, lo, hi int) {
	for p := lo; p < hi; p++ {
		v := vals[p]
		xc := xb[colIdx[p]*k : colIdx[p]*k+k : colIdx[p]*k+k]
		n := len(xr)
		j := 0
		for ; j+4 <= n; j += 4 {
			r4 := xr[j : j+4 : j+4]
			c4 := xc[j : j+4 : j+4]
			r4[0] -= v * c4[0]
			r4[1] -= v * c4[1]
			r4[2] -= v * c4[2]
			r4[3] -= v * c4[3]
		}
		for ; j < n; j++ {
			xr[j] -= v * xc[j]
		}
	}
}
