package kernels

// The "go-reference" variant: the textbook scalar loops every other
// variant must match bitwise. These are the loops the rest of the
// repository used inline before the kernel layer existed, kept as the
// portable baseline (and the `purego` build's default).

var referenceTable = &Table{
	Name:        "go-reference",
	Dot:         dotRef,
	SumSq:       sumSqRef,
	Axpy:        axpyRef,
	Scale:       scaleRef,
	SpMVRows:    spmvRowsRef,
	PanelUpdate: panelUpdateRef,
	TriLower:    triLowerRef,
	TriUpper:    triUpperRef,
	GatherPerm:  gatherPermRef,
	ScatterPerm: scatterPermRef,
}

func dotRef(x, y []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func sumSqRef(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

func axpyRef(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

func scaleRef(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

func spmvRowsRef(rowPtr, colIdx []int, vals, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			s += vals[k] * x[colIdx[k]]
		}
		y[i] = s
	}
}

func triLowerRef(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		s := x[r]
		for k := rowPtr[r]; k < diagPos[r]; k++ {
			s -= vals[k] * x[colIdx[k]]
		}
		x[r] = s
	}
}

func triUpperRef(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int) {
	for r := hi - 1; r >= lo; r-- {
		dp := diagPos[r]
		s := x[r]
		for k := dp + 1; k < rowPtr[r+1]; k++ {
			s -= vals[k] * x[colIdx[k]]
		}
		x[r] = s / vals[dp]
	}
}

func gatherPermRef(perm []int, x, y []float64) {
	for i, p := range perm {
		y[i] = x[p]
	}
}

func scatterPermRef(perm []int, x, y []float64) {
	for i, p := range perm {
		y[p] = x[i]
	}
}

func panelUpdateRef(xb []float64, k int, xr []float64, vals []float64, colIdx []int, lo, hi int) {
	for p := lo; p < hi; p++ {
		v := vals[p]
		xc := xb[colIdx[p]*k : colIdx[p]*k+k]
		for j := range xr {
			xr[j] -= v * xc[j]
		}
	}
}
