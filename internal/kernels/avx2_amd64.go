//go:build amd64 && !purego

package kernels

import "javelin/internal/cpuid"

// The "avx2" variant: AVX2 assembly bodies (avx2_amd64.s) for the
// bandwidth-bound kernels, registered only when cpuid confirms the
// running CPU and OS support AVX2 — the table must be unreachable
// (not merely unselected) on machines that would fault executing it.
//
// Slot policy: the elementwise kernels (Axpy, Scale, PanelUpdate)
// vectorize fully; the row-range reductions (SpMVRows, TriLower,
// TriUpper) vectorize their independent multiplies and keep the
// scalar accumulator chain, so they remain bitwise identical to
// go-blocked but stay latency-bound on the chain. Dot, SumSq and the
// permutation copies keep the go-blocked bodies: a chained-accumulator
// dot gains nothing from asm, and the permutation copies are pure
// load/store that the Go compiler already emits optimally. Slots are
// plain function values, so mixing Go and asm bodies in one table is
// the intended composition.
var avx2Table = &Table{
	Name:        "avx2",
	Dot:         dotBlocked,
	SumSq:       sumSqBlocked,
	Axpy:        axpyAVX2,
	Scale:       scaleAVX2,
	SpMVRows:    spmvRowsAVX2,
	PanelUpdate: panelUpdateAVX2,
	TriLower:    triLowerAVX2,
	TriUpper:    triUpperAVX2,
	GatherPerm:  gatherPermBlocked,
	ScatterPerm: scatterPermBlocked,
	AsmSlots: []string{"Axpy", "Scale", "SpMVRows", "PanelUpdate",
		"TriLower", "TriUpper"},
}

// archTables contributes the feature-gated tables to the registry.
func archTables() []*Table { return archTablesFor(cpuid.HasAVX2()) }

// archTablesFor is the registration seam behind archTables: tests
// simulate a machine without AVX2 by passing false, instead of
// needing such a machine.
func archTablesFor(hasAVX2 bool) []*Table {
	if hasAVX2 {
		return []*Table{avx2Table}
	}
	return nil
}

//go:noescape
func axpyAVX2(alpha float64, x, y []float64)

//go:noescape
func scaleAVX2(alpha float64, x []float64)

//go:noescape
func spmvRowsAVX2(rowPtr, colIdx []int, vals, x, y []float64, lo, hi int)

//go:noescape
func triLowerAVX2(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int)

//go:noescape
func triUpperAVX2(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int)

//go:noescape
func panelUpdateAVX2(xb []float64, k int, xr []float64, vals []float64, colIdx []int, lo, hi int)
