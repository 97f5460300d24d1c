package gen

import (
	"math"

	"javelin/internal/sparse"
)

// Spec describes one matrix of the paper's test suite (Table I) and
// how to synthesize its analogue at a chosen scale.
type Spec struct {
	// Name is the SuiteSparse name from Table I.
	Name string
	// Group is "A" (convergence studies, SPD) or "B" (wide mix).
	Group string
	// PaperN, PaperNnz, PaperRD, PaperLvl are Table I's values,
	// recorded so harnesses can print paper-vs-built comparisons.
	PaperN   int
	PaperNnz int
	PaperRD  float64
	PaperSym bool
	PaperLvl int
	// Build synthesizes the analogue with about targetN rows.
	Build func(targetN int) *sparse.CSR
}

// ScaledN returns the row count for a scale factor in (0, 1].
func (s Spec) ScaledN(scale float64) int {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	n := int(float64(s.PaperN) * scale)
	if n < 256 {
		n = 256
	}
	return n
}

// side2 returns the grid side for a 2D generator of ~n rows.
func side2(n int) int {
	s := int(math.Sqrt(float64(n)))
	if s < 8 {
		s = 8
	}
	return s
}

// side3 returns the grid side for a 3D generator of ~n rows.
func side3(n int) int {
	s := int(math.Cbrt(float64(n)))
	if s < 4 {
		s = 4
	}
	return s
}

// Suite returns the 18 Table-I analogues in the paper's order.
func Suite() []Spec {
	return []Spec{
		{
			Name: "wang3", Group: "B",
			PaperN: 26064, PaperNnz: 177168, PaperRD: 6.8, PaperSym: true, PaperLvl: 10,
			Build: func(n int) *sparse.CSR { return BandedDevice(n, 0x57A1) },
		},
		{
			Name: "TSOPF_RS_b300_c2", Group: "B",
			PaperN: 28338, PaperNnz: 2943887, PaperRD: 103.88, PaperSym: false, PaperLvl: 180,
			Build: func(n int) *sparse.CSR {
				bs := 200
				blocks := n / bs
				if blocks < 4 {
					blocks = 4
				}
				return PowerFlow(PowerFlowOptions{
					Blocks: blocks, BlockSize: bs, BlockFill: 0.5,
					ChainSpan: 2, Seed: 0x7509F,
				})
			},
		},
		{
			Name: "3D_28984_Tetra", Group: "B",
			PaperN: 28984, PaperNnz: 285092, PaperRD: 9.84, PaperSym: false, PaperLvl: 34,
			Build: func(n int) *sparse.CSR {
				s := side3(n)
				return TetraMesh(s, s, s, 0x7E77A)
			},
		},
		{
			Name: "ibm_matrix_2", Group: "B",
			PaperN: 51448, PaperNnz: 537038, PaperRD: 10.44, PaperSym: false, PaperLvl: 29,
			Build: func(n int) *sparse.CSR {
				return Circuit(CircuitOptions{
					N: n, AvgDeg: 9, NumHubs: n / 4000, HubDeg: 200,
					UnsymFrac: 0.35, Locality: 96, Seed: 0x1B3A,
				})
			},
		},
		{
			Name: "fem_filter", Group: "B",
			PaperN: 74062, PaperNnz: 1731206, PaperRD: 23.38, PaperSym: true, PaperLvl: 554,
			Build: func(n int) *sparse.CSR {
				// Long thin domain → many small levels, the property
				// Table III stresses (R-16 = 1792, median level 3).
				nx := side2(n * 8)
				ny := n / nx
				if ny < 4 {
					ny = 4
				}
				return GridLaplacian(nx, ny, 1, Wide25, 1.0)
			},
		},
		{
			Name: "trans4", Group: "B",
			PaperN: 116835, PaperNnz: 749800, PaperRD: 6.42, PaperSym: false, PaperLvl: 20,
			Build: func(n int) *sparse.CSR {
				return Circuit(CircuitOptions{
					N: n, AvgDeg: 5, NumHubs: 4, HubDeg: n / 30,
					UnsymFrac: 0.5, Locality: 256, Seed: 0x7245,
				})
			},
		},
		{
			Name: "scircuit", Group: "B",
			PaperN: 170998, PaperNnz: 958936, PaperRD: 5.61, PaperSym: true, PaperLvl: 34,
			Build: func(n int) *sparse.CSR {
				return Circuit(CircuitOptions{
					N: n, AvgDeg: 4, NumHubs: n / 8000, HubDeg: 120,
					UnsymFrac: 0, Locality: 128, Seed: 0x5C1C,
				})
			},
		},
		{
			Name: "transient", Group: "B",
			PaperN: 178866, PaperNnz: 961368, PaperRD: 5.37, PaperSym: true, PaperLvl: 16,
			Build: func(n int) *sparse.CSR {
				return Circuit(CircuitOptions{
					N: n, AvgDeg: 4, NumHubs: 6, HubDeg: n / 40,
					UnsymFrac: 0, Locality: 512, Seed: 0x7247,
				})
			},
		},
		{
			Name: "offshore", Group: "A",
			PaperN: 259789, PaperNnz: 4242673, PaperRD: 16.33, PaperSym: true, PaperLvl: 74,
			Build: func(n int) *sparse.CSR {
				s := side3(n)
				return GridLaplacian(s, s, s, Star19, 1.0)
			},
		},
		{
			Name: "ASIC_320ks", Group: "B",
			PaperN: 321671, PaperNnz: 1316085, PaperRD: 4.09, PaperSym: true, PaperLvl: 16,
			Build: func(n int) *sparse.CSR {
				return Circuit(CircuitOptions{
					N: n, AvgDeg: 3, NumHubs: n / 10000, HubDeg: 300,
					UnsymFrac: 0, Locality: 1024, Seed: 0x320F5,
				})
			},
		},
		{
			Name: "af_shell3", Group: "A",
			PaperN: 504855, PaperNnz: 17562051, PaperRD: 34.79, PaperSym: true, PaperLvl: 630,
			Build: func(n int) *sparse.CSR {
				// Thin shell: long in x, short in y → hundreds of
				// small levels (Table III: 630 levels, median 5).
				nx := side2(n * 16)
				ny := n / nx
				if ny < 4 {
					ny = 4
				}
				return GridLaplacian(nx, ny, 1, Wide37, 1.0)
			},
		},
		{
			Name: "parabolic_fem", Group: "A",
			PaperN: 525825, PaperNnz: 3674625, PaperRD: 6.99, PaperSym: true, PaperLvl: 28,
			Build: func(n int) *sparse.CSR {
				s := side3(n)
				return GridLaplacian(s, s, s, Star7, 0.01)
			},
		},
		{
			Name: "ASIC_680ks", Group: "B",
			PaperN: 682712, PaperNnz: 1693767, PaperRD: 2.48, PaperSym: true, PaperLvl: 21,
			Build: func(n int) *sparse.CSR {
				return Circuit(CircuitOptions{
					N: n, AvgDeg: 2, NumHubs: n / 20000, HubDeg: 200,
					UnsymFrac: 0, Locality: 2048, Seed: 0x680F5,
				})
			},
		},
		{
			Name: "apache2", Group: "A",
			PaperN: 715176, PaperNnz: 4817870, PaperRD: 6.74, PaperSym: true, PaperLvl: 13,
			Build: func(n int) *sparse.CSR {
				s := side3(n)
				return GridLaplacian(s, s, s, Star7, 1.0)
			},
		},
		{
			Name: "tmt_sym", Group: "B",
			PaperN: 726713, PaperNnz: 5080961, PaperRD: 6.99, PaperSym: true, PaperLvl: 28,
			Build: func(n int) *sparse.CSR {
				s := side3(n)
				return GridLaplacian(s, s, s, Star7, 0.5)
			},
		},
		{
			Name: "ecology2", Group: "A",
			PaperN: 999999, PaperNnz: 4995991, PaperRD: 5.0, PaperSym: true, PaperLvl: 13,
			Build: func(n int) *sparse.CSR {
				s := side2(n)
				return GridLaplacian(s, s, 1, Star5, 0.01)
			},
		},
		{
			Name: "thermal2", Group: "A",
			PaperN: 1228045, PaperNnz: 8580313, PaperRD: 6.99, PaperSym: true, PaperLvl: 27,
			Build: func(n int) *sparse.CSR {
				s := side3(n)
				return GridLaplacian(s, s, s, Star7, 0.05)
			},
		},
		{
			Name: "G3_circuit", Group: "B",
			PaperN: 1585478, PaperNnz: 7660826, PaperRD: 4.83, PaperSym: true, PaperLvl: 13,
			Build: func(n int) *sparse.CSR {
				s := side2(n)
				return GridLaplacian(s, s, 1, Star5, 0.2)
			},
		},
	}
}

// ByName returns the spec with the given Table-I name.
func ByName(name string) (Spec, bool) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
