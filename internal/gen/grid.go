// Package gen generates the synthetic test matrices used throughout
// the reproduction. Real SuiteSparse matrices are not redistributable
// inside this offline repository, so gen provides analogues matched
// to the structural properties Table I reports (dimension, row
// density, pattern symmetry, level-count regime); mmio can load the
// real files when available.
package gen

import (
	"javelin/internal/sparse"
	"javelin/internal/util"
)

// Stencil selects the coupling pattern of a grid Laplacian.
type Stencil int

const (
	// Star5 is the standard 2D 5-point stencil (RD ≈ 5).
	Star5 Stencil = iota
	// Box9 is the 2D 9-point stencil (RD ≈ 9).
	Box9
	// Star7 is the 3D 7-point stencil (RD ≈ 7).
	Star7
	// Box27 is the 3D 27-point stencil (RD ≈ 27).
	Box27
	// Wide13 is a 2D radius-2 star (13-point, RD ≈ 13).
	Wide13
	// Wide25 is the 2D 5×5 box (25-point, RD ≈ 25).
	Wide25
	// Star19 is the 3D stencil with neighbors at Manhattan distance
	// ≤ 2 within the unit cube (19-point, RD ≈ 19).
	Star19
	// Wide37 is the 2D 7×7 box minus its corners (37-point, RD ≈ 37).
	Wide37
)

// GridLaplacian builds an SPD finite-difference Laplacian on an
// nx×ny(×nz) grid with the given stencil. For 2D stencils nz is
// ignored (treated as 1). The matrix is strictly diagonally dominant
// (diag = Σ|offdiag| + shift) and therefore nonsingular with a stable
// ILU(0).
func GridLaplacian(nx, ny, nz int, st Stencil, shift float64) *sparse.CSR {
	if nz < 1 {
		nz = 1
	}
	type off struct{ dx, dy, dz int }
	var offs []off
	add := func(dx, dy, dz int) { offs = append(offs, off{dx, dy, dz}) }
	switch st {
	case Star5:
		nz = 1
		add(1, 0, 0)
		add(0, 1, 0)
	case Box9:
		nz = 1
		add(1, 0, 0)
		add(0, 1, 0)
		add(1, 1, 0)
		add(1, -1, 0)
	case Star7:
		add(1, 0, 0)
		add(0, 1, 0)
		add(0, 0, 1)
	case Box27:
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					if dz > 0 || dz == 0 && (dy > 0 || dy == 0 && dx > 0) {
						add(dx, dy, dz)
					}
				}
			}
		}
	case Wide13:
		nz = 1
		add(1, 0, 0)
		add(0, 1, 0)
		add(1, 1, 0)
		add(1, -1, 0)
		add(2, 0, 0)
		add(0, 2, 0)
	case Wide25:
		nz = 1
		for dx := -2; dx <= 2; dx++ {
			for dy := -2; dy <= 2; dy++ {
				if dy > 0 || dy == 0 && dx > 0 {
					add(dx, dy, 0)
				}
			}
		}
	case Star19:
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					m := absInt(dx) + absInt(dy) + absInt(dz)
					if m == 0 || m > 2 {
						continue
					}
					if dz > 0 || dz == 0 && (dy > 0 || dy == 0 && dx > 0) {
						add(dx, dy, dz)
					}
				}
			}
		}
	case Wide37:
		nz = 1
		for dx := -3; dx <= 3; dx++ {
			for dy := -3; dy <= 3; dy++ {
				if absInt(dx) == 3 && absInt(dy) == 3 {
					continue
				}
				if absInt(dx) == 3 && absInt(dy) == 2 || absInt(dx) == 2 && absInt(dy) == 3 {
					continue
				}
				if dy > 0 || dy == 0 && dx > 0 {
					add(dx, dy, 0)
				}
			}
		}
	}
	n := nx * ny * nz
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	coo := sparse.NewCOO(n, n, n*(2*len(offs)+1))
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				deg := 0.0
				for _, o := range offs {
					x2, y2, z2 := x+o.dx, y+o.dy, z+o.dz
					if x2 < 0 || x2 >= nx || y2 < 0 || y2 >= ny || z2 < 0 || z2 >= nz {
						continue
					}
					j := idx(x2, y2, z2)
					coo.AddSym(i, j, -1.0)
					deg += 1.0
				}
				// Count couplings in the negative directions too (they
				// were added by AddSym from the neighbor's visit).
				for _, o := range offs {
					x2, y2, z2 := x-o.dx, y-o.dy, z-o.dz
					if x2 < 0 || x2 >= nx || y2 < 0 || y2 >= ny || z2 < 0 || z2 >= nz {
						continue
					}
					deg += 1.0
				}
				coo.Add(i, i, deg+shift)
			}
		}
	}
	return coo.ToCSR()
}

// TetraMesh builds an unsymmetric-pattern analogue of a tetrahedral
// FEM matrix: a jittered 3D 7-point grid where a random subset of the
// couplings appears on only one side (convection-like terms), plus a
// few random longer-range links per node.
func TetraMesh(nx, ny, nz int, seed uint64) *sparse.CSR {
	rng := util.NewRNG(seed)
	n := nx * ny * nz
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	coo := sparse.NewCOO(n, n, n*11)
	absRowSum := make([]float64, n)
	addDir := func(i, j int, v float64) {
		coo.Add(i, j, v)
		absRowSum[i] += abs(v)
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				nbr := [][3]int{{x + 1, y, z}, {x, y + 1, z}, {x, y, z + 1}}
				for _, p := range nbr {
					if p[0] >= nx || p[1] >= ny || p[2] >= nz {
						continue
					}
					j := idx(p[0], p[1], p[2])
					v := -(0.5 + rng.Float64())
					addDir(i, j, v)
					if rng.Float64() < 0.7 {
						// symmetric counterpart, slightly perturbed
						addDir(j, i, v*(0.8+0.4*rng.Float64()))
					}
				}
				// One random long-range "tet" link with 30% chance.
				if rng.Float64() < 0.3 {
					dx, dy, dz := rng.Intn(3)-1, rng.Intn(3)-1, rng.Intn(3)-1
					x2, y2, z2 := x+2*dx, y+2*dy, z+2*dz
					if x2 >= 0 && x2 < nx && y2 >= 0 && y2 < ny && z2 >= 0 && z2 < nz {
						j := idx(x2, y2, z2)
						if j != i {
							addDir(i, j, -0.5*rng.Float64())
						}
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, absRowSum[i]+1.0)
	}
	return coo.ToCSR()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
