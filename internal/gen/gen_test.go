package gen

import (
	"math"
	"testing"

	"javelin/internal/sparse"
)

func validateGenerated(t *testing.T, a *sparse.CSR, name string) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !a.HasFullDiagonal() {
		t.Fatalf("%s: missing diagonal entries", name)
	}
}

// diagonallyDominant checks strict row dominance: |a_ii| > Σ|a_ij|−ε.
func diagonallyDominant(a *sparse.CSR) bool {
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		var diag, off float64
		for k, j := range cols {
			if j == i {
				diag = math.Abs(vals[k])
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag < off-1e-9 {
			return false
		}
	}
	return true
}

func TestGridLaplacianShapes(t *testing.T) {
	cases := []struct {
		st   Stencil
		n    int
		rdLo float64
		rdHi float64
	}{
		{Star5, 20 * 20, 4, 5.2},
		{Box9, 20 * 20, 7.5, 9.2},
		{Star7, 8 * 8 * 8, 5.5, 7.2},
		{Box27, 8 * 8 * 8, 18, 27.2},
		{Wide13, 20 * 20, 10.5, 13.2},
		{Wide25, 20 * 20, 20, 25.2},
		{Star19, 8 * 8 * 8, 14, 19.2},
		{Wide37, 20 * 20, 29, 37.2},
	}
	for _, c := range cases {
		var a *sparse.CSR
		switch c.st {
		case Star7, Box27, Star19:
			a = GridLaplacian(8, 8, 8, c.st, 1)
		default:
			a = GridLaplacian(20, 20, 1, c.st, 1)
		}
		validateGenerated(t, a, c.st.goString())
		if a.N != c.n {
			t.Errorf("stencil %v: N=%d want %d", c.st, a.N, c.n)
		}
		rd := a.RowDensity()
		if rd < c.rdLo || rd > c.rdHi {
			t.Errorf("stencil %v: RD %.2f outside [%g, %g]", c.st, rd, c.rdLo, c.rdHi)
		}
		if !a.PatternSymmetric() {
			t.Errorf("stencil %v: pattern not symmetric", c.st)
		}
		if !a.NumericallySymmetric(1e-12) {
			t.Errorf("stencil %v: values not symmetric", c.st)
		}
		if !diagonallyDominant(a) {
			t.Errorf("stencil %v: not diagonally dominant", c.st)
		}
	}
}

// goString avoids adding a Stringer to the production type just for
// test labels.
func (s Stencil) goString() string {
	return map[Stencil]string{
		Star5: "Star5", Box9: "Box9", Star7: "Star7", Box27: "Box27",
		Wide13: "Wide13", Wide25: "Wide25", Star19: "Star19", Wide37: "Wide37",
	}[s]
}

func TestTetraMeshUnsymmetricButDominant(t *testing.T) {
	a := TetraMesh(8, 8, 8, 42)
	validateGenerated(t, a, "tetra")
	if a.PatternSymmetric() {
		t.Error("tetra pattern unexpectedly symmetric")
	}
	if !diagonallyDominant(a) {
		t.Error("tetra not diagonally dominant")
	}
}

func TestCircuitProperties(t *testing.T) {
	symOpt := CircuitOptions{N: 1000, AvgDeg: 4, NumHubs: 3, HubDeg: 60, UnsymFrac: 0, Locality: 50, Seed: 5}
	a := Circuit(symOpt)
	validateGenerated(t, a, "circuit-sym")
	if !a.PatternSymmetric() {
		t.Error("UnsymFrac=0 circuit should have symmetric pattern")
	}
	if !diagonallyDominant(a) {
		t.Error("circuit not dominant")
	}
	// Hub rows must be much denser than the median row.
	maxLen := 0
	for i := 0; i < a.N; i++ {
		if l := a.RowLen(i); l > maxLen {
			maxLen = l
		}
	}
	if maxLen < 30 {
		t.Errorf("no dense rail rows found (max row len %d)", maxLen)
	}

	unsymOpt := symOpt
	unsymOpt.UnsymFrac = 0.6
	unsymOpt.Seed = 6
	b := Circuit(unsymOpt)
	if b.PatternSymmetric() {
		t.Error("UnsymFrac=0.6 circuit should be unsymmetric")
	}
}

func TestPowerFlowDenseBlocks(t *testing.T) {
	a := PowerFlow(PowerFlowOptions{Blocks: 8, BlockSize: 50, BlockFill: 0.5, ChainSpan: 2, Seed: 7})
	validateGenerated(t, a, "power")
	if a.N != 400 {
		t.Fatalf("N=%d", a.N)
	}
	if rd := a.RowDensity(); rd < 15 {
		t.Errorf("power-flow RD %.1f; want dense blocks", rd)
	}
	if a.PatternSymmetric() {
		t.Error("power-flow pattern should be unsymmetric")
	}
}

func TestBandedDeviceBands(t *testing.T) {
	a := BandedDevice(512, 11)
	validateGenerated(t, a, "banded")
	if !a.PatternSymmetric() {
		t.Error("banded device pattern should be symmetric")
	}
	if rd := a.RowDensity(); rd < 5 || rd > 7.2 {
		t.Errorf("banded RD %.2f outside wang3 regime", rd)
	}
}

func TestSuiteCompleteAndDeterministic(t *testing.T) {
	suite := Suite()
	if len(suite) != 18 {
		t.Fatalf("suite has %d entries, want 18 (Table I)", len(suite))
	}
	groupA := 0
	for _, s := range suite {
		if s.Group == "A" {
			groupA++
		}
		a1 := s.Build(s.ScaledN(0.01))
		a2 := s.Build(s.ScaledN(0.01))
		if a1.Nnz() != a2.Nnz() {
			t.Errorf("%s: generator not deterministic", s.Name)
			continue
		}
		for k := range a1.Val {
			if a1.Val[k] != a2.Val[k] || a1.ColIdx[k] != a2.ColIdx[k] {
				t.Errorf("%s: generator not deterministic at entry %d", s.Name, k)
				break
			}
		}
		validateGenerated(t, a1, s.Name)
	}
	if groupA != 6 {
		t.Errorf("group A has %d matrices, want 6 (Table II)", groupA)
	}
}

func TestSuiteMatchesPaperSymmetryAndDensity(t *testing.T) {
	for _, s := range Suite() {
		a := s.Build(s.ScaledN(0.02))
		if got := a.PatternSymmetric(); got != s.PaperSym {
			t.Errorf("%s: pattern symmetric %v, paper says %v", s.Name, got, s.PaperSym)
		}
		rd := a.RowDensity()
		if rd < 0.3*s.PaperRD || rd > 2.5*s.PaperRD {
			t.Errorf("%s: RD %.2f far from paper %.2f", s.Name, rd, s.PaperRD)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("wang3"); !ok {
		t.Error("wang3 missing")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("nonexistent matrix found")
	}
}

func TestScaledNFloorsAndClamps(t *testing.T) {
	s, _ := ByName("wang3")
	if n := s.ScaledN(0.000001); n != 256 {
		t.Errorf("floor: %d", n)
	}
	if n := s.ScaledN(5.0); n != s.PaperN {
		t.Errorf("clamp: %d want %d", n, s.PaperN)
	}
	if n := s.ScaledN(1.0); n != s.PaperN {
		t.Errorf("full: %d want %d", n, s.PaperN)
	}
}
