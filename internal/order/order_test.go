package order

import (
	"testing"

	"javelin/internal/gen"
	"javelin/internal/levelset"
	"javelin/internal/sparse"
)

func bandwidth(a *sparse.CSR) int {
	bw := 0
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			d := i - j
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

func allPermsValid(t *testing.T, a *sparse.CSR) {
	t.Helper()
	for _, m := range []Method{Natural, RCM, AMD, ND} {
		p := Compute(m, a)
		if err := p.Validate(); err != nil {
			t.Errorf("%v: invalid perm: %v", m, err)
		}
		if len(p) != a.N {
			t.Errorf("%v: length %d != %d", m, len(p), a.N)
		}
	}
}

func TestAllOrderingsProduceValidPermutations(t *testing.T) {
	mats := []*sparse.CSR{
		gen.GridLaplacian(12, 12, 1, gen.Star5, 1),
		gen.TetraMesh(5, 5, 5, 2),
		gen.Circuit(gen.CircuitOptions{N: 300, AvgDeg: 3, NumHubs: 2, HubDeg: 25, UnsymFrac: 0.4, Locality: 30, Seed: 4}),
	}
	for _, a := range mats {
		allPermsValid(t, a)
	}
}

func TestRCMReducesBandwidthOnShuffledGrid(t *testing.T) {
	a := gen.GridLaplacian(20, 20, 1, gen.Star5, 1)
	// Shuffle to destroy the natural band, then RCM must restore a
	// narrow band.
	rng := newTestRNG()
	p := sparse.Perm(rng.Perm(a.N))
	shuffled := sparse.PermuteSym(a, p, 1)
	before := bandwidth(shuffled)
	rcm := ComputeRCM(shuffled)
	after := bandwidth(sparse.PermuteSym(shuffled, rcm, 1))
	if after >= before/4 {
		t.Errorf("RCM bandwidth %d not much below shuffled %d", after, before)
	}
	// On a 20×20 grid the optimal band is ~20; allow slack.
	if after > 60 {
		t.Errorf("RCM bandwidth %d too large for a 20x20 grid", after)
	}
}

func TestNDIncreasesLevelParallelismOverRCM(t *testing.T) {
	// The paper's reason for choosing ND: bigger level sets (more
	// concurrency) than RCM. Compare median level sizes.
	a := gen.GridLaplacian(40, 40, 1, gen.Star5, 1)
	rcm := sparse.PermuteSym(a, ComputeRCM(a), 1)
	nd := sparse.PermuteSym(a, ComputeND(a), 1)
	lvRCM := levelset.Compute(rcm, levelset.LowerAAT)
	lvND := levelset.Compute(nd, levelset.LowerAAT)
	if lvND.Count >= lvRCM.Count {
		t.Errorf("ND levels %d not fewer than RCM levels %d", lvND.Count, lvRCM.Count)
	}
}

func TestAMDReducesExactFillVersusShuffled(t *testing.T) {
	// AMD minimizes fill of the exact factorization; compare the full
	// symbolic fill (ILU(k) with k = N admits everything).
	a := gen.GridLaplacian(15, 15, 1, gen.Star5, 1)
	rng := newTestRNG()
	shuf := sparse.PermuteSym(a, sparse.Perm(rng.Perm(a.N)), 1)
	amd := sparse.PermuteSym(shuf, ComputeAMD(shuf), 1)
	fillShuf := exactFill(t, shuf)
	fillAMD := exactFill(t, amd)
	if float64(fillAMD) > 0.7*float64(fillShuf) {
		t.Errorf("AMD exact fill %d not well below shuffled natural %d", fillAMD, fillShuf)
	}
	// And ILU(1) fill should at least stay in the same ballpark.
	if f1 := ilu1Fill(t, amd); f1 > 2*ilu1Fill(t, shuf) {
		t.Errorf("AMD ILU(1) fill %d blew up", f1)
	}
}

func TestZeroFreeDiagonalOnPermutedIdentity(t *testing.T) {
	n := 12
	coo := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, (i*5+3)%n, 1)
	}
	a := coo.ToCSR()
	p := ZeroFreeDiagonal(a)
	b := sparse.PermuteRows(a, p)
	if !b.HasFullDiagonal() {
		t.Fatal("diagonal missing after zero-free permutation")
	}
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{Natural: "NAT", RCM: "RCM", AMD: "AMD", ND: "ND"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q want %q", m, m.String(), s)
		}
	}
}

// BenchmarkComputeND orders the pde benchmark matrix (parabolic_fem at
// scale 0.05, n = 24,389); run it with -benchmem for the scratch the
// dissection allocates per call.
func BenchmarkComputeND(b *testing.B) {
	spec, _ := gen.ByName("parabolic_fem")
	a := spec.Build(spec.ScaledN(0.05))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ndSink = ComputeND(a)
	}
}

var ndSink sparse.Perm
