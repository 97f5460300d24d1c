package bench

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"javelin/internal/gen"
	"javelin/internal/ilu"
	"javelin/internal/levelset"
	"javelin/internal/order"
	"javelin/internal/sparse"
)

// setupDigest holds FNV-64a digests of the setup analysis of one
// suite matrix at one scale. The input is the matrix the benchmark
// sets up: the generator's output with the zero-free-diagonal row
// permutation applied when it needs one.
//   - nd, rcm: order.ComputeND and order.ComputeRCM of that matrix;
//   - sym0, sym1: the RowPtr and ColIdx of ilu.SymbolicPattern(a, 0)
//     and (a, 1), where a is the matrix permuted by its ND ordering;
//   - split: the Perm, UpperLvlPtr, LowerLvlPtr and NUpper of
//     levelset.ComputeSplit on the ILU(0) pattern (lower(A+Aᵀ), the
//     default options), as Factorize computes it.
type setupDigest struct {
	matrix                     string
	scale                      float64
	nd, rcm, sym0, sym1, split uint64
}

// setupDigests pins the setup outputs. The table was generated from
// the map-based orderings and the elimination-only symbolic phase
// that the buffer-reusing code replaced, and that code reproduces it
// exactly; the goldens and the benchmark's trajectories depend on
// these outputs, so a change to any of them must be deliberate. Scale
// 0.02 is the goldens', 0.05 the benchmark's.
var setupDigests = []setupDigest{
	{"wang3", 0.02, 0x63280e30ddeae8e4, 0x7066a309ebb425a0, 0x9ad8bc015ad874c2, 0xbf8d93dc17df703a, 0x3ba13dac9a377d68},
	{"TSOPF_RS_b300_c2", 0.02, 0xae7cca724886fce4, 0x7a31296e2dfe45ac, 0x66bb6e1ed84dfa5e, 0x3bed467d09ea3c44, 0xcfaca36c7de56fe9},
	{"3D_28984_Tetra", 0.02, 0x632505dc96962ff3, 0x99b8563bcdedb1f7, 0xc7ac914e54da9c09, 0x0bd33e726d61b428, 0x422ead10a427488f},
	{"ibm_matrix_2", 0.02, 0x0a7b75349dc9f86d, 0xab9d41a41fb46b15, 0x85769550f29e3c8f, 0x4a0e1faf49bc026b, 0x90343e2b644ab01c},
	{"fem_filter", 0.02, 0x1fd72bf00f9a1906, 0xff82284816ee0ade, 0x358c2a17fa67ef53, 0xa477e2e33d0efea5, 0x72fd98d894d1bfd9},
	{"trans4", 0.02, 0x62188add33d2d89a, 0x97eb60000ce76c26, 0xe2057e6e6ba2b151, 0x1dc3dea7d337a5dc, 0x42142ea380fb5e77},
	{"scircuit", 0.02, 0xeb71745e738234e9, 0xae14414094795c41, 0xa02c41852a55571d, 0x4559cea0b4550fa4, 0x77618d299fef7fb3},
	{"transient", 0.02, 0xdbbdf300aebd2398, 0x330d463ace5f0a2c, 0x4efeb67cee142fb8, 0x53ad3d7eddffb635, 0x02be1b70e2f7f25a},
	{"offshore", 0.02, 0xf70fd516dfc0d6cc, 0x8311f1306c8435c8, 0x3df14c1c9f2edac3, 0x124545131300878a, 0x15778096ac8d8143},
	{"ASIC_320ks", 0.02, 0xb55d06496f590fd4, 0xde40cbfe4a68df48, 0x5c3d03f6fa405d5f, 0x99270a60336fc609, 0xe44a93c62149a7f5},
	{"af_shell3", 0.02, 0x8d0eb1e5f5ecc104, 0x727f09b92dd15b4c, 0x2a69e428eec67837, 0x52ad6dcc5cbea588, 0x3ee179950b64d91d},
	{"parabolic_fem", 0.02, 0xc1f540b7e46c2abc, 0x92039d903713c4b4, 0x35edeaa90eca263f, 0x5dd9ed51592ae00b, 0xa1cff9c0f4fde074},
	{"ASIC_680ks", 0.02, 0x7a6380153d789c31, 0x4a920e02c5b75555, 0xb1d279ea0f7ebf22, 0xe7d2e98d41c3f118, 0x7a4019ce0b0178c9},
	{"apache2", 0.02, 0x63d60b78657df6cf, 0x3ae9a7e7d9288eeb, 0x19f6dadedfeb5f69, 0x9a711c68e373828d, 0x78766185f191feeb},
	{"tmt_sym", 0.02, 0x63d60b78657df6cf, 0x3ae9a7e7d9288eeb, 0x19f6dadedfeb5f69, 0x9a711c68e373828d, 0x78766185f191feeb},
	{"ecology2", 0.02, 0x332b3267a581f7f0, 0xd7901243b1f3183c, 0xaf85afa3a415ec31, 0x564d9a4a20d9185d, 0x3af6fd0ec107f262},
	{"thermal2", 0.02, 0xf84b1c9c46fce92c, 0x3910afc2f74d2e88, 0xc23fbf0c60df7df5, 0x96bd4fe568e0ef30, 0x1b41e37044b5ac05},
	{"G3_circuit", 0.02, 0x40c524348b90c114, 0xe5968096b29687f0, 0xb4166e8eb626b24e, 0x28528c04392845a2, 0x49f98da2e9e8b7e1},
	{"wang3", 0.05, 0xb7e6e303e8b047d9, 0xf9edb92975aeaea1, 0xeb55adaba3ead393, 0x0a951b988661e1ed, 0xf2598fb6a6cd2af5},
	{"TSOPF_RS_b300_c2", 0.05, 0x1b9f0cb0bc10b072, 0x8a42e9b93fde387e, 0x9bc613e2ae5ab07d, 0xd344aaf6665a12af, 0x78e18416341f23e3},
	{"3D_28984_Tetra", 0.05, 0xfde0d0b4442cccd5, 0x94c76fda81099bed, 0xb0b08dcdeb279e6e, 0xac61969be7a0a52a, 0x1e5cfc824ffafc25},
	{"ibm_matrix_2", 0.05, 0xb253a204cb3d3867, 0x5ca43e0bc05909cf, 0x46015bb3e09d99ee, 0x380bccbf744df1a7, 0x666af9183180b1b2},
	{"fem_filter", 0.05, 0x8707b89824d83177, 0xce4f758ef9cc6007, 0xa6e2dc6b019bb5ea, 0xcd86c33628569f8b, 0xe828190eeb9b0ca1},
	{"trans4", 0.05, 0x0271169f6f3b82bc, 0x70c60d0acd866804, 0xd21755941ea7b0fb, 0x0c73c54a8d641193, 0x01b70bc5caee6269},
	{"scircuit", 0.05, 0xac72aad2ebcda644, 0xc4c42e5e313277e0, 0x10a5f624e17834a9, 0x24364fcfac9e8fb0, 0x38e462c474fc4924},
	{"transient", 0.05, 0x13715383dcfccc95, 0xafafa611ed8e6971, 0xbe5f54d53fab165c, 0x6e4d0a3ef3af094b, 0xab2ae60504e2294d},
	{"offshore", 0.05, 0xfc52611a5e2457ed, 0x00c4eef477022201, 0x5e2583c81db396c5, 0x268a729d5a3b5160, 0x96f0da7d3c1e337b},
	{"ASIC_320ks", 0.05, 0x87d9054d6dfd97a5, 0x06ea057b87e084c5, 0x8f829def0083017c, 0x24cc88e201cd4367, 0x7f3845bf4e7ffe8c},
	{"af_shell3", 0.05, 0xead96cd1468498b0, 0x1abc04edb6072630, 0x662fb10e1b68846f, 0xfafd131a3cf92131, 0x199fa8fe9d41805b},
	{"parabolic_fem", 0.05, 0xf84b1c9c46fce92c, 0x3910afc2f74d2e88, 0xc23fbf0c60df7df5, 0x96bd4fe568e0ef30, 0x1b41e37044b5ac05},
	{"ASIC_680ks", 0.05, 0x87c07d9ecf4a9569, 0x2c90fe256a9d2461, 0x4fe7d62136920875, 0x2afbc3eddba02ae7, 0xdfcb8a59a730cf1b},
	{"apache2", 0.05, 0xe052028a1f132889, 0xcde4bff4a8f52c85, 0xf04dcb0cbd25a1c8, 0x623c09fec9bdc9ba, 0x796ce3aa0f2023c8},
	{"tmt_sym", 0.05, 0x7f6e5a33fbb88620, 0xc1c636ca7a00b80c, 0x74ea53c26d81339f, 0x0936db258b13d85e, 0x441d06be8e15718a},
	{"ecology2", 0.05, 0x3f3c53837da92a94, 0x3428feb4172c1b28, 0x6375503850b12858, 0x1ca4e59ddc9b6c70, 0x654d624e0f167ad2},
	{"thermal2", 0.05, 0x2dc7f10639bdd425, 0x9d54fdac19dfe685, 0x75023e5302789206, 0x2918931bbb671bde, 0xf4b2a8af1042fa14},
	{"G3_circuit", 0.05, 0x408294080f4f0608, 0xb8e04ea381f41030, 0xafb158f56214e8ba, 0x7788ba9a1d95a968, 0x450c9a9947c06d0b},
}

// TestSetupDigests recomputes every digest of setupDigests and fails
// on any difference. A (matrix, scale) pair missing from the table
// fails with the line to add.
func TestSetupDigests(t *testing.T) {
	want := map[string]setupDigest{}
	for _, d := range setupDigests {
		want[fmt.Sprintf("%s@%g", d.matrix, d.scale)] = d
	}
	for _, scale := range []float64{0.02, 0.05} {
		for _, spec := range gen.Suite() {
			got := computeSetupDigest(spec, scale)
			key := fmt.Sprintf("%s@%g", spec.Name, scale)
			w, ok := want[key]
			if !ok {
				t.Errorf("%s: no digest; add\n\t{%q, %g, %#016x, %#016x, %#016x, %#016x, %#016x},",
					key, got.matrix, got.scale, got.nd, got.rcm, got.sym0, got.sym1, got.split)
				continue
			}
			for _, c := range []struct {
				name      string
				got, want uint64
			}{
				{"ComputeND", got.nd, w.nd},
				{"ComputeRCM", got.rcm, w.rcm},
				{"SymbolicPattern(a, 0)", got.sym0, w.sym0},
				{"SymbolicPattern(a, 1)", got.sym1, w.sym1},
				{"ComputeSplit", got.split, w.split},
			} {
				if c.got != c.want {
					t.Errorf("%s: %s digest %#016x, want %#016x", key, c.name, c.got, c.want)
				}
			}
		}
	}
}

func computeSetupDigest(spec gen.Spec, scale float64) setupDigest {
	m := spec.Build(spec.ScaledN(scale))
	if !m.HasFullDiagonal() {
		m = sparse.PermuteRows(m, order.ZeroFreeDiagonal(m))
	}
	d := setupDigest{matrix: spec.Name, scale: scale}
	nd := order.ComputeND(m)
	d.nd = digestInts(nd)
	d.rcm = digestInts(order.ComputeRCM(m))
	a := sparse.PermuteSym(m, nd, 1)
	pat0, err := ilu.SymbolicPattern(a, 0)
	if err != nil {
		panic(err)
	}
	pat1, err := ilu.SymbolicPattern(a, 1)
	if err != nil {
		panic(err)
	}
	d.sym0 = digestInts(pat0.RowPtr, pat0.ColIdx)
	d.sym1 = digestInts(pat1.RowPtr, pat1.ColIdx)
	s := levelset.ComputeSplit(pat0, levelset.LowerAAT, levelset.DefaultSplitOptions())
	d.split = digestInts(s.Perm, s.UpperLvlPtr, s.LowerLvlPtr, []int{s.NUpper})
	return d
}

// digestInts is the FNV-64a digest of the slices' values, each as
// eight little-endian bytes, with every slice's length before it.
func digestInts(xss ...[]int) uint64 {
	h := fnv.New64a()
	for _, xs := range xss {
		writeInt(h, len(xs))
		for _, x := range xs {
			writeInt(h, x)
		}
	}
	return h.Sum64()
}

func writeInt(h hash.Hash64, x int) {
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(x) >> (8 * i))
	}
	h.Write(b[:]) //nolint:errcheck
}
