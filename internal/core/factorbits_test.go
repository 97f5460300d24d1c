package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"javelin/internal/exec"
)

// factorBits pins the factor values of every testMatrices matrix
// under LS/ER/SR × ILU(0)/ILU(1) × MILU off/on × τ ∈ {0, 0.05}
// (MinRowsPerLevel 8): the FNV-64a digest of the permuted LU value
// array, little-endian float64 bits in storage order. They were
// recorded from the two-pointer merge kernel this package used before
// the position-map kernel, and match it at every thread count.
var factorBits = map[string]uint64{
	"banded/LS/ilu0/milu=false/tau=0":     0xf008518d0e4e5f59,
	"banded/LS/ilu0/milu=false/tau=0.05":  0x407c585dc7b791aa,
	"banded/LS/ilu0/milu=true/tau=0":      0xe420564ba75058a7,
	"banded/LS/ilu0/milu=true/tau=0.05":   0xd7e613df29d8a254,
	"banded/LS/ilu1/milu=false/tau=0":     0xb8737f9c8f5f07db,
	"banded/LS/ilu1/milu=false/tau=0.05":  0x8e03a5751ffc61f2,
	"banded/LS/ilu1/milu=true/tau=0":      0x926242e737058637,
	"banded/LS/ilu1/milu=true/tau=0.05":   0x55ebebc7490fc838,
	"banded/ER/ilu0/milu=false/tau=0":     0xf008518d0e4e5f59,
	"banded/ER/ilu0/milu=false/tau=0.05":  0x407c585dc7b791aa,
	"banded/ER/ilu0/milu=true/tau=0":      0x956ee7afad170d90,
	"banded/ER/ilu0/milu=true/tau=0.05":   0x86e0d8a7835d82ca,
	"banded/ER/ilu1/milu=false/tau=0":     0xb8737f9c8f5f07db,
	"banded/ER/ilu1/milu=false/tau=0.05":  0x8e03a5751ffc61f2,
	"banded/ER/ilu1/milu=true/tau=0":      0x926242e737058637,
	"banded/ER/ilu1/milu=true/tau=0.05":   0x098d0dded91952f5,
	"banded/SR/ilu0/milu=false/tau=0":     0xf008518d0e4e5f59,
	"banded/SR/ilu0/milu=false/tau=0.05":  0x407c585dc7b791aa,
	"banded/SR/ilu0/milu=true/tau=0":      0xe926ab492189c593,
	"banded/SR/ilu0/milu=true/tau=0.05":   0x86e0d8a7835d82ca,
	"banded/SR/ilu1/milu=false/tau=0":     0xb8737f9c8f5f07db,
	"banded/SR/ilu1/milu=false/tau=0.05":  0x8e03a5751ffc61f2,
	"banded/SR/ilu1/milu=true/tau=0":      0x45ef8367f47298e5,
	"banded/SR/ilu1/milu=true/tau=0.05":   0x098d0dded91952f5,
	"box9/LS/ilu0/milu=false/tau=0":       0x09304f658db98b71,
	"box9/LS/ilu0/milu=false/tau=0.05":    0x2d83e41cadebb8ba,
	"box9/LS/ilu0/milu=true/tau=0":        0x3f46804b3ad98705,
	"box9/LS/ilu0/milu=true/tau=0.05":     0x7dae15abf4b409ae,
	"box9/LS/ilu1/milu=false/tau=0":       0x009ec5b630889edb,
	"box9/LS/ilu1/milu=false/tau=0.05":    0xbe3b6b5efd564896,
	"box9/LS/ilu1/milu=true/tau=0":        0xf893e3d6d5a8b2b4,
	"box9/LS/ilu1/milu=true/tau=0.05":     0x60ff6b8ef37d308d,
	"box9/ER/ilu0/milu=false/tau=0":       0x09304f658db98b71,
	"box9/ER/ilu0/milu=false/tau=0.05":    0x2d83e41cadebb8ba,
	"box9/ER/ilu0/milu=true/tau=0":        0x703c9aafe699edc8,
	"box9/ER/ilu0/milu=true/tau=0.05":     0xb24704fe76efcd2d,
	"box9/ER/ilu1/milu=false/tau=0":       0x009ec5b630889edb,
	"box9/ER/ilu1/milu=false/tau=0.05":    0xbe3b6b5efd564896,
	"box9/ER/ilu1/milu=true/tau=0":        0xf893e3d6d5a8b2b4,
	"box9/ER/ilu1/milu=true/tau=0.05":     0x60ff6b8ef37d308d,
	"box9/SR/ilu0/milu=false/tau=0":       0x09304f658db98b71,
	"box9/SR/ilu0/milu=false/tau=0.05":    0x2d83e41cadebb8ba,
	"box9/SR/ilu0/milu=true/tau=0":        0x703c9aafe699edc8,
	"box9/SR/ilu0/milu=true/tau=0.05":     0xb24704fe76efcd2d,
	"box9/SR/ilu1/milu=false/tau=0":       0x009ec5b630889edb,
	"box9/SR/ilu1/milu=false/tau=0.05":    0xbe3b6b5efd564896,
	"box9/SR/ilu1/milu=true/tau=0":        0xf893e3d6d5a8b2b4,
	"box9/SR/ilu1/milu=true/tau=0.05":     0x60ff6b8ef37d308d,
	"circuit/LS/ilu0/milu=false/tau=0":    0xdc800b7b8fbc2f3e,
	"circuit/LS/ilu0/milu=false/tau=0.05": 0x470ab1a70189a040,
	"circuit/LS/ilu0/milu=true/tau=0":     0xda7e934116adfd8c,
	"circuit/LS/ilu0/milu=true/tau=0.05":  0xa974b22a5d34429c,
	"circuit/LS/ilu1/milu=false/tau=0":    0xe7da44d43cffb704,
	"circuit/LS/ilu1/milu=false/tau=0.05": 0xf50ced1a19e388ee,
	"circuit/LS/ilu1/milu=true/tau=0":     0xbb09de663de18d73,
	"circuit/LS/ilu1/milu=true/tau=0.05":  0xc0cf15f8dfca6092,
	"circuit/ER/ilu0/milu=false/tau=0":    0xdc800b7b8fbc2f3e,
	"circuit/ER/ilu0/milu=false/tau=0.05": 0x470ab1a70189a040,
	"circuit/ER/ilu0/milu=true/tau=0":     0xda7e934116adfd8c,
	"circuit/ER/ilu0/milu=true/tau=0.05":  0xa974b22a5d34429c,
	"circuit/ER/ilu1/milu=false/tau=0":    0xe7da44d43cffb704,
	"circuit/ER/ilu1/milu=false/tau=0.05": 0xf50ced1a19e388ee,
	"circuit/ER/ilu1/milu=true/tau=0":     0xbb09de663de18d73,
	"circuit/ER/ilu1/milu=true/tau=0.05":  0xc0cf15f8dfca6092,
	"circuit/SR/ilu0/milu=false/tau=0":    0xdc800b7b8fbc2f3e,
	"circuit/SR/ilu0/milu=false/tau=0.05": 0x470ab1a70189a040,
	"circuit/SR/ilu0/milu=true/tau=0":     0xda7e934116adfd8c,
	"circuit/SR/ilu0/milu=true/tau=0.05":  0xa974b22a5d34429c,
	"circuit/SR/ilu1/milu=false/tau=0":    0xe7da44d43cffb704,
	"circuit/SR/ilu1/milu=false/tau=0.05": 0xf50ced1a19e388ee,
	"circuit/SR/ilu1/milu=true/tau=0":     0xbb09de663de18d73,
	"circuit/SR/ilu1/milu=true/tau=0.05":  0xc0cf15f8dfca6092,
	"grid2d/LS/ilu0/milu=false/tau=0":     0x0328d926d7a956a7,
	"grid2d/LS/ilu0/milu=false/tau=0.05":  0x0328d926d7a956a7,
	"grid2d/LS/ilu0/milu=true/tau=0":      0xd671413273be856f,
	"grid2d/LS/ilu0/milu=true/tau=0.05":   0xd671413273be856f,
	"grid2d/LS/ilu1/milu=false/tau=0":     0xb454274ec3b89beb,
	"grid2d/LS/ilu1/milu=false/tau=0.05":  0xe78a0b7838d53346,
	"grid2d/LS/ilu1/milu=true/tau=0":      0x3396c0539b69ebe6,
	"grid2d/LS/ilu1/milu=true/tau=0.05":   0x641ab4b012b9b70b,
	"grid2d/ER/ilu0/milu=false/tau=0":     0x0328d926d7a956a7,
	"grid2d/ER/ilu0/milu=false/tau=0.05":  0x0328d926d7a956a7,
	"grid2d/ER/ilu0/milu=true/tau=0":      0xd671413273be856f,
	"grid2d/ER/ilu0/milu=true/tau=0.05":   0xd671413273be856f,
	"grid2d/ER/ilu1/milu=false/tau=0":     0xb454274ec3b89beb,
	"grid2d/ER/ilu1/milu=false/tau=0.05":  0xe78a0b7838d53346,
	"grid2d/ER/ilu1/milu=true/tau=0":      0x3396c0539b69ebe6,
	"grid2d/ER/ilu1/milu=true/tau=0.05":   0x641ab4b012b9b70b,
	"grid2d/SR/ilu0/milu=false/tau=0":     0x0328d926d7a956a7,
	"grid2d/SR/ilu0/milu=false/tau=0.05":  0x0328d926d7a956a7,
	"grid2d/SR/ilu0/milu=true/tau=0":      0xd671413273be856f,
	"grid2d/SR/ilu0/milu=true/tau=0.05":   0xd671413273be856f,
	"grid2d/SR/ilu1/milu=false/tau=0":     0xb454274ec3b89beb,
	"grid2d/SR/ilu1/milu=false/tau=0.05":  0xe78a0b7838d53346,
	"grid2d/SR/ilu1/milu=true/tau=0":      0x3396c0539b69ebe6,
	"grid2d/SR/ilu1/milu=true/tau=0.05":   0x641ab4b012b9b70b,
	"grid3d/LS/ilu0/milu=false/tau=0":     0x80364b37f09dd59f,
	"grid3d/LS/ilu0/milu=false/tau=0.05":  0xe904930f6887d886,
	"grid3d/LS/ilu0/milu=true/tau=0":      0x23dd6a0a41d95a98,
	"grid3d/LS/ilu0/milu=true/tau=0.05":   0xeffc540eefcaf376,
	"grid3d/LS/ilu1/milu=false/tau=0":     0x7bb20273699857d1,
	"grid3d/LS/ilu1/milu=false/tau=0.05":  0xcd5704833f553842,
	"grid3d/LS/ilu1/milu=true/tau=0":      0x38bad320170cfcbd,
	"grid3d/LS/ilu1/milu=true/tau=0.05":   0x916ea8f0de6a3c65,
	"grid3d/ER/ilu0/milu=false/tau=0":     0x80364b37f09dd59f,
	"grid3d/ER/ilu0/milu=false/tau=0.05":  0xe904930f6887d886,
	"grid3d/ER/ilu0/milu=true/tau=0":      0x23dd6a0a41d95a98,
	"grid3d/ER/ilu0/milu=true/tau=0.05":   0xeffc540eefcaf376,
	"grid3d/ER/ilu1/milu=false/tau=0":     0x7bb20273699857d1,
	"grid3d/ER/ilu1/milu=false/tau=0.05":  0xcd5704833f553842,
	"grid3d/ER/ilu1/milu=true/tau=0":      0x38bad320170cfcbd,
	"grid3d/ER/ilu1/milu=true/tau=0.05":   0x916ea8f0de6a3c65,
	"grid3d/SR/ilu0/milu=false/tau=0":     0x80364b37f09dd59f,
	"grid3d/SR/ilu0/milu=false/tau=0.05":  0xe904930f6887d886,
	"grid3d/SR/ilu0/milu=true/tau=0":      0x23dd6a0a41d95a98,
	"grid3d/SR/ilu0/milu=true/tau=0.05":   0xeffc540eefcaf376,
	"grid3d/SR/ilu1/milu=false/tau=0":     0x7bb20273699857d1,
	"grid3d/SR/ilu1/milu=false/tau=0.05":  0xcd5704833f553842,
	"grid3d/SR/ilu1/milu=true/tau=0":      0x38bad320170cfcbd,
	"grid3d/SR/ilu1/milu=true/tau=0.05":   0x916ea8f0de6a3c65,
	"power/LS/ilu0/milu=false/tau=0":      0xb9e94275515323d9,
	"power/LS/ilu0/milu=false/tau=0.05":   0xf1756eb0bedd2ff3,
	"power/LS/ilu0/milu=true/tau=0":       0xb45b59666ff87524,
	"power/LS/ilu0/milu=true/tau=0.05":    0x47c0fed6a65c8fc3,
	"power/LS/ilu1/milu=false/tau=0":      0x0fe9e63497b1a309,
	"power/LS/ilu1/milu=false/tau=0.05":   0x04c02de2b87bba4a,
	"power/LS/ilu1/milu=true/tau=0":       0x6cf814aefd944e55,
	"power/LS/ilu1/milu=true/tau=0.05":    0x83714627664c2928,
	"power/ER/ilu0/milu=false/tau=0":      0xb9e94275515323d9,
	"power/ER/ilu0/milu=false/tau=0.05":   0xf1756eb0bedd2ff3,
	"power/ER/ilu0/milu=true/tau=0":       0xb45b59666ff87524,
	"power/ER/ilu0/milu=true/tau=0.05":    0x47c0fed6a65c8fc3,
	"power/ER/ilu1/milu=false/tau=0":      0x0fe9e63497b1a309,
	"power/ER/ilu1/milu=false/tau=0.05":   0x04c02de2b87bba4a,
	"power/ER/ilu1/milu=true/tau=0":       0x6cf814aefd944e55,
	"power/ER/ilu1/milu=true/tau=0.05":    0x83714627664c2928,
	"power/SR/ilu0/milu=false/tau=0":      0xb9e94275515323d9,
	"power/SR/ilu0/milu=false/tau=0.05":   0xf1756eb0bedd2ff3,
	"power/SR/ilu0/milu=true/tau=0":       0xb45b59666ff87524,
	"power/SR/ilu0/milu=true/tau=0.05":    0xc05092d2b64e37ba,
	"power/SR/ilu1/milu=false/tau=0":      0x0fe9e63497b1a309,
	"power/SR/ilu1/milu=false/tau=0.05":   0x04c02de2b87bba4a,
	"power/SR/ilu1/milu=true/tau=0":       0x6cf814aefd944e55,
	"power/SR/ilu1/milu=true/tau=0.05":    0x83714627664c2928,
	"tetra/LS/ilu0/milu=false/tau=0":      0x387951ee768331b5,
	"tetra/LS/ilu0/milu=false/tau=0.05":   0x875934ff88c791e2,
	"tetra/LS/ilu0/milu=true/tau=0":       0x90363a0d9896020c,
	"tetra/LS/ilu0/milu=true/tau=0.05":    0x36943bcc61d511d9,
	"tetra/LS/ilu1/milu=false/tau=0":      0x0a75df016a56c1f8,
	"tetra/LS/ilu1/milu=false/tau=0.05":   0x70479d0db78d08be,
	"tetra/LS/ilu1/milu=true/tau=0":       0x8e212bb9eff52c58,
	"tetra/LS/ilu1/milu=true/tau=0.05":    0xb36139c5cda8c08a,
	"tetra/ER/ilu0/milu=false/tau=0":      0x387951ee768331b5,
	"tetra/ER/ilu0/milu=false/tau=0.05":   0x875934ff88c791e2,
	"tetra/ER/ilu0/milu=true/tau=0":       0xb7202af451b9b596,
	"tetra/ER/ilu0/milu=true/tau=0.05":    0x36943bcc61d511d9,
	"tetra/ER/ilu1/milu=false/tau=0":      0x0a75df016a56c1f8,
	"tetra/ER/ilu1/milu=false/tau=0.05":   0x70479d0db78d08be,
	"tetra/ER/ilu1/milu=true/tau=0":       0x489ff15bc9e5792b,
	"tetra/ER/ilu1/milu=true/tau=0.05":    0xb36139c5cda8c08a,
	"tetra/SR/ilu0/milu=false/tau=0":      0x387951ee768331b5,
	"tetra/SR/ilu0/milu=false/tau=0.05":   0x875934ff88c791e2,
	"tetra/SR/ilu0/milu=true/tau=0":       0xb7202af451b9b596,
	"tetra/SR/ilu0/milu=true/tau=0.05":    0x36943bcc61d511d9,
	"tetra/SR/ilu1/milu=false/tau=0":      0x0a75df016a56c1f8,
	"tetra/SR/ilu1/milu=false/tau=0.05":   0x70479d0db78d08be,
	"tetra/SR/ilu1/milu=true/tau=0":       0x489ff15bc9e5792b,
	"tetra/SR/ilu1/milu=true/tau=0.05":    0xb36139c5cda8c08a,
}

// digestValues is the FNV-64a digest of v's bits.
func digestValues(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:]) //nolint:errcheck
	}
	return h.Sum64()
}

// TestFactorBits reproduces every pinned digest at Threads 1-4, after
// Factorize and after a Refactorize. At Threads > 1 each pass opens its
// factor region on Threads lanes (upper-level row ranges, lower rows
// and corner groups shared among them). Run it at GOMAXPROCS=1, where
// every dispatched region finishes on one P, and at the default.
func TestFactorBits(t *testing.T) {
	rt := exec.New(4)
	defer rt.Close()
	ms := testMatrices(t)
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := ms[name]
		for _, method := range []LowerMethod{LowerNone, LowerER, LowerSR} {
			for _, fill := range []int{0, 1} {
				for _, milu := range []bool{false, true} {
					for _, tau := range []float64{0, 0.05} {
						key := fmt.Sprintf("%s/%v/ilu%d/milu=%t/tau=%g", name, method, fill, milu, tau)
						want, ok := factorBits[key]
						if !ok {
							t.Fatalf("%s: no pinned digest", key)
						}
						for threads := 1; threads <= 4; threads++ {
							opt := DefaultOptions()
							opt.Threads = threads
							opt.Runtime = rt
							opt.Lower = method
							opt.FillLevel = fill
							opt.Modified = milu
							opt.DropTol = tau
							opt.Split.MinRowsPerLevel = 8
							e, err := Factorize(a, opt)
							if err != nil {
								t.Fatalf("%s threads=%d: Factorize: %v", key, threads, err)
							}
							check := func(step string) {
								if got := digestValues(e.Factor().LU.Val); got != want {
									t.Errorf("%s threads=%d %s: digest %#016x, want %#016x", key, threads, step, got, want)
								}
							}
							check("Factorize")
							if err := e.Refactorize(a); err != nil {
								t.Fatalf("%s threads=%d: Refactorize: %v", key, threads, err)
							}
							check("Refactorize")
							e.Close()
						}
					}
				}
			}
		}
	}
}
