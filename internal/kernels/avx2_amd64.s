// AVX2 kernel bodies for the "avx2" table. The bitwise contract
// (kernels.go "Determinism contract") shapes every routine here:
//
//   - Separate VMULPD/VADDPD/VSUBPD only — never VFMADD. FMA rounds
//     once where mul-then-add rounds twice, so a fused kernel would
//     produce different low bits and change every solver trajectory.
//   - Elementwise kernels (axpy, scale, panel update) vectorize
//     freely: each output element is one mul and one add/sub, the
//     same rounding steps as the Go bodies in any lane arrangement.
//   - Reduction kernels (the spmv and trisolve row bodies) vectorize
//     only the independent multiplies: four products are formed in
//     YMM lanes, then folded into the accumulator with four *scalar*
//     chained VADDSD/VSUBSD in ascending index order — exactly the
//     reference association. Remainder elements run the same scalar
//     tail the Go variants use.
//
// VEX encodings are used throughout (including the scalar tails) so
// the upper YMM state never mixes with legacy SSE, and every routine
// ends with VZEROUPPER before returning to Go code.
//
// Exit-path audit: each of the 6 TEXT blocks has exactly one RET,
// reached by every early-out jump through the block's single epilogue,
// and each RET is immediately preceded by VZEROUPPER — 6 of each, 1:1.
// (A naive `grep -c VZEROUPPER` reports more, because the mentions in
// this header count too; the asmvet analyzer strips comments before
// matching.) Both this pairing and the no-FMA rule above are enforced
// by `javelin-vet` (internal/analyzers: asmvet), which blocks CI on
// any RET in an AVX-bodied TEXT block that is not preceded by
// VZEROUPPER and on any VFMADD*/VFNMADD*/VFMSUB*/VFNMSUB* opcode.

//go:build amd64 && !purego

#include "textflag.h"

// func axpyAVX2(alpha float64, x, y []float64)
// y[i] += alpha*x[i] for i < len(x), 16 elements per iteration.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	VBROADCASTSD alpha+0(FP), Y0
	XORQ         AX, AX

axpy16:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $16
	JLT     axpy4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 64(SI)(AX*8), Y3
	VMOVUPD 96(SI)(AX*8), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     axpy16

axpy4:
	CMPQ    DX, $4
	JLT     axpytail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	MOVQ    CX, DX
	SUBQ    AX, DX
	JMP     axpy4

axpytail:
	CMPQ   AX, CX
	JGE    axpydone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpytail

axpydone:
	VZEROUPPER
	RET

// func scaleAVX2(alpha float64, x []float64)
// x[i] *= alpha, 16 elements per iteration.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-32
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	VBROADCASTSD alpha+0(FP), Y0
	XORQ         AX, AX

scale16:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $16
	JLT     scale4
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VMOVUPD Y1, (SI)(AX*8)
	VMOVUPD Y2, 32(SI)(AX*8)
	VMOVUPD Y3, 64(SI)(AX*8)
	VMOVUPD Y4, 96(SI)(AX*8)
	ADDQ    $16, AX
	JMP     scale16

scale4:
	CMPQ    DX, $4
	JLT     scaletail
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ    $4, AX
	MOVQ    CX, DX
	SUBQ    AX, DX
	JMP     scale4

scaletail:
	CMPQ   AX, CX
	JGE    scaledone
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD X1, (SI)(AX*8)
	INCQ   AX
	JMP    scaletail

scaledone:
	VZEROUPPER
	RET

// func panelUpdateAVX2(xb []float64, k int, xr []float64, vals []float64, colIdx []int, lo, hi int)
// For p in [lo,hi): xr[j] -= vals[p] * xb[colIdx[p]*k + j], j < len(xr).
// The inner j loop is elementwise (one mul, one sub per element) so
// it vectorizes freely; k is typically 4–8, so an 8-wide step leads.
TEXT ·panelUpdateAVX2(SB), NOSPLIT, $0-120
	MOVQ xb_base+0(FP), SI
	MOVQ k+24(FP), R8
	MOVQ xr_base+32(FP), DI
	MOVQ xr_len+40(FP), CX
	MOVQ vals_base+56(FP), R9
	MOVQ colIdx_base+80(FP), R10
	MOVQ lo+104(FP), BX
	MOVQ hi+112(FP), R11

ploop:
	CMPQ         BX, R11
	JGE          pdone
	MOVQ         (R10)(BX*8), DX  // colIdx[p]
	IMULQ        R8, DX           // * k
	LEAQ         (SI)(DX*8), R12  // &xb[colIdx[p]*k]
	VBROADCASTSD (R9)(BX*8), Y0   // vals[p]
	XORQ         AX, AX

pinner8:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $8
	JLT     pinner4
	VMOVUPD (R12)(AX*8), Y1
	VMOVUPD 32(R12)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VSUBPD  Y1, Y3, Y3
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     pinner8

pinner4:
	CMPQ    DX, $4
	JLT     pinnertail
	VMOVUPD (R12)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI)(AX*8), Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX

pinnertail:
	CMPQ   AX, CX
	JGE    pnext
	VMOVSD (R12)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(AX*8), X3
	VSUBSD X1, X3, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ   AX
	JMP    pinnertail

pnext:
	INCQ BX
	JMP  ploop

pdone:
	VZEROUPPER
	RET

// func spmvRowsAVX2(rowPtr, colIdx []int, vals, x, y []float64, lo, hi int)
// y[i] = Σ vals[k]*x[colIdx[k]] over row i, for i in [lo,hi): a single
// chained accumulation per row in ascending index order. Blocks of
// four form their products in YMM lanes (independent — safe to
// vectorize), then fold into the accumulator with four scalar adds in
// reference order. The row loop lives in asm so short rows do not pay
// a Go→asm call each.
TEXT ·spmvRowsAVX2(SB), NOSPLIT, $0-136
	MOVQ rowPtr_base+0(FP), R8
	MOVQ colIdx_base+24(FP), R9
	MOVQ vals_base+48(FP), R11
	MOVQ x_base+72(FP), R10
	MOVQ y_base+96(FP), R13
	MOVQ lo+120(FP), BX
	MOVQ hi+128(FP), R15

smrow:
	CMPQ   BX, R15
	JGE    smdone
	MOVQ   (R8)(BX*8), SI  // row start
	MOVQ   8(R8)(BX*8), R14 // row end
	VXORPD X0, X0, X0

sm4:
	MOVQ         R14, DX
	SUBQ         SI, DX
	CMPQ         DX, $4
	JLT          smtail
	MOVQ         (R9)(SI*8), DX
	MOVQ         8(R9)(SI*8), R12
	VMOVSD       (R10)(DX*8), X1
	VMOVHPD      (R10)(R12*8), X1, X1
	MOVQ         16(R9)(SI*8), DX
	MOVQ         24(R9)(SI*8), R12
	VMOVSD       (R10)(DX*8), X2
	VMOVHPD      (R10)(R12*8), X2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VMULPD       (R11)(SI*8), Y1, Y1
	VADDSD       X1, X0, X0
	VPERMILPD    $1, X1, X3
	VADDSD       X3, X0, X0
	VEXTRACTF128 $1, Y1, X2
	VADDSD       X2, X0, X0
	VPERMILPD    $1, X2, X3
	VADDSD       X3, X0, X0
	ADDQ         $4, SI
	JMP          sm4

smtail:
	CMPQ   SI, R14
	JGE    smstore
	MOVQ   (R9)(SI*8), DX
	VMOVSD (R10)(DX*8), X1
	VMULSD (R11)(SI*8), X1, X1
	VADDSD X1, X0, X0
	INCQ   SI
	JMP    smtail

smstore:
	VMOVSD X0, (R13)(BX*8)
	INCQ   BX
	JMP    smrow

smdone:
	VZEROUPPER
	RET

// func triLowerAVX2(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int)
// Forward substitution, rows ascending:
//   x[r] = ((x[r] − v·x) − v·x) − … over [rowPtr[r], diagPos[r]).
TEXT ·triLowerAVX2(SB), NOSPLIT, $0-136
	MOVQ rowPtr_base+0(FP), R8
	MOVQ diagPos_base+24(FP), R9
	MOVQ colIdx_base+48(FP), R10
	MOVQ vals_base+72(FP), R11
	MOVQ x_base+96(FP), DI
	MOVQ lo+120(FP), BX
	MOVQ hi+128(FP), R15

tlrow:
	CMPQ   BX, R15
	JGE    tldone
	MOVQ   (R8)(BX*8), SI  // kLo
	MOVQ   (R9)(BX*8), R14 // diagPos[r]
	VMOVSD (DI)(BX*8), X0  // s = x[r]

tl4:
	MOVQ         R14, DX
	SUBQ         SI, DX
	CMPQ         DX, $4
	JLT          tltail
	MOVQ         (R10)(SI*8), DX
	MOVQ         8(R10)(SI*8), R12
	VMOVSD       (DI)(DX*8), X1
	VMOVHPD      (DI)(R12*8), X1, X1
	MOVQ         16(R10)(SI*8), DX
	MOVQ         24(R10)(SI*8), R12
	VMOVSD       (DI)(DX*8), X2
	VMOVHPD      (DI)(R12*8), X2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VMULPD       (R11)(SI*8), Y1, Y1
	VSUBSD       X1, X0, X0
	VPERMILPD    $1, X1, X3
	VSUBSD       X3, X0, X0
	VEXTRACTF128 $1, Y1, X2
	VSUBSD       X2, X0, X0
	VPERMILPD    $1, X2, X3
	VSUBSD       X3, X0, X0
	ADDQ         $4, SI
	JMP          tl4

tltail:
	CMPQ   SI, R14
	JGE    tlstore
	MOVQ   (R10)(SI*8), DX
	VMOVSD (DI)(DX*8), X1
	VMULSD (R11)(SI*8), X1, X1
	VSUBSD X1, X0, X0
	INCQ   SI
	JMP    tltail

tlstore:
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    tlrow

tldone:
	VZEROUPPER
	RET

// func triUpperAVX2(rowPtr, diagPos, colIdx []int, vals, x []float64, lo, hi int)
// Backward substitution, rows descending: the same subtraction chain
// over (diagPos[r], rowPtr[r+1]), then x[r] = s / vals[diagPos[r]].
TEXT ·triUpperAVX2(SB), NOSPLIT, $0-136
	MOVQ rowPtr_base+0(FP), R8
	MOVQ diagPos_base+24(FP), R9
	MOVQ colIdx_base+48(FP), R10
	MOVQ vals_base+72(FP), R11
	MOVQ x_base+96(FP), DI
	MOVQ lo+120(FP), R15
	MOVQ hi+128(FP), BX
	DECQ BX                       // r = hi-1

turow:
	CMPQ   BX, R15
	JLT    tudone
	MOVQ   (R9)(BX*8), R13  // dp
	LEAQ   1(R13), SI       // k = dp+1
	MOVQ   8(R8)(BX*8), R14 // rowPtr[r+1]
	VMOVSD (DI)(BX*8), X0   // s = x[r]

tu4:
	MOVQ         R14, DX
	SUBQ         SI, DX
	CMPQ         DX, $4
	JLT          tutail
	MOVQ         (R10)(SI*8), DX
	MOVQ         8(R10)(SI*8), R12
	VMOVSD       (DI)(DX*8), X1
	VMOVHPD      (DI)(R12*8), X1, X1
	MOVQ         16(R10)(SI*8), DX
	MOVQ         24(R10)(SI*8), R12
	VMOVSD       (DI)(DX*8), X2
	VMOVHPD      (DI)(R12*8), X2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VMULPD       (R11)(SI*8), Y1, Y1
	VSUBSD       X1, X0, X0
	VPERMILPD    $1, X1, X3
	VSUBSD       X3, X0, X0
	VEXTRACTF128 $1, Y1, X2
	VSUBSD       X2, X0, X0
	VPERMILPD    $1, X2, X3
	VSUBSD       X3, X0, X0
	ADDQ         $4, SI
	JMP          tu4

tutail:
	CMPQ   SI, R14
	JGE    tustore
	MOVQ   (R10)(SI*8), DX
	VMOVSD (DI)(DX*8), X1
	VMULSD (R11)(SI*8), X1, X1
	VSUBSD X1, X0, X0
	INCQ   SI
	JMP    tutail

tustore:
	VMOVSD (R11)(R13*8), X4 // vals[dp]
	VDIVSD X4, X0, X0       // s / diag
	VMOVSD X0, (DI)(BX*8)
	DECQ   BX
	JMP    turow

tudone:
	VZEROUPPER
	RET
