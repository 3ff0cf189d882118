//go:build amd64 && !purego

#include "textflag.h"

// The packed row loops of row.go. Each is its Go loop with every ...SD
// instruction replaced by its ...PD form on a Y register, in the loop's
// operation order, over the leading len&^3 elements of its rows (AX counts
// elements done, CX is where the blocks end). A lane the Go loop skips
// (x == 0) is masked by VCMPPD predicate 4, NEQ_UQ — true for a NaN, which
// Go's x == 0 counts as present — and keeps its old value through VBLENDVPD.

DATA rowone<>+0(SB)/8, $1.0
GLOBL rowone<>(SB), RODATA|NOPTR, $8

// BLOCKS sets CX to the elements of len (a register) in whole blocks and
// zeroes AX.
#define BLOCKS(len) \
	MOVQ len, CX; \
	ANDQ $~3, CX; \
	XORQ AX, AX

// func addMulAVX2(d []float64, a float64, x []float64)
TEXT ·addMulAVX2(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), BX
	VBROADCASTSD a+24(FP), Y1
	MOVQ x_base+32(FP), SI
	BLOCKS(BX)
addmul:
	CMPQ AX, CX
	JGE  addmuldone
	VMULPD (SI)(AX*8), Y1, Y0
	VMOVUPD (DI)(AX*8), Y2
	VADDPD Y0, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  addmul
addmuldone:
	VZEROUPPER
	RET

// func subMulAVX2(d []float64, a float64, x []float64)
TEXT ·subMulAVX2(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), BX
	VBROADCASTSD a+24(FP), Y1
	MOVQ x_base+32(FP), SI
	BLOCKS(BX)
submul:
	CMPQ AX, CX
	JGE  submuldone
	VMULPD (SI)(AX*8), Y1, Y0
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD Y0, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  submul
submuldone:
	VZEROUPPER
	RET

// func mulAVX2(d, x []float64)
TEXT ·mulAVX2(SB), NOSPLIT, $0-48
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), BX
	MOVQ x_base+24(FP), SI
	BLOCKS(BX)
mul:
	CMPQ AX, CX
	JGE  muldone
	VMOVUPD (DI)(AX*8), Y0
	VMULPD (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  mul
muldone:
	VZEROUPPER
	RET

// func mulSquareAVX2(d, x []float64)
TEXT ·mulSquareAVX2(SB), NOSPLIT, $0-48
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), BX
	MOVQ x_base+24(FP), SI
	BLOCKS(BX)
mulsq:
	CMPQ AX, CX
	JGE  mulsqdone
	VMOVUPD (SI)(AX*8), Y1
	VMULPD Y1, Y1, Y1
	VMOVUPD (DI)(AX*8), Y0
	VMULPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  mulsq
mulsqdone:
	VZEROUPPER
	RET

// func divAVX2(d, x, y []float64)
TEXT ·divAVX2(SB), NOSPLIT, $0-72
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), BX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), DX
	BLOCKS(BX)
div:
	CMPQ AX, CX
	JGE  divdone
	VMOVUPD (SI)(AX*8), Y0
	VDIVPD (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  div
divdone:
	VZEROUPPER
	RET

// func cubicAVX2(d, x []float64, c *[4]float64)
TEXT ·cubicAVX2(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), BX
	MOVQ x_base+24(FP), SI
	MOVQ c+48(FP), R8
	VBROADCASTSD 0(R8), Y10
	VBROADCASTSD 8(R8), Y11
	VBROADCASTSD 16(R8), Y12
	VBROADCASTSD 24(R8), Y13
	BLOCKS(BX)
cubic:
	CMPQ AX, CX
	JGE  cubicdone
	VMOVUPD (SI)(AX*8), Y0
	VMULPD Y13, Y0, Y1 // x·c3
	VADDPD Y1, Y12, Y1 // c2 + …
	VMULPD Y1, Y0, Y1  // x·(…)
	VADDPD Y1, Y11, Y1 // c1 + …
	VMULPD Y1, Y0, Y1  // x·(…)
	VADDPD Y1, Y10, Y1 // c0 + …
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  cubic
cubicdone:
	VZEROUPPER
	RET

// func wilkeSumAVX2(d, xa, xb, mua, mub []float64, w4, phi float64)
TEXT ·wilkeSumAVX2(SB), NOSPLIT, $0-136
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), BX
	MOVQ xa_base+24(FP), SI
	MOVQ xb_base+48(FP), DX
	MOVQ mua_base+72(FP), R8
	MOVQ mub_base+96(FP), R9
	VBROADCASTSD w4+120(FP), Y10
	VBROADCASTSD phi+128(FP), Y11
	VBROADCASTSD rowone<>(SB), Y12
	VXORPD Y13, Y13, Y13
	BLOCKS(BX)
wilke:
	CMPQ AX, CX
	JGE  wilkedone
	VMOVUPD (R8)(AX*8), Y0
	VDIVPD (R9)(AX*8), Y0, Y0 // mua/mub
	VSQRTPD Y0, Y0
	VMULPD Y10, Y0, Y0        // r = √(…)·w4
	VADDPD Y0, Y12, Y0        // 1 + r
	VMOVUPD (DX)(AX*8), Y1    // xb
	VMULPD Y0, Y1, Y2         // xb·(1+r)
	VMULPD Y0, Y2, Y2         // ·(1+r)
	VMULPD Y11, Y2, Y2        // ·phi
	VMOVUPD (DI)(AX*8), Y3
	VADDPD Y2, Y3, Y2         // d + …
	VCMPPD $4, Y13, Y1, Y4    // xb ≠ 0
	VCMPPD $4, (SI)(AX*8), Y13, Y5 // xa ≠ 0
	VANDPD Y5, Y4, Y4
	VBLENDVPD Y4, Y2, Y3, Y3  // the sum where both are present, else d
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX
	JMP  wilke
wilkedone:
	VZEROUPPER
	RET

// func pairSumAVX2(da, db, xa, xb, f, s []float64)
TEXT ·pairSumAVX2(SB), NOSPLIT, $0-144
	MOVQ da_base+0(FP), DI
	MOVQ da_len+8(FP), BX
	MOVQ db_base+24(FP), R10
	MOVQ xa_base+48(FP), SI
	MOVQ xb_base+72(FP), DX
	MOVQ f_base+96(FP), R8
	MOVQ s_base+120(FP), R9
	VXORPD Y13, Y13, Y13
	BLOCKS(BX)
pair:
	CMPQ AX, CX
	JGE  pairdone
	VMOVUPD (R8)(AX*8), Y0
	VMULPD (R9)(AX*8), Y0, Y0 // D = f·s
	VMOVUPD (DX)(AX*8), Y1    // xb
	VDIVPD Y0, Y1, Y2         // xb/D
	VMOVUPD (DI)(AX*8), Y3
	VADDPD Y2, Y3, Y2         // da + xb/D
	VCMPPD $4, Y13, Y1, Y4    // xb ≠ 0
	VBLENDVPD Y4, Y2, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y1    // xa
	VDIVPD Y0, Y1, Y2         // xa/D
	VMOVUPD (R10)(AX*8), Y3
	VADDPD Y2, Y3, Y2         // db + xa/D
	VCMPPD $4, Y13, Y1, Y4    // xa ≠ 0
	VBLENDVPD Y4, Y2, Y3, Y3
	VMOVUPD Y3, (R10)(AX*8)
	ADDQ $4, AX
	JMP  pair
pairdone:
	VZEROUPPER
	RET
