//go:build amd64 && !purego

#include "textflag.h"

// The packed stencil rows of stencil.go. Each is its Go loop with every
// ...SD instruction replaced by its ...PD form on a Y register, in the
// loop's operation order (VSUBPD b, a, d is d = a − b), over the leading
// len(dst)&^3 points of the row: AX counts the points done, CX is where the
// blocks end, and one register per stencil tap points at that tap of point 0
// in the wrapper's cut s, so a block's tap is at (tap)(AX*8) whatever the
// stride. No FMA: a product is rounded before it is added, as in the Go
// statement. A set and an add form of each row are two loops on one body.

// BLOCKEND sets CX to the points of dst in whole blocks and zeroes AX.
#define BLOCKEND \
	MOVQ dst_len+8(FP), CX; \
	ANDQ $~3, CX; \
	XORQ AX, AX

// TERM adds weight·(plus − minus) of the block at AX to Y0, through Y1:
// Y0 = Y0 + w·(p − m).
#define TERM(plus, minus, w) \
	VMOVUPD (plus)(AX*8), Y1; \
	VSUBPD (minus)(AX*8), Y1, Y1; \
	VMULPD Y1, w, Y1; \
	VADDPD Y1, Y0, Y0

// FIRST sets Y0 = w·(p − m) of the block at AX.
#define FIRST(plus, minus, w) \
	VMOVUPD (plus)(AX*8), Y0; \
	VSUBPD (minus)(AX*8), Y0, Y0; \
	VMULPD Y0, w, Y0

// STORE writes Y0 to the block of dst at AX; ACCUM adds the block of dst
// into Y0 (d·met) and writes the sum: the compiled Go loop's form, so of two
// NaNs the sum keeps d·met's on both paths.
#define STORE \
	VMOVUPD Y0, (DI)(AX*8)

#define ACCUM \
	VADDPD (DI)(AX*8), Y0, Y0; \
	STORE

// D8 sets Y0 to the eighth-order difference of the block at AX: taps +1…+4
// in R12, R13, BX, DX, taps −1…−4 in R11, R10, R9, R8, weights in Y10–Y13.
#define D8 \
	FIRST(R12, R11, Y10); \
	TERM(R13, R10, Y11); \
	TERM(BX, R9, Y12); \
	TERM(DX, R8, Y13)

// TAPS8 points R8…R11 at taps −4…−1 and R12, R13, BX, DX at taps +1…+4 of
// point 0 in s, and loads the weights c into Y10–Y13.
#define TAPS8 \
	MOVQ s_base+24(FP), R8; \
	MOVQ stride+48(FP), DX; \
	SHLQ $3, DX; \
	LEAQ (R8)(DX*1), R9; \
	LEAQ (R9)(DX*1), R10; \
	LEAQ (R10)(DX*1), R11; \
	LEAQ (R11)(DX*2), R12; \
	LEAQ (R12)(DX*1), R13; \
	LEAQ (R13)(DX*1), BX; \
	LEAQ (BX)(DX*1), DX; \
	MOVQ c+56(FP), SI; \
	VBROADCASTSD 0(SI), Y10; \
	VBROADCASTSD 8(SI), Y11; \
	VBROADCASTSD 16(SI), Y12; \
	VBROADCASTSD 24(SI), Y13

// func diff8AVX2(dst, s []float64, stride int, c *[4]float64, met []float64, add bool)
TEXT ·diff8AVX2(SB), NOSPLIT, $0-89
	MOVQ dst_base+0(FP), DI
	TAPS8
	MOVQ met_base+64(FP), SI
	BLOCKEND
	CMPB add+88(FP), $0
	JNE  d8add
d8set:
	CMPQ AX, CX
	JGE  d8done
	D8
	VMULPD (SI)(AX*8), Y0, Y0 // d·met
	STORE
	ADDQ $4, AX
	JMP  d8set
d8add:
	CMPQ AX, CX
	JGE  d8done
	D8
	VMULPD (SI)(AX*8), Y0, Y0
	ACCUM
	ADDQ $4, AX
	JMP  d8add
d8done:
	VZEROUPPER
	RET

// func diff8ScalarAVX2(dst, s []float64, stride int, c *[4]float64, met float64, add bool)
TEXT ·diff8ScalarAVX2(SB), NOSPLIT, $0-73
	MOVQ dst_base+0(FP), DI
	TAPS8
	VBROADCASTSD met+64(FP), Y14
	BLOCKEND
	CMPB add+72(FP), $0
	JNE  d8sadd
d8sset:
	CMPQ AX, CX
	JGE  d8sdone
	D8
	VMULPD Y14, Y0, Y0 // d·met
	STORE
	ADDQ $4, AX
	JMP  d8sset
d8sadd:
	CMPQ AX, CX
	JGE  d8sdone
	D8
	VMULPD Y14, Y0, Y0
	ACCUM
	ADDQ $4, AX
	JMP  d8sadd
d8sdone:
	VZEROUPPER
	RET

// D6 is D8 over taps ±1…±3: +1…+3 in R11, R12, R13, −1…−3 in R10, R9, R8.
#define D6 \
	FIRST(R11, R10, Y10); \
	TERM(R12, R9, Y11); \
	TERM(R13, R8, Y12)

// func diff6AVX2(dst, s []float64, stride int, c *[3]float64, met float64, add bool)
TEXT ·diff6AVX2(SB), NOSPLIT, $0-73
	MOVQ dst_base+0(FP), DI
	MOVQ s_base+24(FP), R8
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*2), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	MOVQ c+56(FP), SI
	VBROADCASTSD 0(SI), Y10
	VBROADCASTSD 8(SI), Y11
	VBROADCASTSD 16(SI), Y12
	VBROADCASTSD met+64(FP), Y14
	BLOCKEND
	CMPB add+72(FP), $0
	JNE  d6add
d6set:
	CMPQ AX, CX
	JGE  d6done
	D6
	VMULPD Y14, Y0, Y0
	STORE
	ADDQ $4, AX
	JMP  d6set
d6add:
	CMPQ AX, CX
	JGE  d6done
	D6
	VMULPD Y14, Y0, Y0
	ACCUM
	ADDQ $4, AX
	JMP  d6add
d6done:
	VZEROUPPER
	RET

// D4 is D8 over taps ±1, ±2: +1, +2 in R10, R11, −1, −2 in R9, R8.
#define D4 \
	FIRST(R10, R9, Y10); \
	TERM(R11, R8, Y11)

// func diff4AVX2(dst, s []float64, stride int, c *[2]float64, met float64, add bool)
TEXT ·diff4AVX2(SB), NOSPLIT, $0-73
	MOVQ dst_base+0(FP), DI
	MOVQ s_base+24(FP), R8
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*2), R10
	LEAQ (R10)(DX*1), R11
	MOVQ c+56(FP), SI
	VBROADCASTSD 0(SI), Y10
	VBROADCASTSD 8(SI), Y11
	VBROADCASTSD met+64(FP), Y14
	BLOCKEND
	CMPB add+72(FP), $0
	JNE  d4add
d4set:
	CMPQ AX, CX
	JGE  d4done
	D4
	VMULPD Y14, Y0, Y0
	STORE
	ADDQ $4, AX
	JMP  d4set
d4add:
	CMPQ AX, CX
	JGE  d4done
	D4
	VMULPD Y14, Y0, Y0
	ACCUM
	ADDQ $4, AX
	JMP  d4add
d4done:
	VZEROUPPER
	RET

// ONESIDED sets Y0 to the one-sided sum of the block at AX: from +0,
// Y0 = Y0 op w[m]·tap m for m = 0…4, the taps in R8…R12, the weights in
// Y10–Y14; op is VADDPD at a low face and VSUBPD at a high one.
#define ONESIDED(op) \
	VXORPD Y0, Y0, Y0; \
	VMULPD (R8)(AX*8), Y10, Y1; \
	op Y1, Y0, Y0; \
	VMULPD (R9)(AX*8), Y11, Y1; \
	op Y1, Y0, Y0; \
	VMULPD (R10)(AX*8), Y12, Y1; \
	op Y1, Y0, Y0; \
	VMULPD (R11)(AX*8), Y13, Y1; \
	op Y1, Y0, Y0; \
	VMULPD (R12)(AX*8), Y14, Y1; \
	op Y1, Y0, Y0; \
	VMULPD Y15, Y0, Y0

// func oneSidedAVX2(dst, s []float64, first, step int, w *[5]float64, high bool, met float64, add bool)
TEXT ·oneSidedAVX2(SB), NOSPLIT, $0-89
	MOVQ dst_base+0(FP), DI
	MOVQ s_base+24(FP), R8
	MOVQ first+48(FP), DX
	LEAQ (R8)(DX*8), R8 // tap 0
	MOVQ step+56(FP), DX
	SHLQ $3, DX
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	MOVQ w+64(FP), SI
	VBROADCASTSD 0(SI), Y10
	VBROADCASTSD 8(SI), Y11
	VBROADCASTSD 16(SI), Y12
	VBROADCASTSD 24(SI), Y13
	VBROADCASTSD 32(SI), Y14
	VBROADCASTSD met+80(FP), Y15
	BLOCKEND
	CMPB high+72(FP), $0
	JNE  ahigh
	CMPB add+88(FP), $0
	JNE  loadd
loset:
	CMPQ AX, CX
	JGE  osdone
	ONESIDED(VADDPD)
	STORE
	ADDQ $4, AX
	JMP  loset
loadd:
	CMPQ AX, CX
	JGE  osdone
	ONESIDED(VADDPD)
	ACCUM
	ADDQ $4, AX
	JMP  loadd
ahigh:
	CMPB add+88(FP), $0
	JNE  hiadd
hiset:
	CMPQ AX, CX
	JGE  osdone
	ONESIDED(VSUBPD)
	STORE
	ADDQ $4, AX
	JMP  hiset
hiadd:
	CMPQ AX, CX
	JGE  osdone
	ONESIDED(VSUBPD)
	ACCUM
	ADDQ $4, AX
	JMP  hiadd
osdone:
	VZEROUPPER
	RET

// FTAP adds w·(tap at R9) to Y0 and steps R9 to the next tap.
#define FTAP(w) \
	VMULPD (R9), w, Y1; \
	VADDPD Y1, Y0, Y0; \
	ADDQ DX, R9

// func filter10AVX2(dst, s []float64, stride int, w *[11]float64, scale float64)
TEXT ·filter10AVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ s_base+24(FP), R8 // tap −5 of point 0
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	LEAQ (R8)(DX*4), R10
	ADDQ DX, R10           // tap 0 of point 0
	MOVQ w+56(FP), SI
	VBROADCASTSD 0(SI), Y4
	VBROADCASTSD 8(SI), Y5
	VBROADCASTSD 16(SI), Y6
	VBROADCASTSD 24(SI), Y7
	VBROADCASTSD 32(SI), Y8
	VBROADCASTSD 40(SI), Y9
	VBROADCASTSD 48(SI), Y10
	VBROADCASTSD 56(SI), Y11
	VBROADCASTSD 64(SI), Y12
	VBROADCASTSD 72(SI), Y13
	VBROADCASTSD 80(SI), Y14
	VBROADCASTSD scale+64(FP), Y15
	BLOCKEND
filter:
	CMPQ AX, CX
	JGE  filterdone
	LEAQ (R8)(AX*8), R9
	VXORPD Y0, Y0, Y0
	FTAP(Y4)
	FTAP(Y5)
	FTAP(Y6)
	FTAP(Y7)
	FTAP(Y8)
	FTAP(Y9)
	FTAP(Y10)
	FTAP(Y11)
	FTAP(Y12)
	FTAP(Y13)
	FTAP(Y14)
	VMULPD Y0, Y15, Y1       // scale·acc
	VMOVUPD (R10)(AX*8), Y2
	VSUBPD Y1, Y2, Y2        // s₀ − scale·acc
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  filter
filterdone:
	VZEROUPPER
	RET
