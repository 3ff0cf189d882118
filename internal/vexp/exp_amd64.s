//go:build amd64 && !purego

#include "textflag.h"

// expAVX2 is the avxfma path of $GOROOT/src/math/exp_amd64.s (Go 1.24)
// with every ...SD instruction on an X register replaced by its ...PD form on
// a Y register: same constants, written with the same decimal literals, same
// operation order, so each of the four lanes rounds as the scalar routine
// does. The scalar routine's branches (not finite, overflow, denormal result)
// are not transcribed: a block with a lane outside [-708, 709] is left to the
// caller, and inside that range the biased exponent stays in [2, 2046].

// Q lays one constant out four times, a 32-byte memory operand.
#define Q(off, v) \
	DATA expq<>+(off+0)(SB)/8, v; \
	DATA expq<>+(off+8)(SB)/8, v; \
	DATA expq<>+(off+16)(SB)/8, v; \
	DATA expq<>+(off+24)(SB)/8, v

Q(0, $-708.0)
Q(32, $709.0)
Q(64, $1.4426950408889634073599246810018920) // LOG2E
Q(96, $0.69314718055966295651160180568695068359375) // LN2U
Q(128, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
Q(160, $0.0625)
Q(192, $2.4801587301587301587e-5)
Q(224, $1.9841269841269841270e-4)
Q(256, $1.3888888888888888889e-3)
Q(288, $8.3333333333333333333e-3)
Q(320, $4.1666666666666666667e-2)
Q(352, $1.6666666666666666667e-1)
Q(384, $0.5)
Q(416, $1.0)
Q(448, $2.0)
Q(480, $0x3FF) // exponent bias, int64
GLOBL expq<>(SB), RODATA|NOPTR, $512

#define LO expq<>+0(SB)
#define HI expq<>+32(SB)
#define LOG2E expq<>+64(SB)
#define LN2U expq<>+96(SB)
#define LN2L expq<>+128(SB)
#define SIXTEENTH expq<>+160(SB)
#define C8 expq<>+192(SB)
#define C7 expq<>+224(SB)
#define C6 expq<>+256(SB)
#define C5 expq<>+288(SB)
#define C4 expq<>+320(SB)
#define C3 expq<>+352(SB)
#define HALF expq<>+384(SB)
#define ONE expq<>+416(SB)
#define TWO expq<>+448(SB)
#define BIAS expq<>+480(SB)

// INRANGE jumps to done unless every lane of Y0 is in [-708, 709]; the
// compares are ordered, so a NaN lane fails.
#define INRANGE \
	VCMPPD $0x1D, LO, Y0, Y1; \
	VCMPPD $0x12, HI, Y0, Y2; \
	VANDPD Y1, Y2, Y1; \
	VMOVMSKPD Y1, DX; \
	CMPL DX, $0xF; \
	JNE  done

// EXP4 replaces the four lanes of Y0 by their exponentials, clobbering Y1
// and Y2. In the order of the scalar routine: k = round(x*LOG2E), kept as
// int32 in X2; x -= k*LN2U; x -= k*LN2L; x /= 16; the Taylor polynomial by
// seven fused Horner steps; y <- y*(y+2) four times to undo the /16, the last
// fused with the +1; and the scaling by 2**k built in the exponent field.
#define EXP4 \
	VMULPD LOG2E, Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD X2, Y1; \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD SIXTEENTH, Y0, Y0; \
	VMOVUPD C8, Y1; \
	VFMADD213PD C7, Y0, Y1; \
	VFMADD213PD C6, Y0, Y1; \
	VFMADD213PD C5, Y0, Y1; \
	VFMADD213PD C4, Y0, Y1; \
	VFMADD213PD C3, Y0, Y1; \
	VFMADD213PD HALF, Y0, Y1; \
	VFMADD213PD ONE, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VFMADD213PD ONE, Y1, Y0; \
	VPMOVSXDQ X2, Y2; \
	VPADDQ BIAS, Y2, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y0, Y0

// func expAVX2(dst, src *float64, n int) int
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX // elements done
	MOVQ CX, BX
	ANDQ $~3, BX // elements in whole blocks
loop:
	CMPQ AX, BX
	JGE  tail
	VMOVUPD (SI)(AX*8), Y0
	INRANGE
	EXP4
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  loop
tail:
	// The last r = n&3 elements: the same sequence on a block whose other
	// lanes are zero. The lanes are loaded and stored one by one: the
	// arguments were just written, and the results are about to be read, by
	// 8-byte scalar accesses, which a 32-byte (masked) access could not
	// forward from or to.
	SUBQ AX, CX // r
	JLE  done
	VMOVSD (SI)(AX*8), X0
	CMPQ CX, $2
	JLT  tailexp
	VMOVHPD 8(SI)(AX*8), X0, X0
	JEQ  tailexp
	VMOVSD 16(SI)(AX*8), X3
	VINSERTF128 $1, X3, Y0, Y0
tailexp:
	INRANGE
	EXP4
	VMOVSD X0, (DI)(AX*8)
	CMPQ CX, $2
	JLT  taildone
	VMOVHPD X0, 8(DI)(AX*8)
	JEQ  taildone
	VEXTRACTF128 $1, Y0, X3
	VMOVSD X3, 16(DI)(AX*8)
taildone:
	ADDQ CX, AX
done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
