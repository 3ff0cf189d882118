//go:build amd64 && !purego

#include "textflag.h"

// The packed thermo rows of thermo.go: thermo's hRT, MeanW and TFromEW with
// every ...SD instruction replaced by its ...PD form on a Y register, in the
// Go statements' operation order, no FMA. The constants are thermo's
// decimal literals (R, TMin, TMax, TMin+satBand, TMax−satBand, the /5 of
// h/RT's last term, the Newton tolerance 1e-9 and start 1000). A clamp is a
// compare and a blend with ordered predicates, so a NaN passes it as
// clampT's two ifs let it. A species entry of a Fits table (R8) holds
// a0…a5, a1/2, a2/3, a3/4 and W, each four times.

#define Q(off, v) \
	DATA thq<>+(off+0)(SB)/8, v; \
	DATA thq<>+(off+8)(SB)/8, v; \
	DATA thq<>+(off+16)(SB)/8, v; \
	DATA thq<>+(off+24)(SB)/8, v

Q(0, $200.0)             // TMin
Q(32, $3500.0)           // TMax
Q(64, $201.0)            // TMin + satBand
Q(96, $3499.0)           // TMax − satBand
Q(128, $5.0)
Q(160, $8.31446261815324) // R
Q(192, $1.0)
Q(224, $1000.0)          // the start of a guess outside [TMin, TMax]
Q(256, $1e-9)            // the Newton tolerance
Q(288, $0x7FFFFFFFFFFFFFFF) // |·| mask
Q(320, $0x7FF8000000000001) // the NaN of a handed-back lane (math.NaN's bits)
GLOBL thq<>(SB), RODATA|NOPTR, $352

#define TMIN thq<>+0(SB)
#define TMAX thq<>+32(SB)
#define BANDLO thq<>+64(SB)
#define BANDHI thq<>+96(SB)
#define FIVE thq<>+128(SB)
#define RGAS thq<>+160(SB)
#define ONE thq<>+192(SB)
#define TSTART thq<>+224(SB)
#define TOL thq<>+256(SB)
#define ABSMASK thq<>+288(SB)
#define NANQ thq<>+320(SB)

// A species entry's words.
#define A0 0(R8)
#define A1 32(R8)
#define A2 64(R8)
#define A3 96(R8)
#define A4 128(R8)
#define A5 160(R8)
#define HQ0 192(R8)
#define HQ1 224(R8)
#define HQ2 256(R8)
#define WS 288(R8)
#define ENTRY $320

// CLAMP clamps the lanes of t into [TMin, TMax]: if t < TMin { t = TMin };
// if t > TMax { t = TMax }. m is clobbered.
#define CLAMP(t, m) \
	VCMPPD $0x11, TMIN, t, m; \
	VBLENDVPD m, TMIN, t, t; \
	VCMPPD $0x1E, TMAX, t, m; \
	VBLENDVPD m, TMAX, t, t

// HRT sets r to hRT(t) of the species at R8,
// a0 + t·(a1/2 + t·(a2/3 + t·(a3/4 + t·a4/5))) + a5/t. x is clobbered.
#define HRT(t, r, x) \
	VMULPD A4, t, r; \
	VDIVPD FIVE, r, r; \
	VADDPD HQ2, r, r; \
	VMULPD r, t, r; \
	VADDPD HQ1, r, r; \
	VMULPD r, t, r; \
	VADDPD HQ0, r, r; \
	VMULPD r, t, r; \
	VADDPD A0, r, r; \
	VMOVUPD A5, x; \
	VDIVPD t, x, x; \
	VADDPD x, r, r

// CPR sets r to cpR(t) of the species at R8,
// a0 + t·(a1 + t·(a2 + t·(a3 + t·a4))).
#define CPR(t, r) \
	VMULPD A4, t, r; \
	VADDPD A3, r, r; \
	VMULPD r, t, r; \
	VADDPD A2, r, r; \
	VMULPD r, t, r; \
	VADDPD A1, r, r; \
	VMULPD r, t, r; \
	VADDPD A0, r, r

// func hrtAVX2(d, x []float64, f *float64)
TEXT ·hrtAVX2(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	ANDQ $~3, CX
	MOVQ x_base+24(FP), SI
	MOVQ f+48(FP), R8
	XORQ AX, AX
hrt:
	CMPQ AX, CX
	JGE  hrtdone
	VMOVUPD (SI)(AX*8), Y0
	CLAMP(Y0, Y1)
	HRT(Y0, Y1, Y2)
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  hrt
hrtdone:
	VZEROUPPER
	RET

// func tNewtonAVX2(T, W, e, Tg, Y []float64, w int, f *float64, ns int)
//
// One 4-point block at a time (AX counts points done, CX is where the
// blocks end): W = 1/Σ Yₙ/Wₙ (MeanW), then TFromEW's iteration with Y0 = T,
// Y1 = e, Y2 = W, Y11 = R/W, Y3 the lanes still iterating and Y10 the lanes
// handed back. Per iterate, over the species (R8 the entry, DX the species'
// row at the block, BX the species left): h += Yₙ·(hRT·R·T/Wₙ) in Y4 and
// cp += Yₙ·(cpR·R/Wₙ) in Y5, both from +0. Then dT = ((h − R·T/W) − e) /
// (cp − R/W) and the clamped Tn = T − dT, which only the iterating lanes
// take. An iterating lane whose Tn is within the band of a bound or NaN is
// handed back; one with |dT| < 1e-9·Tn is frozen. R9 counts the 50 iterates;
// a lane still iterating after the last is handed back.
TEXT ·tNewtonAVX2(SB), NOSPLIT, $0-144
	MOVQ T_base+0(FP), DI
	MOVQ T_len+8(FP), CX
	ANDQ $~3, CX
	MOVQ W_base+24(FP), R10
	MOVQ e_base+48(FP), R11
	MOVQ Tg_base+72(FP), R12
	MOVQ Y_base+96(FP), SI
	MOVQ w+120(FP), R13
	SHLQ $3, R13 // a species row's stride in bytes
	XORQ AX, AX
block:
	CMPQ AX, CX
	JGE  done

	// W = 1/inv, inv = Σ Yₙ/Wₙ from +0 (MeanW)
	VXORPD Y2, Y2, Y2
	MOVQ f+128(FP), R8
	MOVQ ns+136(FP), BX
	LEAQ (SI)(AX*8), DX
meanw:
	VMOVUPD (DX), Y6
	VDIVPD WS, Y6, Y6
	VADDPD Y6, Y2, Y2
	ADDQ R13, DX
	ADDQ ENTRY, R8
	DECQ BX
	JNZ  meanw
	VMOVUPD ONE, Y6
	VDIVPD Y2, Y6, Y2
	VMOVUPD Y2, (R10)(AX*8)
	VMOVUPD RGAS, Y11
	VDIVPD Y2, Y11, Y11 // R/W

	// T = Tg if TMin ≤ Tg ≤ TMax (ordered: a NaN fails), else 1000
	VMOVUPD (R12)(AX*8), Y0
	VCMPPD $0x1D, TMIN, Y0, Y6
	VCMPPD $0x12, TMAX, Y0, Y7
	VANDPD Y7, Y6, Y6
	VMOVUPD TSTART, Y7
	VBLENDVPD Y6, Y0, Y7, Y0
	VMOVUPD (R11)(AX*8), Y1
	VPCMPEQQ Y3, Y3, Y3
	VXORPD Y10, Y10, Y10
	MOVQ $50, R9

iter:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ f+128(FP), R8
	MOVQ ns+136(FP), BX
	LEAQ (SI)(AX*8), DX
species:
	VMOVUPD (DX), Y8    // Yₙ
	HRT(Y0, Y6, Y7)
	VMULPD RGAS, Y6, Y6 // ·R
	VMULPD Y0, Y6, Y6   // ·T
	VDIVPD WS, Y6, Y6   // /Wₙ
	VMULPD Y6, Y8, Y6   // Yₙ·(…)
	VADDPD Y6, Y4, Y4   // h += …
	CPR(Y0, Y7)
	VMULPD RGAS, Y7, Y7 // ·R
	VDIVPD WS, Y7, Y7   // /Wₙ
	VMULPD Y7, Y8, Y7   // Yₙ·(…)
	VADDPD Y7, Y5, Y5   // cp += …
	ADDQ R13, DX
	ADDQ ENTRY, R8
	DECQ BX
	JNZ  species

	VMULPD RGAS, Y0, Y6 // R·T
	VDIVPD Y2, Y6, Y6   // /W
	VSUBPD Y6, Y4, Y4   // h − …
	VSUBPD Y1, Y4, Y4   // f = … − e
	VSUBPD Y11, Y5, Y5  // cv = cp − R/W
	VDIVPD Y5, Y4, Y4   // dT = f/cv
	VSUBPD Y4, Y0, Y6   // Tn = T − dT
	CLAMP(Y6, Y7)
	VBLENDVPD Y3, Y6, Y0, Y0 // the iterating lanes take Tn

	VCMPPD $0x12, BANDLO, Y6, Y7 // Tn ≤ TMin + satBand
	VCMPPD $0x1D, BANDHI, Y6, Y8 // Tn ≥ TMax − satBand
	VORPD Y8, Y7, Y7
	VCMPPD $3, Y6, Y6, Y8        // Tn is NaN
	VORPD Y8, Y7, Y7             // hand back …
	VANDPD Y3, Y7, Y8
	VORPD Y8, Y10, Y10           // … the iterating lanes among these
	VANDPD ABSMASK, Y4, Y4       // |dT|
	VMULPD TOL, Y6, Y8           // 1e-9·Tn
	VCMPPD $0x11, Y8, Y4, Y8     // |dT| < 1e-9·Tn
	VORPD Y8, Y7, Y7
	VANDNPD Y3, Y7, Y3           // stop the lanes handed back or converged
	VMOVMSKPD Y3, DX
	TESTL DX, DX
	JZ   store
	DECQ R9
	JNZ  iter
	VORPD Y3, Y10, Y10 // still iterating after the 50th iterate

store:
	VBLENDVPD Y10, NANQ, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  block
done:
	VZEROUPPER
	RET
