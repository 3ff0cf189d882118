// Package vexp is math.Exp over a slice: Exp(dst, src) leaves in dst[i]
// exactly the bits math.Exp(src[i]) returns. math.Exp is the definition; the
// package only chooses how many lanes evaluate it at once.
//
// On amd64 with AVX2 and FMA the work is done by an assembly kernel that is
// the packed transcription of the FMA path of $GOROOT/src/math/exp_amd64.s
// (Shibata's SLEEF exp, which the scalar routine runs one lane at a time):
// the same constants from the same decimal literals in the same operation
// order, four lanes per instruction, so every lane rounds as the scalar does.
// Everything that routine handles by branching — NaN, ±Inf, overflow,
// denormal results — is handed back to math.Exp. On any other platform, and
// under the build tag purego, Exp is the loop over math.Exp.
//
// The kernel is therefore tied to the toolchain's math.Exp. It arms itself at
// init only if it reproduces math.Exp on a probe vector, and TestExpBits
// compares the two over 10⁷ inputs: a Go release that changes exp_amd64.s
// fails that test, and the fix is to transcribe the new routine.
//
// The package also holds the element-wise row arithmetic of the transport and
// chemistry row kernels (row.go) and the stencil rows of internal/deriv
// (stencil.go): the eighth-order derivative row with a per-point or a
// row-scalar metric, the sixth- and fourth-order and one-sided closure rows
// and the tenth-order filter row. Both run on the same decision: packed AVX2
// where Exp's kernel is armed, their Go loops everywhere else.
//
// The thermo rows of internal/thermo (thermo.go) ride the same decision: the
// species h/RT row (HRT) and the temperature Newton with its MeanW (TNewton),
// packed transcriptions of thermo's hRT, MeanW and TFromEW. Their
// definitions stay in thermo, which this package cannot import, so each
// takes only the whole 4-lane blocks, reports how many points it set, and
// leaves the rest, and every Newton lane it hands back, to thermo's scalar
// functions.
package vexp

import "math"

// Exp sets dst[i] = math.Exp(src[i]) for every i < len(src), bit for bit.
// dst must be at least as long as src; it may be src itself, and must not
// overlap it otherwise.
func Exp(dst, src []float64) {
	dst = dst[:len(src)]
	if armed {
		expVector(dst, src)
		return
	}
	for i, x := range src {
		dst[i] = math.Exp(x)
	}
}

// Kernel names the path Exp, the row arithmetic and the stencil rows take in
// this process: "avx2" or "scalar".
func Kernel() string {
	if armed {
		return "avx2"
	}
	return "scalar"
}
