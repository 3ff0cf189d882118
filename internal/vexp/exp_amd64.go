//go:build amd64 && !purego

package vexp

import "math"

// armed: the CPU and the OS support the kernel and the kernel reproduced
// math.Exp on the probe vector. Set once, at init.
var armed = hostHasAVX2FMA() && probe()

// expAVX2 exponentiates src[0:n] into dst[0:n] four lanes at a time, the last
// n&3 elements as a block of their own, and stops in front of the first block
// that holds a lane outside [-708, 709] (or NaN), which it leaves unwritten.
// It returns the number of elements done. dst may equal src.
//
//go:noescape
func expAVX2(dst, src *float64, n int) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hostHasAVX2FMA reports AVX2 and FMA in CPUID with the YMM state enabled by
// the OS (OSXSAVE set and XCR0 bits 1 and 2 on).
func hostHasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx|fma) != osxsave|avx|fma {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// probe runs the kernel over a fixed vector that spans its whole range and
// reports whether every lane matched math.Exp. It is what ties the kernel to
// the math.Exp of this process rather than to CPUID: GODEBUG=cpu.fma=off
// switches math.Exp to its non-FMA sequence, which rounds differently on
// about one input in eleven, and the kernel must then stand down
// (TestProbeStandsDownWithoutFMA).
func probe() bool {
	var x, y [256]float64
	for i := range x {
		x[i] = -708 + 1417*float64(i)/float64(len(x)-1)
	}
	if expAVX2(&y[0], &x[0], len(x)) != len(x) {
		return false
	}
	for i := range x {
		if math.Float64bits(y[i]) != math.Float64bits(math.Exp(x[i])) {
			return false
		}
	}
	return true
}

// expVector is Exp on the kernel; a block the kernel stops at is evaluated
// by math.Exp, whole.
func expVector(dst, src []float64) {
	n := len(src)
	for i := 0; i < n; {
		i += expAVX2(&dst[i], &src[i], n-i)
		for end := min(i+4, n); i < end; i++ {
			dst[i] = math.Exp(src[i])
		}
	}
}
