package vexp

import (
	"math"
	"math/rand"
	"testing"
)

// same reports bit equality, any NaN equal to any NaN.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkExp runs Exp over src — out of place into a longer dst, then in place —
// and compares every lane with math.Exp.
func checkExp(t testing.TB, src []float64) {
	t.Helper()
	const sentinel = -12345.5
	dst := make([]float64, len(src)+2)
	dst[len(src)], dst[len(src)+1] = sentinel, sentinel
	Exp(dst, src)
	for i, x := range src {
		if want := math.Exp(x); !same(dst[i], want) {
			t.Fatalf("Exp lane %d of %d: exp(%v [%#x]) = %#x, math.Exp %#x",
				i, len(src), x, math.Float64bits(x), math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}
	if dst[len(src)] != sentinel || dst[len(src)+1] != sentinel {
		t.Fatalf("Exp of %d elements wrote past them: %v", len(src), dst[len(src):])
	}
	in := append([]float64(nil), src...)
	Exp(in, in)
	for i := range src {
		if !same(in[i], dst[i]) {
			t.Fatalf("in-place Exp lane %d of %d: exp(%v) = %#x, out of place %#x",
				i, len(src), src[i], math.Float64bits(in[i]), math.Float64bits(dst[i]))
		}
	}
}

// edges are the inputs math.Exp treats by branching, the bounds of the
// kernel's own range and their neighbours.
var edges = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1),
	-708, math.Nextafter(-708, -1000), math.Nextafter(-708, 0),
	709, math.Nextafter(709, 1000), math.Nextafter(709, 0),
	709.78, 709.79, 7.09782712893384e+02, -745.2, -744, -708.4, 1, -1,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, 1e-300, 1e300, -1e300, math.Float64frombits(0x7ff0000000000001),
}

// TestExpBits is the proof the package rests on: Exp against math.Exp by
// Float64bits over more than 10⁷ inputs — uniform over ±750 (both bounds of
// the kernel's range and the overflow and denormal regions beyond them),
// uniform over ±40 (where the solver's arguments live), N(0,1)·1e-3, raw bit
// patterns, and the edge list at every position of every length 0…9.
func TestExpBits(t *testing.T) {
	if kernelExpected() && Kernel() != "avx2" {
		t.Fatalf("host has AVX2 and FMA but the init probe disarmed the kernel (Kernel() = %q): "+
			"it no longer reproduces this toolchain's math.Exp and must be transcribed again", Kernel())
	}
	t.Logf("kernel: %s", Kernel())

	for n := 0; n <= 9; n++ {
		src := make([]float64, n)
		for pos := 0; pos < max(n, 1); pos++ {
			for _, e := range edges {
				for i := range src {
					src[i] = 0.75 * float64(i-4)
				}
				if n > 0 {
					src[pos] = e
				}
				checkExp(t, src)
			}
		}
	}
	all := append([]float64(nil), edges...)
	all = append(all, edges...)
	checkExp(t, all)

	rng := rand.New(rand.NewSource(19))
	classes := []struct {
		name  string
		count int
		draw  func() float64
	}{
		{"uniform ±750", 4 << 20, func() float64 { return 1500*rng.Float64() - 750 }},
		{"uniform ±40", 3 << 20, func() float64 { return 80*rng.Float64() - 40 }},
		{"N(0,1)·1e-3", 3 << 19, func() float64 { return rng.NormFloat64() * 1e-3 }},
		{"raw bits", 3 << 19, func() float64 { return math.Float64frombits(rng.Uint64()) }},
	}
	// An odd chunk length, so every chunk ends in a tail block.
	src := make([]float64, 4099)
	total := 0
	for _, c := range classes {
		for done := 0; done < c.count; done += len(src) {
			for i := range src {
				src[i] = c.draw()
			}
			checkExp(t, src)
			total += len(src)
		}
	}
	if total < 1e7 {
		t.Fatalf("%d inputs compared, want at least 1e7", total)
	}
}

// FuzzExp: one lane of arbitrary bits among in-range lanes, at every position
// of a block and of a tail.
func FuzzExp(f *testing.F) {
	for _, e := range edges {
		f.Add(math.Float64bits(e))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		var src [7]float64
		for pos := range src {
			for i := range src {
				src[i] = 1.5 * float64(i-3)
			}
			src[pos] = math.Float64frombits(bits)
			checkExp(t, src[:])
		}
	})
}

var sink [48]float64

func benchExp(b *testing.B, n int) {
	x := make([]float64, n)
	for i := range x {
		x[i] = -30 + 1.25*float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exp(sink[:n], x)
	}
}

// The two batch sizes of the solver: air2's Mixture (3) and H2's (45).
func BenchmarkExp3(b *testing.B)  { benchExp(b, 3) }
func BenchmarkExp45(b *testing.B) { benchExp(b, 45) }
