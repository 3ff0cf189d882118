//go:build !amd64 || purego

package vexp

// No packed row or stencil loops in this build: armed is false, so none is
// called.

const noKernel = "vexp: no vector kernel in this build"

func addMulAVX2(d []float64, a float64, x []float64)              { panic(noKernel) }
func subMulAVX2(d []float64, a float64, x []float64)              { panic(noKernel) }
func mulAVX2(d, x []float64)                                      { panic(noKernel) }
func mulSquareAVX2(d, x []float64)                                { panic(noKernel) }
func divAVX2(d, x, y []float64)                                   { panic(noKernel) }
func cubicAVX2(d, x []float64, c *[4]float64)                     { panic(noKernel) }
func wilkeSumAVX2(d, xa, xb, mua, mub []float64, w4, phi float64) { panic(noKernel) }
func pairSumAVX2(da, db, xa, xb, f, s []float64)                  { panic(noKernel) }

func diff8AVX2(dst, s []float64, stride int, c *[4]float64, met []float64, add bool) { panic(noKernel) }
func diff8ScalarAVX2(dst, s []float64, stride int, c *[4]float64, met float64, add bool) {
	panic(noKernel)
}
func diff6AVX2(dst, s []float64, stride int, c *[3]float64, met float64, add bool) { panic(noKernel) }
func diff4AVX2(dst, s []float64, stride int, c *[2]float64, met float64, add bool) { panic(noKernel) }
func oneSidedAVX2(dst, s []float64, first, step int, w *[5]float64, high bool, met float64, add bool) {
	panic(noKernel)
}
func filter10AVX2(dst, s []float64, stride int, w *[11]float64, scale float64) { panic(noKernel) }
