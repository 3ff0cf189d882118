//go:build !amd64 || purego

package vexp

// No packed row loops in this build: armed is false, so none is called.

const noKernel = "vexp: no vector kernel in this build"

func addMulAVX2(d []float64, a float64, x []float64)              { panic(noKernel) }
func subMulAVX2(d []float64, a float64, x []float64)              { panic(noKernel) }
func mulAVX2(d, x []float64)                                      { panic(noKernel) }
func mulSquareAVX2(d, x []float64)                                { panic(noKernel) }
func divAVX2(d, x, y []float64)                                   { panic(noKernel) }
func cubicAVX2(d, x []float64, c *[4]float64)                     { panic(noKernel) }
func wilkeSumAVX2(d, xa, xb, mua, mub []float64, w4, phi float64) { panic(noKernel) }
func pairSumAVX2(da, db, xa, xb, f, s []float64)                  { panic(noKernel) }
