//go:build amd64 && !purego

package vexp

// The packed row loops of row.go, in row_amd64.s. Each takes the leading
// len(d)&^3 elements of its rows, four lanes per instruction; the caller runs
// the Go loop over the rest.

//go:noescape
func addMulAVX2(d []float64, a float64, x []float64)

//go:noescape
func subMulAVX2(d []float64, a float64, x []float64)

//go:noescape
func mulAVX2(d, x []float64)

//go:noescape
func mulSquareAVX2(d, x []float64)

//go:noescape
func divAVX2(d, x, y []float64)

//go:noescape
func cubicAVX2(d, x []float64, c *[4]float64)

//go:noescape
func wilkeSumAVX2(d, xa, xb, mua, mub []float64, w4, phi float64)

//go:noescape
func pairSumAVX2(da, db, xa, xb, f, s []float64)

// The packed stencil rows of stencil.go, in stencil_amd64.s. Each takes the
// leading len(dst)&^3 points of its row, s being the wrapper's cut.

//go:noescape
func diff8AVX2(dst, s []float64, stride int, c *[4]float64, met []float64, add bool)

//go:noescape
func diff8ScalarAVX2(dst, s []float64, stride int, c *[4]float64, met float64, add bool)

//go:noescape
func diff6AVX2(dst, s []float64, stride int, c *[3]float64, met float64, add bool)

//go:noescape
func diff4AVX2(dst, s []float64, stride int, c *[2]float64, met float64, add bool)

//go:noescape
func oneSidedAVX2(dst, s []float64, first, step int, w *[5]float64, high bool, met float64, add bool)

//go:noescape
func filter10AVX2(dst, s []float64, stride int, w *[11]float64, scale float64)

// The packed thermo rows of thermo.go, in thermo_amd64.s. Each takes the
// leading len(d)&^3 (len(T)&^3) points of its row; f points at a Fits entry.

//go:noescape
func hrtAVX2(d, x []float64, f *float64)

//go:noescape
func tNewtonAVX2(T, W, e, Tg, Y []float64, w int, f *float64, ns int)
