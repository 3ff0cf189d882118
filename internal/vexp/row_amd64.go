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
