package vexp

import "math"

// The row arithmetic: the element-wise loops of the transport and chemistry
// row kernels (transport.MixtureRow, chem.ProductionRatesRow), each exported
// here over whole rows. The Go loop in each function is its definition: it
// is all that runs under purego, off amd64 and on a host without the
// kernels, it runs the points after the last whole 4-lane block on every
// path, and with the kernels disarmed it is what the packed path is tested
// against. Where the kernels are armed the whole blocks go first to a packed
// transcription of the same loop (row_amd64.s) — the same operations in the
// same order, four lanes per instruction. + − × ÷ and √ are correctly
// rounded per lane, so every lane gets the bits of the scalar statement; a
// lane the Go loop skips keeps its old value through a blend, never through
// an added +0. A kernel over several rows visits them in the same order on
// both paths, so each point's sum takes its terms in one order.
//
// A row argument must be at least as long as the row the kernel's comment
// names as setting the length; an output may be one of the inputs, and must
// not overlap one otherwise.

// blocks is the length of the leading part of an n-point row that the
// packed loops take: its whole 4-lane blocks where the kernels are armed,
// nothing otherwise. A row shorter than one block (a one-point call) makes
// no assembly call at all.
func blocks(n int) int {
	if armed {
		return n &^ 3
	}
	return 0
}

// AddMul sets d[i] += a·x[i]; d sets the length.
func AddMul(d []float64, a float64, x []float64) {
	x = x[:len(d)]
	k := blocks(len(d))
	if k > 0 {
		addMulAVX2(d[:k], a, x[:k])
	}
	for i := k; i < len(d); i++ {
		d[i] += a * x[i]
	}
}

// SubMul sets d[i] −= a·x[i]; d sets the length.
func SubMul(d []float64, a float64, x []float64) {
	x = x[:len(d)]
	k := blocks(len(d))
	if k > 0 {
		subMulAVX2(d[:k], a, x[:k])
	}
	for i := k; i < len(d); i++ {
		d[i] -= a * x[i]
	}
}

// Mul sets d[i] ·= x[i]; d sets the length.
func Mul(d, x []float64) {
	x = x[:len(d)]
	k := blocks(len(d))
	if k > 0 {
		mulAVX2(d[:k], x[:k])
	}
	for i := k; i < len(d); i++ {
		d[i] *= x[i]
	}
}

// MulSquare sets d[i] ·= x[i]·x[i]; d sets the length.
func MulSquare(d, x []float64) {
	x = x[:len(d)]
	k := blocks(len(d))
	if k > 0 {
		mulSquareAVX2(d[:k], x[:k])
	}
	for i := k; i < len(d); i++ {
		d[i] *= x[i] * x[i]
	}
}

// Div sets d[i] = x[i]/y[i]; d sets the length.
func Div(d, x, y []float64) {
	x, y = x[:len(d)], y[:len(d)]
	k := blocks(len(d))
	if k > 0 {
		divAVX2(d[:k], x[:k], y[:k])
	}
	for i := k; i < len(d); i++ {
		d[i] = x[i] / y[i]
	}
}

// Cubic sets row j of d, d[j·w+i] with w = len(x), to the cubic c[j] at
// x[i], c0 + x·(c1 + x·(c2 + x·c3)) in Horner's order, for every j < len(c).
func Cubic(d, x []float64, c [][4]float64) {
	w := len(x)
	k := blocks(w)
	for j := range c {
		dj, cj := d[j*w:j*w+w], &c[j]
		if k > 0 {
			cubicAVX2(dj[:k], x[:k], cj)
		}
		for i := k; i < w; i++ {
			dj[i] = cj[0] + x[i]*(cj[1]+x[i]*(cj[2]+x[i]*cj[3]))
		}
	}
}

// WilkeSum adds to d[i], for each species b < len(w4) in turn, species b's
// term of the Wilke denominator of species a, xb[i]·(1+r)·(1+r)·phi[b] with
// r = √(mua[i]/mub[i])·w4[b], at every point where xa[i] and xb[i] are both
// present (≠ 0; a NaN counts as present). xb and mub are row b of x and of
// mu, which hold rows of len(d) end to end.
func WilkeSum(d, xa, mua, x, mu, w4, phi []float64) {
	w := len(d)
	xa, mua, phi = xa[:w], mua[:w], phi[:len(w4)]
	k := blocks(w)
	for b, w4b := range w4 {
		xb, mub := x[b*w:b*w+w], mu[b*w:b*w+w]
		if k > 0 {
			wilkeSumAVX2(d[:k], xa[:k], xb[:k], mua[:k], mub[:k], w4b, phi[b])
		}
		for i := k; i < w; i++ {
			if xa[i] == 0 || xb[i] == 0 {
				continue
			}
			r := math.Sqrt(mua[i]/mub[i]) * w4b
			d[i] += xb[i] * (1 + r) * (1 + r) * phi[b]
		}
	}
}

// PairSums adds the terms of the pairs (a, b), b = a+1 … len(D)−1 in turn,
// to the mixture-averaged diffusion denominators: with Dab = fb[i]·s[i],
// D[a][i] += xb[i]/Dab where xb[i] ≠ 0, then D[b][i] += xa[i]/Dab where
// xa[i] ≠ 0 (a NaN counts as present). xa and xb are rows a and b of x, which
// holds the species' rows end to end, and fb is row b−a−1 of f, which holds
// the pairs' rows from (a, a+1) on; s sets the length.
func PairSums(D [][]float64, a int, x, f, s []float64) {
	w := len(s)
	da, xa := D[a][:w], x[a*w:a*w+w]
	k := blocks(w)
	for b := a + 1; b < len(D); b++ {
		j := (b - a - 1) * w
		db, xb, fb := D[b][:w], x[b*w:b*w+w], f[j:j+w]
		if k > 0 {
			pairSumAVX2(da[:k], db[:k], xa[:k], xb[:k], fb[:k], s[:k])
		}
		for i := k; i < w; i++ {
			d := fb[i] * s[i]
			if xb[i] != 0 {
				da[i] += xb[i] / d
			}
			if xa[i] != 0 {
				db[i] += xa[i] / d
			}
		}
	}
}
