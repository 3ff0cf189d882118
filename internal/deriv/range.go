package deriv

import (
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/vexp"
)

// Op selects how DiffRow writes its result into dst.
type Op int

const (
	OpSet Op = iota // dst = result
	OpAdd           // dst += result
)

// DiffRange is Diff restricted to the interior index box [boxLo, boxHi)
// (half-open, interior coordinates): only points inside the box are written,
// with exactly the arithmetic Diff would use for them, so a set of tiles
// covering the interior reproduces a full Diff bitwise regardless of the
// tiling. src values are only read, never written, which is what lets tiles
// that cut across the derivative axis run concurrently.
//
// The box is swept one unit-stride x-row at a time along every axis, each
// row through diffRow — the row DiffRow computes.
func DiffRange(dst, f *grid.Field3, a grid.Axis, met []float64, lo, hi BC, boxLo, boxHi [3]int) {
	if dimOf(f, a) == 1 {
		dst.FillRange(0, boxLo, boxHi)
		return
	}
	eachRow(f, a, boxLo, boxHi, func(p, x0, x1, j, k int) {
		diffRow(dst.Data[p:p+x1-x0], f, a, met, lo, hi, x0, x1, j, k, OpSet)
	})
}

// eachRow clips the box to the line along a and calls fn for every x-row of
// it: the flat index p of point (x0, j, k) and the row's points [x0, x1).
func eachRow(f *grid.Field3, a grid.Axis, boxLo, boxHi [3]int, fn func(p, x0, x1, j, k int)) {
	boxLo[a], boxHi[a] = max(boxLo[a], 0), min(boxHi[a], dimOf(f, a))
	if boxHi[0] <= boxLo[0] {
		return
	}
	for k := boxLo[2]; k < boxHi[2]; k++ {
		for j := boxLo[1]; j < boxHi[1]; j++ {
			fn(f.Idx(boxLo[0], j, k), boxLo[0], boxHi[0], j, k)
		}
	}
}

// DiffRow is DiffRange for one x-row: the derivative along a of the points
// [x0, x1) of row (j, k) lands in dst[:x1-x0] under op, each value with
// DiffRange's bits (same classification, row kernels and closures) — so a
// fused kernel can keep a derivative row in scratch instead of a stored
// gradient field, and a divergence can sum its directions into one row. Along
// a one-point axis the derivative is +0: OpSet clears the row, OpAdd leaves it.
func DiffRow(dst []float64, f *grid.Field3, a grid.Axis, met []float64, lo, hi BC, x0, x1, j, k int, op Op) {
	dst = dst[:x1-x0]
	if dimOf(f, a) == 1 {
		if op == OpSet {
			clear(dst)
		}
		return
	}
	diffRow(dst, f, a, met, lo, hi, x0, x1, j, k, op)
}

// DiffRows is DiffRow (OpSet) for every field of src over one row: dst[n]
// receives the derivative of src[n], each value with DiffRow's bits. The row
// is classified once and one view set is re-cut per field, so a kernel that
// needs the derivatives of many fields along one axis pays the
// classification, the closure choice and the metric loads once. Every field
// of src must share one storage layout (as the fields of one grid.FieldSet
// do).
func DiffRows(dst [][]float64, src []*grid.Field3, a grid.Axis, met []float64, lo, hi BC, x0, x1, j, k int) {
	w := x1 - x0
	f := src[0]
	n := dimOf(f, a)
	if n == 1 {
		for _, d := range dst[:len(src)] {
			clear(d[:w])
		}
		return
	}
	stride, p := strideOf(f, a), f.Idx(x0, j, k)
	l1, h0, s := segments(a, n, 4, lo, hi, x0, x1, j, k)
	for m, g := range src {
		runRow(dst[m][:w], g.Data, p, stride, n, a, met, x0, x1, l1, h0, s, OpSet)
	}
}

// diffRow writes (under op) the derivative of the points [x0, x1) of row
// (j, k) into dst.
func diffRow(dst []float64, f *grid.Field3, a grid.Axis, met []float64, lo, hi BC, x0, x1, j, k int, op Op) {
	n := dimOf(f, a)
	l1, h0, s := segments(a, n, 4, lo, hi, x0, x1, j, k)
	runRow(dst, f.Data, f.Idx(x0, j, k), strideOf(f, a), n, a, met, x0, x1, l1, h0, s, op)
}

// runRow is one classified row of diffRow over src, the row starting at flat
// index p on a line of n points: the full-stencil run [l1, h0) through one
// vexp stencil row (the neighbours ±1…±4 strides away: points of the row
// along x, whose metric varies per point, the rows around it along y and z,
// which share one), the closure points through closeRow.
func runRow(dst, src []float64, p, stride, n int, a grid.Axis, met []float64, x0, x1, l1, h0, s int, op Op) {
	if c0, c1 := l1-x0, h0-x0; c1 > c0 {
		if a == grid.X {
			vexp.Diff8(dst[c0:c1], src, p+c0, stride, &c8, met[l1:h0], op == OpAdd)
		} else {
			vexp.Diff8Scalar(dst[c0:c1], src, p+c0, stride, &c8, met[s], op == OpAdd)
		}
	}
	if a != grid.X { // the row shares s: one closure run
		if l1 > x0 {
			closeRow(dst, src, p, stride, s, false, met[s], op)
		}
		if h0 < x1 {
			closeRow(dst, src, p, stride, n-1-s, true, met[s], op)
		}
		return
	}
	for i := x0; i < l1; i++ { // along x every closure point is its own run
		closeRow(dst[i-x0:i-x0+1], src, p+i-x0, stride, i, false, met[i], op)
	}
	for i := h0; i < x1; i++ {
		closeRow(dst[i-x0:i-x0+1], src, p+i-x0, stride, n-1-i, true, met[i], op)
	}
}

// segments classifies the points [x0, x1) of row (j, k) for an operator of
// closure width cw along axis a on a line of n points: [x0, l1) take the low
// closure, r = s points from the boundary; [l1, h0) the full stencil; and
// [h0, x1) the high closure, r = n−1−s points from it. Along x a row is a
// piece of a grid line and s is each point's own i; along y and z the row
// shares s, its j or k, and falls in one class. The classification depends
// on the point alone, never on the row's extent, which is what makes every
// ranged operator tiling-invariant. A line too short for both closures
// gives every point to the closure of its nearer closed end — the distance
// each closure assumes: a line closed at both ends splits at its midpoint.
func segments(a grid.Axis, n, cw int, lo, hi BC, x0, x1, j, k int) (l1, h0, s int) {
	i0, i1 := 0, n // the full-stencil range of the line
	if lo == OneSided {
		i0 = cw
	}
	if hi == OneSided {
		i1 = n - cw
	}
	if i1 < i0 {
		switch {
		case hi != OneSided:
			i0 = n
		case lo == OneSided:
			i0 = (n + 1) / 2
		}
		i1 = i0
	}
	switch a {
	case grid.X:
		return min(max(i0, x0), x1), min(max(i1, x0), x1), 0
	case grid.Y:
		s = j
	default:
		s = k
	}
	switch {
	case s < i0:
		return x1, x1, s
	case s >= i1:
		return x0, x0, s
	}
	return x0, x1, s
}

// closeRow applies the reduced-order boundary closure to the len(dst)
// unit-stride points starting at flat index p of src, all r points away from
// the low (or, with high, the high) boundary; stencil neighbours lie stride
// apart. Points 0 and 1 use the fourth-order one-sided weights (mirrored and
// negated at the high end), point 2 the centred fourth-order stencil, point 3
// — and any deeper point of a line too short for the full stencil — the
// sixth-order.
func closeRow(dst, src []float64, p, stride, r int, high bool, met float64, op Op) {
	add := op == OpAdd
	switch r {
	case 0:
		vexp.OneSided5(dst, src, p, stride, &OneSided4, 0, high, met, add)
	case 1:
		vexp.OneSided5(dst, src, p, stride, &b1, 1, high, met, add)
	case 2:
		vexp.Diff4(dst, src, p, stride, &c4, met, add)
	default:
		vexp.Diff6(dst, src, p, stride, &c6, met, add)
	}
}

// FilterRange is Filter restricted to the interior index box [boxLo, boxHi),
// with the same tiling-invariance guarantee and point classification as
// DiffRange (closure width 5).
func FilterRange(dst, f *grid.Field3, a grid.Axis, sigma float64, lo, hi BC, boxLo, boxHi [3]int) {
	n := dimOf(f, a)
	if n == 1 {
		dst.CopyRange(f, boxLo, boxHi)
		return
	}
	stride := strideOf(f, a)
	dd, src := dst.Data, f.Data
	eachRow(f, a, boxLo, boxHi, func(p, x0, x1, j, k int) {
		l1, h0, s := segments(a, n, 5, lo, hi, x0, x1, j, k)
		if q := p + l1 - x0; h0 > l1 {
			vexp.Filter10(dd[q:q+h0-l1], src, q, stride, &filter10, sigma/1024.0)
		}
		for i := x0; i < x1; i++ {
			if a == grid.X {
				s = i
			}
			if i < l1 {
				filterBoundaryPoint(dd, src, p+i-x0, stride, s, sigma)
			} else if i >= h0 {
				filterBoundaryPoint(dd, src, p+i-x0, stride, n-1-s, sigma)
			}
		}
	})
}

// filterBoundaryPoint applies the order-2d symmetric filter at flat index
// p, a point d away from the boundary (identity when d == 0).
func filterBoundaryPoint(dst, src []float64, p, stride, d int, sigma float64) {
	if d == 0 {
		dst[p] = src[p]
		return
	}
	// Weights (−1)^l·C(2d, d+l): an order-2d analogue of the interior filter.
	scale := sigma / float64(int(1)<<uint(2*d))
	var acc float64
	for l := -d; l <= d; l++ {
		w := binom(2*d, d+l)
		if ((l%2)+2)%2 == 1 {
			w = -w
		}
		acc += w * src[p+l*stride]
	}
	dst[p] = src[p] - scale*acc
}
