package deriv

import "github.com/s3dgo/s3d/internal/grid"

// Op selects how a ranged operator writes its result into dst.
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
// The box is swept one unit-stride x-row at a time along every axis: the
// full-stencil points of a row go through the row kernels of kernels.go (the
// neighbours are shifted views of the row along x, the rows ±1…±4 strides
// away along y and z), the reduced-order closure points through closeRow.
//
// With op == OpAdd the derivative is accumulated into dst instead of stored,
// fusing the AXPY that a divergence would otherwise need into the sweep.
func DiffRange(dst, f *grid.Field3, a grid.Axis, met []float64, lo, hi BC, boxLo, boxHi [3]int, op Op) {
	n := dimOf(f, a)
	if n == 1 {
		rangeFill(dst, boxLo, boxHi, op)
		return
	}
	stride := strideOf(f, a)
	dd, src := dst.Data, f.Data
	interior := func(p, w, s int) {
		v := rowViews(src, p, w, stride)
		switch {
		case a == grid.X && op == OpAdd:
			rowAdd(dd[p:p+w], v, met[s:s+w])
		case a == grid.X:
			rowSet(dd[p:p+w], v, met[s:s+w])
		case op == OpAdd:
			rowAddScalar(dd[p:p+w], v, met[s])
		default:
			rowSetScalar(dd[p:p+w], v, met[s])
		}
	}
	closure := func(p, w, s, r int, high bool) {
		closeRow(dd, src, p, w, stride, r, high, met[s], op)
	}
	sweepRows(f, a, 4, lo, hi, boxLo, boxHi, interior, closure)
}

// sweepRows walks the box one x-row at a time and hands every point to one
// of two operator callbacks, classified by its index s along axis a: a line
// of n points has the full stencil on [i0, i1) and cw closure points at each
// OneSided end. interior(p, w, s) receives a run of w full-stencil points
// starting at flat index p; closure(p, w, s, r, high) a run of w points that
// all sit r points away from the low (or high) boundary. Along x a row is a
// piece of a grid line, so s is the index of the run's first point and each
// closure point is its own run; along y and z the whole row shares s. The
// classification depends on the point alone, never on the box, which is what
// makes every ranged operator tiling-invariant.
func sweepRows(f *grid.Field3, a grid.Axis, cw int, lo, hi BC, boxLo, boxHi [3]int,
	interior func(p, w, s int), closure func(p, w, s, r int, high bool)) {
	n := dimOf(f, a)
	ax := int(a)
	boxLo[ax], boxHi[ax] = max(boxLo[ax], 0), min(boxHi[ax], n)
	x0, x1 := boxLo[0], boxHi[0]
	if x1 <= x0 {
		return
	}
	i0, i1 := 0, n
	if lo == OneSided {
		i0 = cw
	}
	if hi == OneSided {
		i1 = n - cw
	}
	if i1 < i0 {
		i0, i1 = 0, 0 // tiny line: handled fully by the high closure
	}
	for k := boxLo[2]; k < boxHi[2]; k++ {
		for j := boxLo[1]; j < boxHi[1]; j++ {
			p := f.Idx(x0, j, k)
			if a == grid.X {
				if c0, c1 := max(i0, x0), min(i1, x1); c1 > c0 {
					interior(p+c0-x0, c1-c0, c0)
				}
				if lo == OneSided {
					for i := x0; i < i0 && i < x1; i++ {
						closure(p+i-x0, 1, i, i, false)
					}
				}
				if hi == OneSided {
					for i := max(i1, x0); i < x1; i++ {
						closure(p+i-x0, 1, i, n-1-i, true)
					}
				}
				continue
			}
			s := j
			if a == grid.Z {
				s = k
			}
			switch {
			case s >= i0 && s < i1:
				interior(p, x1-x0, s)
			case lo == OneSided && s < i0:
				closure(p, x1-x0, s, s, false)
			case hi == OneSided && s >= i1:
				closure(p, x1-x0, s, n-1-s, true)
			}
		}
	}
}

// closeRow applies the reduced-order boundary closure to the w unit-stride
// points starting at flat index p, all r points away from the low (or, with
// high, the high) boundary; stencil neighbours lie stride apart. Points 0
// and 1 use the fourth-order one-sided weights (mirrored and negated at the
// high end), point 2 the centred fourth-order stencil, point 3 — and any
// deeper point of a line too short for the full stencil — the sixth-order.
func closeRow(dst, src []float64, p, w, stride, r int, high bool, met float64, op Op) {
	switch {
	case r >= 3:
		for q := p; q < p+w; q++ {
			d := c6[0]*(src[q+stride]-src[q-stride]) +
				c6[1]*(src[q+2*stride]-src[q-2*stride]) +
				c6[2]*(src[q+3*stride]-src[q-3*stride])
			store(dst, q, d*met, op)
		}
	case r == 2:
		for q := p; q < p+w; q++ {
			d := c4[0]*(src[q+stride]-src[q-stride]) + c4[1]*(src[q+2*stride]-src[q-2*stride])
			store(dst, q, d*met, op)
		}
	default:
		// One-sided weights over offsets −r…4−r, towards the interior.
		wts := &b0
		if r == 1 {
			wts = &b1
		}
		for q := p; q < p+w; q++ {
			var d float64
			if high {
				for m, wt := range wts {
					d -= wt * src[q-(m-r)*stride]
				}
			} else {
				for m, wt := range wts {
					d += wt * src[q+(m-r)*stride]
				}
			}
			store(dst, q, d*met, op)
		}
	}
}

// FilterRange is Filter restricted to the interior index box [boxLo, boxHi),
// with the same tiling-invariance guarantee as DiffRange.
func FilterRange(dst, f *grid.Field3, a grid.Axis, sigma float64, lo, hi BC, boxLo, boxHi [3]int) {
	if dimOf(f, a) == 1 {
		copyRange(dst, f, boxLo, boxHi)
		return
	}
	stride := strideOf(f, a)
	dd, src := dst.Data, f.Data
	interior := func(p, w, _ int) {
		filterRow(dd, src, p, w, stride, sigma/1024.0)
	}
	closure := func(p, w, _, r int, _ bool) {
		for q := p; q < p+w; q++ {
			filterBoundaryPoint(dd, src, q, stride, r, sigma)
		}
	}
	sweepRows(f, a, 5, lo, hi, boxLo, boxHi, interior, closure)
}

// filterRow applies the 10th-order interior filter to the w unit-stride
// points starting at flat index p, stencil neighbours stride apart:
// dst[q] = src[q] − scale·Σ filter10[l+5]·src[q+l·stride].
func filterRow(dst, src []float64, p, w, stride int, scale float64) {
	for q := p; q < p+w; q++ {
		var acc float64
		for l := -5; l <= 5; l++ {
			acc += filter10[l+5] * src[q+l*stride]
		}
		dst[q] = src[q] - scale*acc
	}
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

// store writes v into dst[p] under op.
func store(dst []float64, p int, v float64, op Op) {
	if op == OpAdd {
		dst[p] += v
	} else {
		dst[p] = v
	}
}

// rangeFill writes the unit-extent derivative (zero) into the box under op
// (OpAdd leaves dst unchanged, matching d/da ≡ 0 on a collapsed axis).
func rangeFill(dst *grid.Field3, boxLo, boxHi [3]int, op Op) {
	if op == OpAdd {
		return
	}
	dst.FillRange(0, boxLo, boxHi)
}

// copyRange is the unit-extent filter (identity) over the box.
func copyRange(dst, src *grid.Field3, boxLo, boxHi [3]int) {
	n := boxHi[0] - boxLo[0]
	for k := boxLo[2]; k < boxHi[2]; k++ {
		for j := boxLo[1]; j < boxHi[1]; j++ {
			rs := src.Idx(boxLo[0], j, k)
			rd := dst.Idx(boxLo[0], j, k)
			copy(dst.Data[rd:rd+n], src.Data[rs:rs+n])
		}
	}
}
