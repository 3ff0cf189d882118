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
// With op == OpAdd the derivative is accumulated into dst instead of stored,
// fusing the AXPY that a divergence would otherwise need into the sweep.
func DiffRange(dst, f *grid.Field3, a grid.Axis, met []float64, lo, hi BC, boxLo, boxHi [3]int, op Op) {
	n := dimOf(f, a)
	ax := int(a)
	s0, s1 := boxLo[ax], boxHi[ax]
	if n == 1 {
		rangeFill(dst, boxLo, boxHi, op)
		return
	}
	stride := strideOf(f, a)
	dd, src := dst.Data, f.Data
	eachLineRange(f, a, boxLo, boxHi, func(base int) {
		diffLineRange(dd, src, base, stride, n, met, lo, hi, s0, s1, op)
	})
}

// diffLineRange differentiates the span [s0, s1) of one grid line: the
// full-stencil interior through diffInterior, the reduced-order ends through
// the closures below.
func diffLineRange(dst, src []float64, base, stride, n int, met []float64, lo, hi BC, s0, s1 int, op Op) {
	i0, i1 := 0, n
	if lo == OneSided {
		i0 = 4
	}
	if hi == OneSided {
		i1 = n - 4
	}
	if i1 < i0 {
		i0, i1 = 0, 0 // tiny line: handled fully by closures below
	}
	c0, c1 := max(i0, s0), min(i1, s1)
	if c1 > c0 {
		diffInterior(dst, src, base, stride, c0, c1, met, op == OpAdd)
	}
	if lo == OneSided {
		closeLowRange(dst, src, base, stride, n, met, min(i0, s1), s0, op)
	}
	if hi == OneSided {
		closeHighRange(dst, src, base, stride, n, met, max(i1, s0), s1, op)
	}
}

// diffInterior applies the 8th-order interior stencil along one grid line
// for indices i in [c0, c1): p = base + i·stride,
// d = Σ c8[m-1]·(src[p+m·stride] − src[p−m·stride]), writing d·met[i]
// (add=false) or accumulating it (add=true) into dst[p].
func diffInterior(dst, src []float64, base, stride, c0, c1 int, met []float64, add bool) {
	for i := c0; i < c1; i++ {
		p := base + i*stride
		d := c8[0]*(src[p+stride]-src[p-stride]) +
			c8[1]*(src[p+2*stride]-src[p-2*stride]) +
			c8[2]*(src[p+3*stride]-src[p-3*stride]) +
			c8[3]*(src[p+4*stride]-src[p-4*stride])
		if add {
			dst[p] += d * met[i]
		} else {
			dst[p] = d * met[i]
		}
	}
}

// closeLowRange applies the low-boundary closure over [from, upto) — the
// closure points clamped into the span.
func closeLowRange(dst, src []float64, base, stride, n int, met []float64, upto, from int, op Op) {
	for i := max(from, 0); i < upto && i < n; i++ {
		p := base + i*stride
		var d float64
		switch {
		case i == 0:
			for m, w := range b0 {
				d += w * src[p+m*stride]
			}
		case i == 1:
			for m, w := range b1 {
				d += w * src[p+(m-1)*stride]
			}
		case i == 2:
			d = c4[0]*(src[p+stride]-src[p-stride]) + c4[1]*(src[p+2*stride]-src[p-2*stride])
		default: // i == 3
			d = c6[0]*(src[p+stride]-src[p-stride]) +
				c6[1]*(src[p+2*stride]-src[p-2*stride]) +
				c6[2]*(src[p+3*stride]-src[p-3*stride])
		}
		store(dst, p, d*met[i], op)
	}
}

// closeHighRange mirrors closeLowRange at the high end, for [from, upto).
func closeHighRange(dst, src []float64, base, stride, n int, met []float64, from, upto int, op Op) {
	for i := max(from, 0); i < n && i < upto; i++ {
		r := n - 1 - i // distance from the high boundary
		p := base + i*stride
		var d float64
		switch {
		case r == 0:
			for m, w := range b0 {
				d -= w * src[p-m*stride]
			}
		case r == 1:
			for m, w := range b1 {
				d -= w * src[p-(m-1)*stride]
			}
		case r == 2:
			d = c4[0]*(src[p+stride]-src[p-stride]) + c4[1]*(src[p+2*stride]-src[p-2*stride])
		default: // r == 3
			d = c6[0]*(src[p+stride]-src[p-stride]) +
				c6[1]*(src[p+2*stride]-src[p-2*stride]) +
				c6[2]*(src[p+3*stride]-src[p-3*stride])
		}
		store(dst, p, d*met[i], op)
	}
}

// FilterRange is Filter restricted to the interior index box [boxLo, boxHi),
// with the same tiling-invariance guarantee as DiffRange. Only OpSet makes
// physical sense for a filter, but the op parameter is kept for symmetry.
func FilterRange(dst, f *grid.Field3, a grid.Axis, sigma float64, lo, hi BC, boxLo, boxHi [3]int, op Op) {
	n := dimOf(f, a)
	ax := int(a)
	s0, s1 := boxLo[ax], boxHi[ax]
	if n == 1 {
		copyRangeOp(dst, f, boxLo, boxHi, op)
		return
	}
	stride := strideOf(f, a)
	dd, src := dst.Data, f.Data
	eachLineRange(f, a, boxLo, boxHi, func(base int) {
		filterLineRange(dd, src, base, stride, n, sigma, lo, hi, s0, s1, op)
	})
}

func filterLineRange(dst, src []float64, base, stride, n int, sigma float64, lo, hi BC, s0, s1 int, op Op) {
	i0, i1 := 0, n
	if lo == OneSided {
		i0 = 5
	}
	if hi == OneSided {
		i1 = n - 5
	}
	if i1 < i0 {
		i0, i1 = 0, 0
	}
	c0, c1 := max(i0, s0), min(i1, s1)
	if c1 > c0 {
		filterInterior(dst, src, base, stride, c0, c1, sigma/1024.0, op == OpAdd)
	}
	if lo == OneSided {
		for i := max(0, s0); i < i0 && i < n && i < s1; i++ {
			filterBoundaryPointOp(dst, src, base, stride, i, i, sigma, op)
		}
	}
	if hi == OneSided {
		for i := max(i1, s0); i < n && i < s1; i++ {
			if i < 0 {
				continue
			}
			filterBoundaryPointOp(dst, src, base, stride, i, n-1-i, sigma, op)
		}
	}
}

// filterInterior applies the 10th-order interior filter along one grid line
// for i in [c0, c1): dst[p] = src[p] − scale·Σ filter10[l+5]·src[p+l·stride].
func filterInterior(dst, src []float64, base, stride, c0, c1 int, scale float64, add bool) {
	for i := c0; i < c1; i++ {
		p := base + i*stride
		var acc float64
		for l := -5; l <= 5; l++ {
			acc += filter10[l+5] * src[p+l*stride]
		}
		if add {
			dst[p] += src[p] - scale*acc
		} else {
			dst[p] = src[p] - scale*acc
		}
	}
}

// filterBoundaryPointOp applies the order-2d symmetric filter at a point d
// away from the boundary (identity when d == 0).
func filterBoundaryPointOp(dst, src []float64, base, stride, i, d int, sigma float64, op Op) {
	p := base + i*stride
	if d == 0 {
		store(dst, p, src[p], op)
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
	store(dst, p, src[p]-scale*acc, op)
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
	n := boxHi[0] - boxLo[0]
	for k := boxLo[2]; k < boxHi[2]; k++ {
		for j := boxLo[1]; j < boxHi[1]; j++ {
			row := dst.Idx(boxLo[0], j, k)
			for i := 0; i < n; i++ {
				dst.Data[row+i] = 0
			}
		}
	}
}

// copyRangeOp is the unit-extent filter (identity) over the box.
func copyRangeOp(dst, src *grid.Field3, boxLo, boxHi [3]int, op Op) {
	n := boxHi[0] - boxLo[0]
	for k := boxLo[2]; k < boxHi[2]; k++ {
		for j := boxLo[1]; j < boxHi[1]; j++ {
			rs := src.Idx(boxLo[0], j, k)
			rd := dst.Idx(boxLo[0], j, k)
			if op == OpAdd {
				for i := 0; i < n; i++ {
					dst.Data[rd+i] += src.Data[rs+i]
				}
			} else {
				copy(dst.Data[rd:rd+n], src.Data[rs:rs+n])
			}
		}
	}
}

// eachLineRange invokes fn for every grid line along a whose transverse
// coordinates lie inside the box, passing the line's interior-origin flat
// index (the span along a is clamped separately by the line kernels).
func eachLineRange(f *grid.Field3, a grid.Axis, boxLo, boxHi [3]int, fn func(base int)) {
	switch a {
	case grid.X:
		for k := boxLo[2]; k < boxHi[2]; k++ {
			for j := boxLo[1]; j < boxHi[1]; j++ {
				fn(f.Idx(0, j, k))
			}
		}
	case grid.Y:
		for k := boxLo[2]; k < boxHi[2]; k++ {
			for i := boxLo[0]; i < boxHi[0]; i++ {
				fn(f.Idx(i, 0, k))
			}
		}
	default:
		for j := boxLo[1]; j < boxHi[1]; j++ {
			for i := boxLo[0]; i < boxHi[0]; i++ {
				fn(f.Idx(i, j, 0))
			}
		}
	}
}
