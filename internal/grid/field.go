package grid

import "fmt"

// Ghost is the ghost-layer width used throughout the solver. The 8th-order
// first derivative needs four neighbours per side (9-point stencil) and the
// 10th-order filter needs five (11-point stencil, paper §2.6), so five ghost
// layers cover both.
const Ghost = 5

// AxisGhost returns the number of ghost layers a field of nominal ghost width
// ghost carries on each side of an axis of n interior points: none when the
// axis has a single point, ghost otherwise. It is the one storage rule. A
// one-point axis has nothing to difference against — every derivative along
// it is zero and every filter the identity — so no stencil ever reads a
// ghost cell along it, and a block that is thin along an axis it shares with
// neighbours is rejected before it is built (solver.CheckDecomposition).
func AxisGhost(n, ghost int) int {
	if n == 1 {
		return 0
	}
	return ghost
}

// Field3 is a scalar field on a 3-D structured block, stored flat with
// ghost layers on both sides of every axis of more than one point (see
// AxisGhost). The innermost (fastest) index is i, matching the memory layout
// of the original Fortran code transposed — unit-stride inner loops are
// preserved.
type Field3 struct {
	Nx, Ny, Nz int // interior extents
	G          int // nominal ghost width; Ghosts gives the per-axis widths

	layout

	Data []float64
}

// layout is the flat-index map of a field: per-axis ghost widths, strides,
// the offset of interior point (0,0,0) and the storage size. It is a pure
// function of the extents and the nominal ghost width (newLayout), so fields
// of one FieldSet share it and one flat offset addresses the same point in
// all of them.
//
// The j or k stride of a one-point axis is the storage size: the only index a
// caller may pass along it is 0, and any other lands outside Data and panics
// there instead of aliasing a neighbouring row or plane. The i stride is
// always 1 — giving Idx a third multiply for the sake of a one-point x axis
// cost the 3-D pointwise sweeps about a percent — so along x that guarantee
// holds for Row (a one-element slice) and not for At/Set/Idx.
type layout struct {
	ghosts [3]int // ghost-layer width per axis
	sj, sk int
	off    int
	size   int
}

func newLayout(nx, ny, nz, ghost int) layout {
	gx, gy, gz := AxisGhost(nx, ghost), AxisGhost(ny, ghost), AxisGhost(nz, ghost)
	row := nx + 2*gx
	plane := row * (ny + 2*gy)
	l := layout{ghosts: [3]int{gx, gy, gz}, sj: row, sk: plane,
		off: gz*plane + gy*row + gx, size: plane * (nz + 2*gz)}
	if ny == 1 {
		l.sj = l.size
	}
	if nz == 1 {
		l.sk = l.size
	}
	return l
}

// NewField3 allocates a zeroed field with the solver-wide ghost width for
// the interior extents of g.
func NewField3(g *Grid) *Field3 { return NewField3Ghost(g.Nx, g.Ny, g.Nz, Ghost) }

// NewField3Ghost allocates a zeroed field with explicit extents and nominal
// ghost width.
func NewField3Ghost(nx, ny, nz, ghost int) *Field3 {
	f := &Field3{Nx: nx, Ny: ny, Nz: nz, G: ghost, layout: newLayout(nx, ny, nz, ghost)}
	f.Data = make([]float64, f.size)
	return f
}

// Ghosts returns the ghost-layer width along each axis.
func (f *Field3) Ghosts() [3]int { return f.ghosts }

// Idx returns the flat index of point (i, j, k); ghost points are addressed
// with negative indices or indices ≥ the interior extent.
func (f *Field3) Idx(i, j, k int) int { return f.off + k*f.sk + j*f.sj + i }

// Strides returns the flat-index strides (di, dj, dk) = (1, sj, sk). Only the
// stride of an axis with more than one point is a distance between
// neighbours.
func (f *Field3) Strides() (int, int, int) { return 1, f.sj, f.sk }

// At returns the value at (i, j, k).
func (f *Field3) At(i, j, k int) float64 {
	return f.Data[f.Idx(i, j, k)]
}

// Set stores v at (i, j, k).
func (f *Field3) Set(i, j, k int, v float64) {
	f.Data[f.Idx(i, j, k)] = v
}

// Add accumulates v at (i, j, k).
func (f *Field3) Add(i, j, k int, v float64) {
	f.Data[f.Idx(i, j, k)] += v
}

// Fill sets every value (including ghosts) to v.
func (f *Field3) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// Clone returns a deep copy of the field.
func (f *Field3) Clone() *Field3 {
	c := *f
	c.Data = append([]float64(nil), f.Data...)
	return &c
}

// Row returns the contiguous slice of Nx values for row (·, j, k) — ghost rows
// are addressed like ghost points, with j or k outside the interior:
// Row(j, k)[i] aliases At(i, j, k). The unit-stride access path for tiled
// kernels; the slice is a view into the field's storage.
func (f *Field3) Row(j, k int) []float64 {
	base := f.Idx(0, j, k)
	return f.Data[base : base+f.Nx]
}

// FillRange sets the index box [lo, hi) (exclusive), addressed in interior
// coordinates, to v; ghost points may be included via negative indices.
// Sweeping the interior tile-by-tile with a ranged op visits each point
// exactly once in the same i-fastest order as a full-interior loop, so
// results are independent of the tiling.
func (f *Field3) FillRange(v float64, lo, hi [3]int) {
	n := hi[0] - lo[0]
	fd := f.Data
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			row := f.Idx(lo[0], j, k)
			for i := 0; i < n; i++ {
				fd[row+i] = v
			}
		}
	}
}

// CopyRange copies the index box [lo, hi) from src (same shape required).
func (f *Field3) CopyRange(src *Field3, lo, hi [3]int) {
	f.mustMatch(src)
	n := hi[0] - lo[0]
	fd, sd := f.Data, src.Data
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			row := f.Idx(lo[0], j, k)
			copy(fd[row:row+n], sd[row:row+n])
		}
	}
}

// Each calls fn for every interior point.
func (f *Field3) Each(fn func(i, j, k int, v float64)) {
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			row := f.Idx(0, j, k)
			for i := 0; i < f.Nx; i++ {
				fn(i, j, k, f.Data[row+i])
			}
		}
	}
}

// Map replaces every interior value by fn(i, j, k, v).
func (f *Field3) Map(fn func(i, j, k int, v float64) float64) {
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			row := f.Idx(0, j, k)
			for i := 0; i < f.Nx; i++ {
				f.Data[row+i] = fn(i, j, k, f.Data[row+i])
			}
		}
	}
}

// MinMax returns the interior minimum and maximum. It is the primitive
// behind S3D's min/max monitoring files (paper §9).
func (f *Field3) MinMax() (min, max float64) {
	first := true
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			row := f.Idx(0, j, k)
			for i := 0; i < f.Nx; i++ {
				v := f.Data[row+i]
				if first {
					min, max, first = v, v, false
					continue
				}
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
		}
	}
	return min, max
}

// SumInterior returns the sum over interior points.
func (f *Field3) SumInterior() float64 {
	var s float64
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			row := f.Idx(0, j, k)
			for i := 0; i < f.Nx; i++ {
				s += f.Data[row+i]
			}
		}
	}
	return s
}

// WrapPeriodic fills the ghost layers along the axis by periodic wraparound
// of the interior values, over the interior cross-section of the other two
// axes only: an axis-aligned stencil reads a ghost cell with exactly one
// index outside the interior, so edge and corner ghosts are never written
// (or read) and wraps along different axes are independent. It is used for
// single-rank periodic directions; multi-rank runs fill the same face slabs
// through halo exchange instead. Layers fill outward, so an axis shorter
// than the ghost width still receives its periodic extension; an axis of one
// point has no ghost layers and the wrap does nothing.
func (f *Field3) WrapPeriodic(a Axis) {
	g, d := f.ghosts[a], f.Data
	switch a {
	case X:
		n := f.Nx
		for k := 0; k < f.Nz; k++ {
			for j := 0; j < f.Ny; j++ {
				row := f.Idx(0, j, k)
				for l := 1; l <= g; l++ {
					d[row-l] = d[row+n-l]
					d[row+n-1+l] = d[row+l-1]
				}
			}
		}
	case Y:
		n := f.Ny
		for k := 0; k < f.Nz; k++ {
			for l := 1; l <= g; l++ {
				copy(f.Row(-l, k), f.Row(n-l, k))
				copy(f.Row(n-1+l, k), f.Row(l-1, k))
			}
		}
	case Z:
		n := f.Nz
		for l := 1; l <= g; l++ {
			for j := 0; j < f.Ny; j++ {
				copy(f.Row(j, -l), f.Row(j, n-l))
				copy(f.Row(j, n-1+l), f.Row(j, l-1))
			}
		}
	}
}

// CopyFromUniformGhost fills the field's whole storage from src, a flat
// i-fastest image of a field of the same extents that carries f.G ghost
// layers on every axis, one-point axes included — the layout of every field
// before AxisGhost, and so of the flat temperature image in checkpoints
// written then. It reports false, copying nothing, when src is not of that
// layout's size.
func (f *Field3) CopyFromUniformGhost(src []float64) bool {
	g := f.G
	row := f.Nx + 2*g
	plane := row * (f.Ny + 2*g)
	if len(src) != plane*(f.Nz+2*g) {
		return false
	}
	gh := f.ghosts
	n := f.Nx + 2*gh[0]
	for k := -gh[2]; k < f.Nz+gh[2]; k++ {
		for j := -gh[1]; j < f.Ny+gh[1]; j++ {
			from := (k+g)*plane + (j+g)*row + g - gh[0]
			to := f.Idx(-gh[0], j, k)
			copy(f.Data[to:to+n], src[from:from+n])
		}
	}
	return true
}

// mustMatch panics unless x has f's extents and layout, so that one flat
// offset addresses the same point in both.
func (f *Field3) mustMatch(x *Field3) {
	if f.Nx != x.Nx || f.Ny != x.Ny || f.Nz != x.Nz || f.layout != x.layout {
		panic(fmt.Sprintf("grid: field shape mismatch %dx%dx%d/g%d %+v vs %dx%dx%d/g%d %+v",
			f.Nx, f.Ny, f.Nz, f.G, f.layout, x.Nx, x.Ny, x.Nz, x.G, x.layout))
	}
}
