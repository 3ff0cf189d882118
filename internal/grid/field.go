package grid

import "fmt"

// Ghost is the ghost-layer width used throughout the solver. The 8th-order
// first derivative needs four neighbours per side (9-point stencil) and the
// 10th-order filter needs five (11-point stencil, paper §2.6), so five ghost
// layers cover both.
const Ghost = 5

// Field3 is a scalar field on a 3-D structured block, stored flat with
// ghost layers on every side. The innermost (fastest) index is i, matching
// the memory layout of the original Fortran code transposed — unit-stride
// inner loops are preserved.
type Field3 struct {
	Nx, Ny, Nz int // interior extents
	G          int // ghost width

	sj, sk int // strides for j and k
	off    int // offset of interior point (0,0,0)

	Data []float64
}

// NewField3 allocates a zeroed field with the solver-wide ghost width for
// the interior extents of g.
func NewField3(g *Grid) *Field3 { return NewField3Ghost(g.Nx, g.Ny, g.Nz, Ghost) }

// NewField3Ghost allocates a zeroed field with explicit extents and ghost
// width.
func NewField3Ghost(nx, ny, nz, ghost int) *Field3 {
	f := &Field3{Nx: nx, Ny: ny, Nz: nz, G: ghost}
	f.sj = nx + 2*ghost
	f.sk = f.sj * (ny + 2*ghost)
	f.off = ghost*f.sk + ghost*f.sj + ghost
	f.Data = make([]float64, f.sk*(nz+2*ghost))
	return f
}

// Idx returns the flat index of point (i, j, k); ghost points are addressed
// with negative indices or indices ≥ the interior extent.
func (f *Field3) Idx(i, j, k int) int { return f.off + k*f.sk + j*f.sj + i }

// Strides returns the flat-index strides (di, dj, dk) = (1, sj, sk).
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

// CopyFrom copies the full contents (including ghosts) of src, which must
// have identical shape.
func (f *Field3) CopyFrom(src *Field3) {
	f.mustMatch(src)
	copy(f.Data, src.Data)
}

// Clone returns a deep copy of the field.
func (f *Field3) Clone() *Field3 {
	c := &Field3{Nx: f.Nx, Ny: f.Ny, Nz: f.Nz, G: f.G, sj: f.sj, sk: f.sk, off: f.off}
	c.Data = append([]float64(nil), f.Data...)
	return c
}

// AXPY computes f += a*x over the whole storage (interior and ghosts).
func (f *Field3) AXPY(a float64, x *Field3) {
	f.mustMatch(x)
	fd, xd := f.Data, x.Data
	for i := range fd {
		fd[i] += a * xd[i]
	}
}

// Scale multiplies the whole storage by a.
func (f *Field3) Scale(a float64) {
	for i := range f.Data {
		f.Data[i] *= a
	}
}

// Row returns the contiguous slice of Nx values for row (·, j, k) — ghost rows
// are addressed like ghost points, with j or k outside the interior:
// Row(j, k)[i] aliases At(i, j, k). The unit-stride access path for tiled
// kernels; the slice is a view into the field's storage.
func (f *Field3) Row(j, k int) []float64 {
	base := f.Idx(0, j, k)
	return f.Data[base : base+f.Nx]
}

// AXPYRange computes f += a*x over the index box [lo, hi) (exclusive),
// addressed in interior coordinates; ghost points may be included via
// negative indices. Sweeping the interior tile-by-tile with AXPYRange visits
// each point exactly once in the same i-fastest order as a full-interior
// loop, so results are independent of the tiling.
func (f *Field3) AXPYRange(a float64, x *Field3, lo, hi [3]int) {
	f.mustMatch(x)
	n := hi[0] - lo[0]
	fd, xd := f.Data, x.Data
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			row := f.Idx(lo[0], j, k)
			for i := 0; i < n; i++ {
				fd[row+i] += a * xd[row+i]
			}
		}
	}
}

// ScaleRange multiplies the index box [lo, hi) by a.
func (f *Field3) ScaleRange(a float64, lo, hi [3]int) {
	n := hi[0] - lo[0]
	fd := f.Data
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			row := f.Idx(lo[0], j, k)
			for i := 0; i < n; i++ {
				fd[row+i] *= a
			}
		}
	}
}

// SumRange returns the sum over the index box [lo, hi), accumulated in the
// same i-fastest order as SumInterior restricted to the box.
func (f *Field3) SumRange(lo, hi [3]int) float64 {
	n := hi[0] - lo[0]
	var s float64
	fd := f.Data
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			row := f.Idx(lo[0], j, k)
			for i := 0; i < n; i++ {
				s += fd[row+i]
			}
		}
	}
	return s
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
// than the ghost width still receives its periodic extension.
func (f *Field3) WrapPeriodic(a Axis) {
	g, d := f.G, f.Data
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

func (f *Field3) mustMatch(x *Field3) {
	if f.Nx != x.Nx || f.Ny != x.Ny || f.Nz != x.Nz || f.G != x.G {
		panic(fmt.Sprintf("grid: field shape mismatch %dx%dx%d/g%d vs %dx%dx%d/g%d",
			f.Nx, f.Ny, f.Nz, f.G, x.Nx, x.Ny, x.Nz, x.G))
	}
}
