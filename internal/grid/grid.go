// Package grid provides the structured three-dimensional Cartesian meshes
// and field storage used by the S3D solver.
//
// S3D solves the governing equations on a structured 3-D Cartesian mesh
// (paper §2.6). Meshes may be uniform in a direction or algebraically
// stretched (the lifted-flame and Bunsen configurations use a uniform mesh in
// the streamwise and spanwise directions and an algebraically stretched mesh
// in the transverse direction). Derivatives are taken with respect to a
// uniform computational index and mapped to physical space through the metric
// dξ/dx stored per grid line.
package grid

import (
	"fmt"
	"math"
)

// Axis identifies one of the three mesh directions.
type Axis int

// The three coordinate directions. X is streamwise, Y transverse and Z
// spanwise in the jet configurations of the paper.
const (
	X Axis = iota
	Y
	Z
)

func (a Axis) String() string {
	switch a {
	case X:
		return "x"
	case Y:
		return "y"
	case Z:
		return "z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Spec describes a mesh before construction.
type Spec struct {
	Nx, Ny, Nz int     // interior grid points per direction
	Lx, Ly, Lz float64 // physical domain extents (m)

	// StretchY enables the algebraic transverse stretching used in the jet
	// configurations: points cluster around the domain centreline with an
	// inverse-tanh mapping. Beta controls the clustering strength; Beta <= 0
	// selects a default of 1.5 (edge spacing ≈ cosh²β ≈ 5.5× centre spacing).
	StretchY bool
	Beta     float64
}

// Grid is a constructed mesh. Coordinates and metrics are per-direction
// line arrays (the mesh is a tensor product).
type Grid struct {
	Spec

	// Xc, Yc, Zc hold the physical coordinate of each interior point.
	Xc, Yc, Zc []float64

	// MetX, MetY, MetZ hold dξ/dx (inverse Jacobian) at each interior point,
	// where ξ is the uniform computational coordinate with unit spacing.
	// A derivative computed on the index space is multiplied by the metric
	// to obtain the physical derivative.
	MetX, MetY, MetZ []float64
}

// New constructs a mesh from a spec. It panics on non-positive dimensions
// since a malformed spec is a programming error, not a runtime condition.
func New(s Spec) *Grid {
	if s.Nx <= 0 || s.Ny <= 0 || s.Nz <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %dx%dx%d", s.Nx, s.Ny, s.Nz))
	}
	if s.Lx <= 0 || s.Ly <= 0 || s.Lz <= 0 {
		panic(fmt.Sprintf("grid: non-positive extents %gx%gx%g", s.Lx, s.Ly, s.Lz))
	}
	g := &Grid{Spec: s}
	g.Xc, g.MetX = uniformLine(s.Nx, s.Lx)
	if s.StretchY {
		beta := s.Beta
		if beta <= 0 {
			beta = 1.5
		}
		g.Yc, g.MetY = stretchedLine(s.Ny, s.Ly, beta)
	} else {
		g.Yc, g.MetY = uniformLine(s.Ny, s.Ly)
	}
	g.Zc, g.MetZ = uniformLine(s.Nz, s.Lz)
	return g
}

// uniformLine returns coordinates and metrics for N points spanning [0, L].
// With a single point the spacing degenerates; the metric is set so that
// derivatives along that direction vanish gracefully (used for quasi-2D runs
// with Nz == 1).
func uniformLine(n int, l float64) (coord, met []float64) {
	coord = make([]float64, n)
	met = make([]float64, n)
	if n == 1 {
		coord[0] = 0
		met[0] = 0
		return coord, met
	}
	h := l / float64(n-1)
	for i := range coord {
		coord[i] = float64(i) * h
		met[i] = 1 / h
	}
	return coord, met
}

// stretchedLine returns an algebraically stretched line on [-L/2, L/2] with
// points clustered around the centreline (where the jet shear layers live)
// via y(η) = (L/(2β))·atanh(η·tanh β) for η ∈ [-1, 1]. The metric dξ/dy is
// computed from the analytic dy/dη.
func stretchedLine(n int, l, beta float64) (coord, met []float64) {
	coord = make([]float64, n)
	met = make([]float64, n)
	if n == 1 {
		return coord, met
	}
	tb := math.Tanh(beta)
	dEta := 2 / float64(n-1) // η spacing per unit index
	for i := range coord {
		eta := -1 + float64(i)*dEta
		coord[i] = 0.5 * l * math.Atanh(eta*tb) / beta
		// dy/dη = (L/(2β))·tanhβ/(1−η²tanh²β); dξ/dy = (dy/dη·dη/dξ)⁻¹ with
		// unit index spacing ξ = i, i.e. dη/dξ = dEta.
		dydEta := 0.5 * l * tb / (beta * (1 - eta*eta*tb*tb))
		met[i] = 1 / (dydEta * dEta)
	}
	// The atanh endpoints are exact analytically; pin them to kill roundoff.
	coord[0], coord[n-1] = -0.5*l, 0.5*l
	return coord, met
}

// Dim returns the number of interior points along the axis.
func (g *Grid) Dim(a Axis) int {
	switch a {
	case X:
		return g.Nx
	case Y:
		return g.Ny
	default:
		return g.Nz
	}
}

// Metric returns the dξ/dx metric line for the axis.
func (g *Grid) Metric(a Axis) []float64 {
	switch a {
	case X:
		return g.MetX
	case Y:
		return g.MetY
	default:
		return g.MetZ
	}
}

// MinSpacing returns the smallest physical grid spacing in the mesh, the
// quantity that controls the acoustic CFL limit.
func (g *Grid) MinSpacing() float64 {
	min := math.Inf(1)
	lines := [][]float64{g.Xc, g.Yc, g.Zc}
	for _, c := range lines {
		for i := 1; i < len(c); i++ {
			if d := c[i] - c[i-1]; d > 0 && d < min {
				min = d
			}
		}
	}
	return min
}

// Sub returns a grid describing the subdomain [i0,i0+nx) × [j0,j0+ny) ×
// [k0,k0+nz) of g, sharing the parent's coordinate spacing and metrics.
// It is used by the domain decomposition: every rank's local grid is a Sub
// of the global grid, so metric terms are identical to the serial run.
func (g *Grid) Sub(i0, nx, j0, ny, k0, nz int) *Grid {
	sub := &Grid{Spec: g.Spec}
	sub.Nx, sub.Ny, sub.Nz = nx, ny, nz
	sub.Xc, sub.MetX = g.Xc[i0:i0+nx], g.MetX[i0:i0+nx]
	sub.Yc, sub.MetY = g.Yc[j0:j0+ny], g.MetY[j0:j0+ny]
	sub.Zc, sub.MetZ = g.Zc[k0:k0+nz], g.MetZ[k0:k0+nz]
	return sub
}
