// Package deriv implements the spatial discretisation of S3D (paper §2.6):
// an explicit eighth-order central finite-difference first derivative on a
// nine-point stencil, with reduced-order one-sided closures at non-periodic
// boundaries, and a tenth-order low-pass filter on an eleven-point stencil
// that removes spurious high-frequency fluctuations from the solution.
//
// Derivatives are computed on the uniform computational index and mapped to
// physical space through the per-line metric dξ/dx provided by the grid, so
// the same operators serve uniform and algebraically stretched directions.
//
// Diff and Filter are the whole-field forms; they delegate to
// DiffRange/FilterRange over the full interior box, which the
// tiling-invariance guarantee makes bitwise-identical to a dedicated
// whole-field sweep.
package deriv

import "github.com/s3dgo/s3d/internal/grid"

// BC selects how an operator treats one end of a grid line.
type BC int

const (
	// UseGhosts applies the full centred stencil straight through the
	// boundary, reading ghost values. Use it for periodic directions (after
	// a periodic wrap) and at interior subdomain boundaries (after a halo
	// exchange).
	UseGhosts BC = iota
	// OneSided switches to biased stencils of reduced order near the
	// boundary, reading interior points only. S3D uses this closure at
	// physical (NSCBC) boundaries.
	OneSided
)

// Eighth-order centred first-derivative weights for offsets ±1..±4
// (antisymmetric; the weight of offset −m is −c8[m−1]).
var c8 = [4]float64{4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0}

// filter10 holds (−1)^l·C(10,5+l) for offsets l = −5..5.
var filter10 = [11]float64{-1, 10, -45, 120, -210, 252, -210, 120, -45, 10, -1}

// Sixth- and fourth-order centred weights used by the boundary closures.
var (
	c6 = [3]float64{3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0}
	c4 = [2]float64{2.0 / 3.0, -1.0 / 12.0}
)

// OneSided4 holds the fourth-order fully one-sided weights of the closure's
// boundary point, offsets 0..4 into the domain (negated and mirrored at a
// high face). NSCBC differentiates its normal fluxes with the same weights,
// so the conventional term it replaces is removed exactly.
var OneSided4 = [5]float64{-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -1.0 / 4.0}

// Fourth-order once-shifted (point 1) weights, offsets -1..3.
var b1 = [5]float64{-1.0 / 4.0, -5.0 / 6.0, 3.0 / 2.0, -1.0 / 2.0, 1.0 / 12.0}

// Diff computes the physical first derivative of f along axis a into dst,
// multiplying by the metric line met (dξ/dx per interior index along a).
// lo and hi select the closure at each end. dst and f must have identical
// shape and must not alias.
//
// When the axis has a single point (quasi-2D runs) the derivative is zero.
func Diff(dst, f *grid.Field3, a grid.Axis, met []float64, lo, hi BC) {
	DiffRange(dst, f, a, met, lo, hi, [3]int{}, [3]int{f.Nx, f.Ny, f.Nz})
}

// Filter applies the tenth-order low-pass filter along axis a:
//
//	f̂ᵢ = fᵢ − (σ/1024)·Σₗ (−1)ˡ C(10,5+l) fᵢ₊ₗ
//
// sigma in (0,1] controls the strength (S3D applies the full-strength filter
// periodically). With OneSided closures the filter order reduces near the
// boundary (order 2d at distance d, unfiltered at the boundary point), the
// standard treatment for explicit filters at non-periodic boundaries.
func Filter(dst, f *grid.Field3, a grid.Axis, sigma float64, lo, hi BC) {
	FilterRange(dst, f, a, sigma, lo, hi, [3]int{}, [3]int{f.Nx, f.Ny, f.Nz})
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// dimOf returns the interior extent of f along a.
func dimOf(f *grid.Field3, a grid.Axis) int {
	switch a {
	case grid.X:
		return f.Nx
	case grid.Y:
		return f.Ny
	default:
		return f.Nz
	}
}

// strideOf returns the flat-index stride of f along a.
func strideOf(f *grid.Field3, a grid.Axis) int {
	di, dj, dk := f.Strides()
	switch a {
	case grid.X:
		return di
	case grid.Y:
		return dj
	default:
		return dk
	}
}
