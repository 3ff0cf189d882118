package deriv

import (
	"math"
	"math/rand"
	"testing"

	"github.com/s3dgo/s3d/internal/grid"
)

// randomField fills interior and ghosts with reproducible noise.
func randomField(nx, ny, nz int, seed int64) *grid.Field3 {
	f := grid.NewField3Ghost(nx, ny, nz, grid.Ghost)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func metric(n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = 1.7 + 0.01*float64(i)
	}
	return m
}

// stretchedMetric returns the metric line of a genuinely stretched grid
// direction (the algebraic transverse stretching of paper §2.6), so the
// parity tests run the per-point metric multiply with non-trivial values.
func stretchedMetric(n int) []float64 {
	g := grid.New(grid.Spec{Nx: 4, Ny: n, Nz: 1, Lx: 1, Ly: 1, Lz: 1,
		StretchY: true, Beta: 1.8})
	return g.Metric(grid.Y)
}

// tilings returns decompositions of the interior box for an operator along
// axis ax: one-plane tiles along each of the three axes, then a split along
// ax itself whose cuts land inside the one-sided closure regions (width 4
// for the derivative, 5 for the filter) — [0,2), [2,n-3), [n-3,n) — so
// individual tiles straddle the closure/interior seam at both BC ends.
func tilings(dims [3]int, ax int) [][][2][3]int {
	var out [][][2][3]int
	for tileAx := 0; tileAx < 3; tileAx++ {
		var tiles [][2][3]int
		for c := 0; c < dims[tileAx]; c++ {
			lo, hi := [3]int{}, dims
			lo[tileAx], hi[tileAx] = c, c+1
			tiles = append(tiles, [2][3]int{lo, hi})
		}
		out = append(out, tiles)
	}
	n := dims[ax]
	var straddle [][2][3]int
	for _, cut := range [][2]int{{0, 2}, {2, n - 3}, {n - 3, n}} {
		lo, hi := [3]int{}, dims
		lo[ax], hi[ax] = cut[0], cut[1]
		straddle = append(straddle, [2][3]int{lo, hi})
	}
	return append(out, straddle)
}

// sameBits fails the test at the first flat index where the fields differ.
func sameBits(t *testing.T, got, want *grid.Field3, format string, args ...any) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf(format+": flat %d = %x want %x", append(args, i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))...)
		}
	}
}

// TestDiffRangeTilesMatchDiff: covering the interior with tiles along every
// axis — including the derivative axis itself, with cuts inside the closure
// regions — must reproduce a full Diff bitwise, for every axis,
// boundary-closure combination and a linear as well as a stretched metric.
func TestDiffRangeTilesMatchDiff(t *testing.T) {
	nx, ny, nz := 14, 12, 11
	f := randomField(nx, ny, nz, 1)
	dims := [3]int{nx, ny, nz}
	bcs := [][2]BC{{UseGhosts, UseGhosts}, {OneSided, OneSided}, {UseGhosts, OneSided}, {OneSided, UseGhosts}}
	for _, a := range []grid.Axis{grid.X, grid.Y, grid.Z} {
		n := dims[int(a)]
		for mi, met := range [][]float64{metric(n), stretchedMetric(n)} {
			for _, bc := range bcs {
				want := grid.NewField3Ghost(nx, ny, nz, grid.Ghost)
				Diff(want, f, a, met, bc[0], bc[1])
				for ti, tiles := range tilings(dims, int(a)) {
					got := grid.NewField3Ghost(nx, ny, nz, grid.Ghost)
					for _, box := range tiles {
						DiffRange(got, f, a, met, bc[0], bc[1], box[0], box[1])
					}
					sameBits(t, got, want, "axis %v metric %d bc %v tiling %d", a, mi, bc, ti)
				}
			}
		}
	}
}

// TestDiffRangeAddMatchesSetPlusAXPY: DiffRow with OpAdd over every row of a
// box must equal a DiffRange into scratch followed by dst += scratch,
// bitwise.
func TestDiffRangeAddMatchesSetPlusAXPY(t *testing.T) {
	nx, ny, nz := 8, 7, 6
	f := randomField(nx, ny, nz, 2)
	met := metric(nx)
	box := [2][3]int{{0, 0, 0}, {nx, ny, nz}}

	acc := randomField(nx, ny, nz, 3)
	ref := acc.Clone()

	for k := box[0][2]; k < box[1][2]; k++ {
		for j := box[0][1]; j < box[1][1]; j++ {
			DiffRow(acc.Row(j, k), f, grid.X, met, UseGhosts, UseGhosts, box[0][0], box[1][0], j, k, OpAdd)
		}
	}

	scratch := grid.NewField3Ghost(nx, ny, nz, grid.Ghost)
	DiffRange(scratch, f, grid.X, met, UseGhosts, UseGhosts, box[0], box[1])
	for k := box[0][2]; k < box[1][2]; k++ {
		for j := box[0][1]; j < box[1][1]; j++ {
			r, s := ref.Row(j, k), scratch.Row(j, k)
			for i := range r {
				r[i] += s[i]
			}
		}
	}

	for i := range acc.Data {
		if math.Float64bits(acc.Data[i]) != math.Float64bits(ref.Data[i]) {
			t.Fatalf("OpAdd diverges from Set+AXPY at flat %d", i)
		}
	}
}

// TestDiffRangeDegenerateAxis: the derivative along a unit axis is zero:
// DiffRange zeroes the box, and a DiffRow accumulating it leaves the row
// unchanged.
func TestDiffRangeDegenerateAxis(t *testing.T) {
	f := randomField(6, 5, 1, 4)
	box := [2][3]int{{0, 0, 0}, {6, 5, 1}}
	dst := randomField(6, 5, 1, 5)
	DiffRange(dst, f, grid.Z, []float64{1}, UseGhosts, UseGhosts, box[0], box[1])
	for k := 0; k < 1; k++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 6; i++ {
				if dst.At(i, j, k) != 0 {
					t.Fatal("DiffRange on unit axis must zero the box")
				}
			}
		}
	}
	dst2 := randomField(6, 5, 1, 6)
	ref := dst2.Clone()
	for j := 0; j < 5; j++ {
		DiffRow(dst2.Row(j, 0), f, grid.Z, []float64{1}, UseGhosts, UseGhosts, 0, 6, j, 0, OpAdd)
	}
	for i := range dst2.Data {
		if dst2.Data[i] != ref.Data[i] {
			t.Fatal("OpAdd on unit axis must leave dst unchanged")
		}
	}
}

// TestFilterRangeTilesMatchFilter mirrors the Diff test for the filter.
func TestFilterRangeTilesMatchFilter(t *testing.T) {
	nx, ny, nz := 13, 11, 12
	f := randomField(nx, ny, nz, 7)
	dims := [3]int{nx, ny, nz}
	for _, a := range []grid.Axis{grid.X, grid.Y, grid.Z} {
		for _, bc := range [][2]BC{{UseGhosts, UseGhosts}, {OneSided, OneSided}} {
			want := grid.NewField3Ghost(nx, ny, nz, grid.Ghost)
			Filter(want, f, a, 0.5, bc[0], bc[1])
			for ti, tiles := range tilings(dims, int(a)) {
				got := grid.NewField3Ghost(nx, ny, nz, grid.Ghost)
				for _, box := range tiles {
					FilterRange(got, f, a, 0.5, bc[0], bc[1], box[0], box[1])
				}
				sameBits(t, got, want, "axis %v bc %v tiling %d", a, bc, ti)
			}
		}
	}
}

// TestFilterRangeDegenerateAxisCopies: unit axis filter is the identity.
func TestFilterRangeDegenerateAxisCopies(t *testing.T) {
	f := randomField(5, 4, 1, 8)
	dst := grid.NewField3Ghost(5, 4, 1, grid.Ghost)
	FilterRange(dst, f, grid.Z, 1, UseGhosts, UseGhosts, [3]int{0, 0, 0}, [3]int{5, 4, 1})
	for j := 0; j < 4; j++ {
		for i := 0; i < 5; i++ {
			if dst.At(i, j, 0) != f.At(i, j, 0) {
				t.Fatal("unit-axis filter must copy")
			}
		}
	}
}
