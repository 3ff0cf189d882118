package deriv

import (
	"math"
	"math/rand"
	"testing"

	"github.com/s3dgo/s3d/internal/grid"
)

var allBCs = [][2]BC{{UseGhosts, UseGhosts}, {OneSided, OneSided}, {UseGhosts, OneSided}, {OneSided, UseGhosts}}

// lineDims returns the field extents of the row tests: one 3-D box, then
// for every axis and every line length n from 5 (the shortest a
// non-periodic solver axis may have) to 12, a small box n points long
// along that axis.
func lineDims() [][3]int {
	out := [][3]int{{14, 12, 11}}
	for n := 5; n <= 12; n++ {
		for a := 0; a < 3; a++ {
			d := [3]int{7, 6, 5}
			d[a] = n
			out = append(out, d)
		}
	}
	return out
}

// TestDiffRowMatchesDiffRange: DiffRow over a piece [x0, x1) of any row
// carries DiffRange's bits at every point — along all three axes, with a
// linear and (along y) a stretched metric, under every closure pairing, for
// rows cut anywhere, on lines of 5 to 12 points as well as a larger box.
func TestDiffRowMatchesDiffRange(t *testing.T) {
	for _, dims := range lineDims() {
		f := randomField(dims[0], dims[1], dims[2], 11)
		nx := dims[0]
		cuts := [][2]int{{0, nx}, {0, 1}, {nx - 1, nx}, {1, nx - 2}, {2, 3}, {nx / 2, nx}}
		row := make([]float64, nx)
		for _, a := range []grid.Axis{grid.X, grid.Y, grid.Z} {
			n := dims[a]
			mets := [][]float64{metric(n)}
			if a == grid.Y {
				mets = append(mets, stretchedMetric(n))
			}
			for mi, met := range mets {
				for _, bc := range allBCs {
					want := grid.NewField3Ghost(dims[0], dims[1], dims[2], grid.Ghost)
					Diff(want, f, a, met, bc[0], bc[1])
					for k := 0; k < dims[2]; k++ {
						for j := 0; j < dims[1]; j++ {
							for _, c := range cuts {
								DiffRow(row, f, a, met, bc[0], bc[1], c[0], c[1], j, k, OpSet)
								for i := c[0]; i < c[1]; i++ {
									if got := row[i-c[0]]; math.Float64bits(got) != math.Float64bits(want.At(i, j, k)) {
										t.Fatalf("dims %v axis %v metric %d bc %v cut %v: (%d,%d,%d) = %x, DiffRange %x",
											dims, a, mi, bc, c, i, j, k, math.Float64bits(got), math.Float64bits(want.At(i, j, k)))
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// rowCases calls fn for every row configuration of the row tests on a
// layout of the given extents: each axis, a linear and (along y) a stretched
// metric, every closure pairing, and rows (j, k) cut anywhere.
func rowCases(dims [3]int, fn func(a grid.Axis, met []float64, bc [2]BC, x0, x1, j, k int)) {
	nx := dims[0]
	cuts := [][2]int{{0, nx}, {0, 1}, {nx - 1, nx}, {1, nx - 2}, {2, 3}, {nx / 2, nx}}
	for _, a := range []grid.Axis{grid.X, grid.Y, grid.Z} {
		mets := [][]float64{metric(dims[a])}
		if a == grid.Y && dims[a] > 1 {
			mets = append(mets, stretchedMetric(dims[a]))
		}
		for _, met := range mets {
			for _, bc := range allBCs {
				for k := 0; k < dims[2]; k++ {
					for j := 0; j < dims[1]; j++ {
						for _, c := range cuts {
							fn(a, met, bc, c[0], c[1], j, k)
						}
					}
				}
			}
		}
	}
}

// sameRowBits reports the first point of [x0, x1) where got and want differ.
func sameRowBits(t *testing.T, got, want []float64, x0, x1 int, format string, args ...any) {
	t.Helper()
	for i := 0; i < x1-x0; i++ {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf(format+": point %d = %x want %x", append(args, x0+i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))...)
		}
	}
}

// rowsLayouts returns, per extents of lineDims plus a plane with a ghost-less
// one-point z axis (the solver's 2-D layout), seven random fields sharing one
// storage layout, carved from one FieldSet.
func rowsLayouts() [][]*grid.Field3 {
	var out [][]*grid.Field3
	for s, dims := range append(lineDims(), [3]int{9, 7, 1}) {
		fs := grid.NewFieldSet(dims[0], dims[1], dims[2], grid.Ghost)
		for n := 0; n < 7; n++ {
			fs.Register(grid.FieldMeta{Name: string(rune('a' + n)), Species: -1})
		}
		fs.Build()
		rng := rand.New(rand.NewSource(int64(100 + s)))
		fields := make([]*grid.Field3, 7)
		for n := range fields {
			fields[n] = fs.Field(n)
			for i := range fields[n].Data {
				fields[n].Data[i] = rng.NormFloat64()
			}
		}
		out = append(out, fields)
	}
	return out
}

// TestDiffRowsMatchDiffRow: over every row configuration, DiffRows leaves in
// each dst[n] exactly the bits DiffRow gives for src[n], for a source list of
// one field and of seven fields on one layout; a dst row beyond the source
// list is left alone.
func TestDiffRowsMatchDiffRow(t *testing.T) {
	for _, fields := range rowsLayouts() {
		f0 := fields[0]
		dims := [3]int{f0.Nx, f0.Ny, f0.Nz}
		nx := dims[0]
		want := make([]float64, nx)
		for _, src := range [][]*grid.Field3{fields[:1], fields} {
			dst := make([][]float64, len(src)+1)
			for n := range dst {
				dst[n] = make([]float64, nx)
			}
			spare := dst[len(src)]
			spare[0] = 42
			rowCases(dims, func(a grid.Axis, met []float64, bc [2]BC, x0, x1, j, k int) {
				for n := range src {
					dst[n][0] = math.NaN() // a value DiffRows must overwrite
				}
				DiffRows(dst, src, a, met, bc[0], bc[1], x0, x1, j, k)
				for n, f := range src {
					DiffRow(want, f, a, met, bc[0], bc[1], x0, x1, j, k, OpSet)
					sameRowBits(t, dst[n], want, x0, x1, "dims %v fields %d axis %v bc %v row (%d,%d) field %d",
						dims, len(src), a, bc, j, k, n)
				}
				if spare[0] != 42 {
					t.Fatalf("dims %v: DiffRows wrote past its source list", dims)
				}
			})
		}
	}
}

// TestDiffRowAddAddsDiffRow: DiffRow with OpAdd adds exactly DiffRow's
// OpSet value onto a random row, one rounding per point, in every row
// configuration (a one-point axis adds nothing).
func TestDiffRowAddAddsDiffRow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, fields := range rowsLayouts() {
		f := fields[0]
		dims := [3]int{f.Nx, f.Ny, f.Nz}
		nx := dims[0]
		d, acc, want := make([]float64, nx), make([]float64, nx), make([]float64, nx)
		rowCases(dims, func(a grid.Axis, met []float64, bc [2]BC, x0, x1, j, k int) {
			for i := range acc {
				acc[i] = rng.NormFloat64()
			}
			DiffRow(d, f, a, met, bc[0], bc[1], x0, x1, j, k, OpSet)
			for i := 0; i < x1-x0; i++ {
				want[i] = acc[i] + d[i]
			}
			DiffRow(acc, f, a, met, bc[0], bc[1], x0, x1, j, k, OpAdd)
			sameRowBits(t, acc, want, x0, x1, "dims %v axis %v bc %v row (%d,%d)", dims, a, bc, j, k)
		})
	}
}

// TestShortLinesReadNoGhost: on a line closed at both ends, Diff and Filter
// read no ghost cell, however short the line — down to the 5 points a
// non-periodic solver axis needs: with NaN in every ghost cell every result
// is finite. (Before each point took the closure of its nearer boundary, a
// line of 5–7 points read ghosts below it and one of 7–9 handed the filter
// offsets past the ghost layers.)
func TestShortLinesReadNoGhost(t *testing.T) {
	for _, dims := range lineDims() {
		f := grid.NewField3Ghost(dims[0], dims[1], dims[2], grid.Ghost)
		f.Fill(math.NaN())
		rng := rand.New(rand.NewSource(12))
		f.Map(func(_, _, _ int, _ float64) float64 { return rng.NormFloat64() })
		dst := grid.NewField3Ghost(dims[0], dims[1], dims[2], grid.Ghost)
		for _, a := range []grid.Axis{grid.X, grid.Y, grid.Z} {
			for name, apply := range map[string]func(){
				"Diff":   func() { Diff(dst, f, a, metric(dims[a]), OneSided, OneSided) },
				"Filter": func() { Filter(dst, f, a, 1, OneSided, OneSided) },
			} {
				apply()
				dst.Each(func(i, j, k int, v float64) {
					if math.IsNaN(v) {
						t.Fatalf("%s along %v of a %d-point line: NaN at (%d,%d,%d)", name, a, dims[a], i, j, k)
					}
				})
			}
		}
	}
}
