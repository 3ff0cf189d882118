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
								DiffRow(row, f, a, met, bc[0], bc[1], c[0], c[1], j, k)
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
