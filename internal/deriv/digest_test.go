package deriv

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/s3dgo/s3d/internal/grid"
)

// stencilDigest is the FNV-1a hash of stencilOutputs. It was taken from the
// one-point-at-a-time row loops the stencil rows of internal/vexp replaced;
// the test below holds both builds to it — the packed AVX2 rows and, under
// -tags purego, their Go loops alone — so the two paths agree with each
// other and with the loops they replaced, bit for bit.
const stencilDigest = "02927389c6b98d15"

// stencilOutputs runs every derivative and filter path of the package on a
// 21×13×11 field with a stretched metric along every axis: DiffRange along
// x, y and z under every closure pairing (so every closure class — the
// one-sided rows r = 0 and 1, the fourth- and sixth-order rows r = 2 and 3 —
// at both faces), DiffRow with OpAdd onto a prefilled row, DiffRows, and
// FilterRange at two strengths, and returns every value written. The field
// mixes normals over twenty decades with zeros of both signs and denormals,
// all finite, so no NaN payload enters the bits.
func stencilOutputs() []float64 {
	dims := [3]int{21, 13, 11}
	rng := rand.New(rand.NewSource(48))
	draw := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(rng.Intn(7)-3) * math.SmallestNonzeroFloat64
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
	}
	f := grid.NewField3Ghost(dims[0], dims[1], dims[2], grid.Ghost)
	g := grid.NewField3Ghost(dims[0], dims[1], dims[2], grid.Ghost)
	for i := range f.Data {
		f.Data[i], g.Data[i] = draw(), draw()
	}
	stretched := func(n int) []float64 {
		m := stretchedMetric(n)
		for i := range m {
			m[i] *= 1 + 0.125*float64(i%3)
		}
		return m
	}
	var out []float64
	dst := grid.NewField3Ghost(dims[0], dims[1], dims[2], grid.Ghost)
	interior := func() {
		dst.Each(func(_, _, _ int, v float64) { out = append(out, v) })
	}
	row := make([]float64, dims[0])
	rows := [][]float64{make([]float64, dims[0]), make([]float64, dims[0])}
	for _, a := range []grid.Axis{grid.X, grid.Y, grid.Z} {
		met := stretched(dims[a])
		for _, bc := range allBCs {
			DiffRange(dst, f, a, met, bc[0], bc[1], [3]int{}, dims)
			interior()
			for k := 0; k < dims[2]; k++ {
				for j := 0; j < dims[1]; j++ {
					for i := range row {
						row[i] = g.At(i, j, k)
					}
					DiffRow(row, f, a, met, bc[0], bc[1], 0, dims[0], j, k, OpAdd)
					DiffRows(rows, []*grid.Field3{f, g}, a, met, bc[0], bc[1], 1, dims[0]-2, j, k)
					out = append(out, row...)
					out = append(out, rows[0][:dims[0]-3]...)
					out = append(out, rows[1][:dims[0]-3]...)
				}
			}
			for _, sigma := range []float64{1, 0.3} {
				FilterRange(dst, f, a, sigma, bc[0], bc[1], [3]int{}, dims)
				interior()
			}
		}
	}
	return out
}

// TestStencilDigest: the derivative and filter outputs of stencilOutputs
// hash to stencilDigest on this build. check.sh runs it with and without
// -tags purego.
func TestStencilDigest(t *testing.T) {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range stencilOutputs() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != stencilDigest {
		t.Fatalf("stencil digest %s, want %s", got, stencilDigest)
	}
}

// TestStencilNaNAdd: where DiffRow's OpAdd meets a NaN already in the row,
// the sum keeps the derivative's NaN, along every axis, in a packed block
// and in a row's tail alike — what the row loops did: the compiled
// dst[i] + d·met adds dst[i] into the register holding d·met, and of two
// NaNs x86 returns the destination's. (Which of two NaNs survives is an x86
// rule and the compiler's operand order, so the test runs on amd64 only.)
func TestStencilNaNAdd(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the NaN an add keeps is an x86 rule")
	}
	nanA, nanB := math.Float64frombits(0xfff80000000000a1), math.Float64frombits(0x7ff80000000000b2)
	dims := [3]int{13, 11, 10}
	for _, a := range []grid.Axis{grid.X, grid.Y, grid.Z} {
		for _, i := range []int{5, 12} { // a point of a packed block, the tail point
			f := randomField(dims[0], dims[1], dims[2], 3)
			at := [3]int{i, 5, 4}
			src := at
			src[a] -= 2
			f.Set(src[0], src[1], src[2], nanA)
			row := make([]float64, dims[0])
			for m := range row {
				row[m] = 1
			}
			row[i] = nanB
			DiffRow(row, f, a, metric(dims[a]), UseGhosts, UseGhosts, 0, dims[0], at[1], at[2], OpAdd)
			if got := math.Float64bits(row[i]); got != math.Float64bits(nanA) {
				t.Errorf("axis %v point %d: NaN row + NaN derivative = %#x, want the derivative's %#x",
					a, i, got, math.Float64bits(nanA))
			}
		}
	}
}
