package deriv

import (
	"math"
	"math/rand"
	"testing"

	"github.com/s3dgo/s3d/internal/grid"
)

// The oracles below are the point-by-point definitions of the ranged
// operators: for one point at flat index p, i-th of n along the operator
// axis (neighbours stride apart), they return the value the operator
// produces before the store and whether the point is written at all. They
// walk the stencil through strided indexing with the term order of the
// original line kernels and share nothing with the row-shaped sweep.

// fullSpan returns the full-stencil index range [i0, i1) of an n-point line
// with cw closure points per OneSided end. It is empty for a line too short
// to hold both closures, whose points the closure of the nearer closed end
// takes: the first ⌈n/2⌉ the low one when both ends are closed.
func fullSpan(n, cw int, lo, hi BC) (i0, i1 int) {
	i0, i1 = 0, n
	if lo == OneSided {
		i0 = cw
	}
	if hi == OneSided {
		i1 = n - cw
	}
	if i1 >= i0 {
		return i0, i1
	}
	if hi != OneSided {
		return n, n
	}
	if lo != OneSided {
		return 0, 0
	}
	return (n + 1) / 2, (n + 1) / 2
}

func oracleDiffPoint(src []float64, p, stride, i, n int, lo, hi BC) (float64, bool) {
	at := func(m int) float64 { return src[p+m*stride] }
	i0, i1 := fullSpan(n, 4, lo, hi)
	var d float64
	switch r := n - 1 - i; {
	case i >= i0 && i < i1:
		d = c8[0]*(at(1)-at(-1)) + c8[1]*(at(2)-at(-2)) + c8[2]*(at(3)-at(-3)) + c8[3]*(at(4)-at(-4))
	case lo == OneSided && i < i0:
		switch i {
		case 0:
			for m, w := range OneSided4 {
				d += w * at(m)
			}
		case 1:
			for m, w := range b1 {
				d += w * at(m-1)
			}
		case 2:
			d = c4[0]*(at(1)-at(-1)) + c4[1]*(at(2)-at(-2))
		default:
			d = c6[0]*(at(1)-at(-1)) + c6[1]*(at(2)-at(-2)) + c6[2]*(at(3)-at(-3))
		}
	case hi == OneSided && i >= i1:
		switch r {
		case 0:
			for m, w := range OneSided4 {
				d -= w * at(-m)
			}
		case 1:
			for m, w := range b1 {
				d -= w * at(-(m - 1))
			}
		case 2:
			d = c4[0]*(at(1)-at(-1)) + c4[1]*(at(2)-at(-2))
		default:
			d = c6[0]*(at(1)-at(-1)) + c6[1]*(at(2)-at(-2)) + c6[2]*(at(3)-at(-3))
		}
	default:
		return 0, false
	}
	return d, true
}

func oracleFilterPoint(src []float64, p, stride, i, n int, sigma float64, lo, hi BC) (float64, bool) {
	i0, i1 := fullSpan(n, 5, lo, hi)
	d := -1 // distance to the boundary whose closure applies
	switch {
	case i >= i0 && i < i1:
		var acc float64
		for l := -5; l <= 5; l++ {
			acc += filter10[l+5] * src[p+l*stride]
		}
		return src[p] - sigma/1024.0*acc, true
	case lo == OneSided && i < i0:
		d = i
	case hi == OneSided && i >= i1:
		d = n - 1 - i
	default:
		return 0, false
	}
	if d == 0 {
		return src[p], true
	}
	scale := sigma / float64(int(1)<<uint(2*d))
	var acc float64
	for l := -d; l <= d; l++ {
		w := binom(2*d, d+l)
		if ((l%2)+2)%2 == 1 {
			w = -w
		}
		acc += w * src[p+l*stride]
	}
	return src[p] - scale*acc, true
}

// oracleRange applies a point oracle over the box the way a ranged operator
// must: the box clamped to the line along the axis, every other point of dst
// untouched, the result stored or accumulated under op. unit is the value of
// a collapsed (single-point) axis.
func oracleRange(dst, f *grid.Field3, a grid.Axis, boxLo, boxHi [3]int, op Op,
	unit func(p int) float64, point func(p, stride, i, n int) (float64, bool)) {
	n, stride := dimOf(f, a), strideOf(f, a)
	for k := boxLo[2]; k < boxHi[2]; k++ {
		for j := boxLo[1]; j < boxHi[1]; j++ {
			for i := boxLo[0]; i < boxHi[0]; i++ {
				p := f.Idx(i, j, k)
				v, ok := unit(p), true
				if n > 1 {
					s := [3]int{i, j, k}[a]
					if s < 0 || s >= n {
						continue
					}
					v, ok = point(p, stride, s, n)
				}
				if !ok {
					continue
				}
				if op == OpAdd {
					dst.Data[p] += v
				} else {
					dst.Data[p] = v
				}
			}
		}
	}
}

// randomBox draws a sub-box of dims: usually partial along every axis (the
// partial x-ranges weighted partitions produce), sometimes the full extent,
// sometimes one point wide.
func randomBox(rng *rand.Rand, dims [3]int) (lo, hi [3]int) {
	for a, n := range dims {
		switch rng.Intn(4) {
		case 0:
			lo[a], hi[a] = 0, n
		case 1:
			lo[a] = rng.Intn(n)
			hi[a] = lo[a] + 1
		default:
			lo[a] = rng.Intn(n)
			hi[a] = lo[a] + 1 + rng.Intn(n-lo[a])
		}
	}
	return lo, hi
}

// randomMetric is a positive, strongly non-uniform metric line, as a
// stretched grid direction has.
func randomMetric(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = 0.3 + 3*rng.Float64()
	}
	return m
}

// diffRowsAdd accumulates the derivative over the box the way a row
// divergence does: DiffRow with OpAdd on every x-row of the box clipped to
// the line along a.
func diffRowsAdd(dst, f *grid.Field3, a grid.Axis, met []float64, lo, hi BC, boxLo, boxHi [3]int) {
	eachRow(f, a, boxLo, boxHi, func(p, x0, x1, j, k int) {
		DiffRow(dst.Data[p:p+x1-x0], f, a, met, lo, hi, x0, x1, j, k, OpAdd)
	})
}

// TestDiffRangeMatchesPointOracle is the row kernels' referee: on random
// grids (single-point and shorter-than-the-stencil axes included), random
// sub-boxes, every axis, every closure combination and both ops (OpSet
// through DiffRange, OpAdd through DiffRow row by row), the operator must
// leave exactly the bits the strided point-by-point oracle leaves — in the
// box and, untouched, everywhere else.
func TestDiffRangeMatchesPointOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	bcs := []BC{UseGhosts, OneSided}
	for trial := 0; trial < 3000; trial++ {
		var dims [3]int
		for a := range dims {
			dims[a] = 1 + rng.Intn(14)
			if rng.Intn(5) == 0 {
				dims[a] = 1
			}
		}
		f := randomField(dims[0], dims[1], dims[2], int64(trial))
		a := grid.Axis(rng.Intn(3))
		lo, hi := bcs[rng.Intn(2)], bcs[rng.Intn(2)]
		op := Op(rng.Intn(2))
		met := randomMetric(rng, dims[a])
		boxLo, boxHi := randomBox(rng, dims)

		got := randomField(dims[0], dims[1], dims[2], int64(trial)+1<<20)
		want := got.Clone()
		if op == OpSet {
			DiffRange(got, f, a, met, lo, hi, boxLo, boxHi)
		} else {
			diffRowsAdd(got, f, a, met, lo, hi, boxLo, boxHi)
		}
		oracleRange(want, f, a, boxLo, boxHi, op,
			func(int) float64 { return 0 },
			func(p, stride, i, n int) (float64, bool) {
				d, ok := oracleDiffPoint(f.Data, p, stride, i, n, lo, hi)
				return d * met[i], ok
			})
		sameBits(t, got, want, "trial %d dims %v axis %v bc %v/%v op %v box %v-%v",
			trial, dims, a, lo, hi, op, boxLo, boxHi)
	}
}

// TestFilterRangeMatchesPointOracle is the same referee for the filter. Its
// closures widen with the distance to the boundary, so OneSided ends are
// drawn only on lines long enough (n ≥ 5, the shortest non-periodic solver
// axis) for the stencil to stay inside the ghost layers.
func TestFilterRangeMatchesPointOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bcs := []BC{UseGhosts, OneSided}
	for trial := 0; trial < 1500; trial++ {
		var dims [3]int
		for a := range dims {
			dims[a] = 1 + rng.Intn(14)
		}
		f := randomField(dims[0], dims[1], dims[2], int64(trial))
		a := grid.Axis(rng.Intn(3))
		lo, hi := UseGhosts, UseGhosts
		if dims[a] >= 5 {
			lo, hi = bcs[rng.Intn(2)], bcs[rng.Intn(2)]
		}
		sigma := 0.1 + 0.9*rng.Float64()
		boxLo, boxHi := randomBox(rng, dims)

		got := randomField(dims[0], dims[1], dims[2], int64(trial)+1<<20)
		want := got.Clone()
		FilterRange(got, f, a, sigma, lo, hi, boxLo, boxHi)
		oracleRange(want, f, a, boxLo, boxHi, OpSet,
			func(p int) float64 { return f.Data[p] },
			func(p, stride, i, n int) (float64, bool) {
				return oracleFilterPoint(f.Data, p, stride, i, n, sigma, lo, hi)
			})
		sameBits(t, got, want, "trial %d dims %v axis %v bc %v/%v box %v-%v",
			trial, dims, a, lo, hi, boxLo, boxHi)
	}
}

// TestOracleAgreesWithAnalyticDerivative keeps the oracle honest: on a
// smooth function it must be an eighth-order derivative, not merely agree
// with the code it referees.
func TestOracleAgreesWithAnalyticDerivative(t *testing.T) {
	const n = 64
	h := 2 * math.Pi / n
	src := make([]float64, n+2*grid.Ghost)
	for i := range src {
		src[i] = math.Sin(float64(i-grid.Ghost) * h)
	}
	for i := 0; i < n; i++ {
		d, ok := oracleDiffPoint(src, i+grid.Ghost, 1, i, n, UseGhosts, UseGhosts)
		if want := math.Cos(float64(i) * h); !ok || math.Abs(d/h-want) > 1e-9 {
			t.Fatalf("oracle derivative at %d = %g, want %g", i, d/h, want)
		}
	}
}
