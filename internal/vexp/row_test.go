package vexp

import (
	"math"
	"math/rand"
	"testing"
)

// rowKernels names each row kernel's call over rows r — r[:outs] the rows
// it writes (and reads), r[outs:] the rows it only reads — and scalars s.
// The kernels that take several rows (Cubic's coefficient sets, the species b
// of WilkeSum and PairSums) get one.
var rowKernels = []struct {
	name      string
	outs, ins int
	run       func(r [][]float64, s *[4]float64)
}{
	{"AddMul", 1, 1, func(r [][]float64, s *[4]float64) { AddMul(r[0], s[0], r[1]) }},
	{"SubMul", 1, 1, func(r [][]float64, s *[4]float64) { SubMul(r[0], s[0], r[1]) }},
	{"Mul", 1, 1, func(r [][]float64, s *[4]float64) { Mul(r[0], r[1]) }},
	{"MulSquare", 1, 1, func(r [][]float64, s *[4]float64) { MulSquare(r[0], r[1]) }},
	{"Div", 1, 2, func(r [][]float64, s *[4]float64) { Div(r[0], r[1], r[2]) }},
	{"Cubic", 1, 1, func(r [][]float64, s *[4]float64) { Cubic(r[0], r[1], [][4]float64{*s}) }},
	{"WilkeSum", 1, 4, func(r [][]float64, s *[4]float64) { WilkeSum(r[0], r[1], r[3], r[2], r[4], s[0:1], s[1:2]) }},
	// x holds the rows of species a and b end to end: r[2] and r[3] are
	// adjacent in checkRow's buffer.
	{"PairSums", 2, 4, func(r [][]float64, s *[4]float64) { PairSums(r[:2], 0, r[2][:2*len(r[2])], r[4], r[5]) }},
}

// rowEdges: both zeros (the skip masks), both infinities, NaN of both signs
// and a signalling one, denormals, the smallest normal and the extremes.
var rowEdges = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff0000000000001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1060,
	0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 1, -1, 1e-300, 1e300,
}

// checkRow runs kernel k as armed on one private copy of rows and with the
// kernels disarmed (its Go loop alone) on another, the rows laid end to end
// in one buffer and the first output being input alias when alias ≥ 0, and
// compares the two buffers element by element, bit for bit (any NaN equal to
// any NaN), plus two sentinels past their end: a kernel that wrote past a
// row would change the next. It returns the number of lanes compared.
func checkRow(t *testing.T, ki int, rows [][]float64, s *[4]float64, alias int) int {
	t.Helper()
	k := rowKernels[ki]
	n := len(rows[0])
	const sentinel = -12345.5
	copies := func() (views [][]float64, buf []float64) {
		buf = make([]float64, len(rows)*n+2)
		buf[len(rows)*n], buf[len(rows)*n+1] = sentinel, sentinel
		views = make([][]float64, len(rows))
		for j, r := range rows {
			views[j] = buf[j*n : (j+1)*n]
			copy(views[j], r)
		}
		if alias >= 0 {
			views[0] = views[k.outs+alias]
		}
		return views, buf
	}
	got, gotBuf := copies()
	want, wantBuf := copies()
	k.run(got, s)
	scalar(func() { k.run(want, s) })
	for e := range gotBuf {
		if !same(gotBuf[e], wantBuf[e]) {
			j, i := e/max(n, 1), e%max(n, 1)
			in := make([]float64, len(rows))
			for jj, r := range rows {
				if i < n {
					in[jj] = r[i]
				}
			}
			t.Fatalf("%s n=%d alias=%d row %d lane %d: kernel %#x, Go loop %#x (lane inputs %v, scalars %v)",
				k.name, n, alias, j, i, math.Float64bits(gotBuf[e]), math.Float64bits(wantBuf[e]), in, *s)
		}
	}
	return n
}

// TestRowKernelBits holds every row kernel to its Go loop by Float64bits:
// the edge list at every position of every input row, and in the scalars, at
// every length 0…9 (a tail alone, one block, a block and every tail) and at
// 96 and 97 (the benchmark's row and one more); the output aliasing each
// input at every such length; and more than 10⁶ lanes per kernel drawn from
// a mix of zeros of both signs, the edge list, raw bit patterns and normals
// over twenty decades, so that every mask pattern — x_a alone zero, x_b
// alone zero, both, neither — occurs in every block position. The stencil
// rows are held to their Go loops the same way (testStencilBits).
func TestRowKernelBits(t *testing.T) {
	if kernelExpected() && Kernel() != "avx2" {
		t.Fatalf("host has AVX2 and FMA but the kernels are disarmed (Kernel() = %q)", Kernel())
	}
	t.Logf("kernel: %s", Kernel())

	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 96, 97}
	rng := rand.New(rand.NewSource(41))
	draw := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return rowEdges[rng.Intn(len(rowEdges))]
		case 3:
			return math.Float64frombits(rng.Uint64())
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
	}
	fresh := func(k, n int, regular bool) [][]float64 {
		rows := make([][]float64, k)
		for j := range rows {
			rows[j] = make([]float64, n)
			for i := range rows[j] {
				if regular {
					// Zero at i = 4 in every row, a block's first lane.
					rows[j][i] = 0.75*float64(i-4) + 0.5*float64(j)*float64(i-4)
				} else {
					rows[j][i] = draw()
				}
			}
		}
		return rows
	}

	for ki, k := range rowKernels {
		lanes := 0
		nr := k.outs + k.ins
		for _, n := range lengths {
			for pos := 0; pos < max(n, 1); pos++ {
				for _, e := range rowEdges {
					for j := 0; j < nr; j++ {
						rows := fresh(nr, n, true)
						if n > 0 {
							rows[j][pos] = e
						}
						lanes += checkRow(t, ki, rows, &[4]float64{0.75, -1.25, 2.5, 0.5}, -1)
					}
				}
			}
			for _, e := range rowEdges {
				for j := range 4 {
					s := [4]float64{0.75, -1.25, 2.5, 0.5}
					s[j] = e
					lanes += checkRow(t, ki, fresh(nr, n, true), &s, -1)
				}
			}
			for alias := 0; alias < k.ins; alias++ {
				for trial := 0; trial < 8; trial++ {
					s := [4]float64{draw(), draw(), draw(), draw()}
					lanes += checkRow(t, ki, fresh(nr, n, false), &s, alias)
				}
			}
		}
		// An odd row length, so every row ends in a tail.
		for lanes < 1e6 {
			s := [4]float64{draw(), draw(), draw(), draw()}
			lanes += checkRow(t, ki, fresh(nr, 4099, false), &s, -1)
		}
		t.Logf("%s: %d lanes", k.name, lanes)
	}
	testStencilBits(t, draw)
}
