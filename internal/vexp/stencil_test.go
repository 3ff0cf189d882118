package vexp

import (
	"math"
	"math/rand"
	"testing"
)

// The weights internal/deriv passes to the stencil rows: eighth-, sixth- and
// fourth-order centred, the two one-sided closures and the tenth-order
// filter. Each kernel takes the prefix of w it needs.
var (
	c8w       = [11]float64{4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0}
	c6w       = [11]float64{3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0}
	c4w       = [11]float64{2.0 / 3.0, -1.0 / 12.0}
	os4w      = [11]float64{-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -1.0 / 4.0}
	b1w       = [11]float64{-1.0 / 4.0, -5.0 / 6.0, 3.0 / 2.0, -1.0 / 2.0, 1.0 / 12.0}
	filter10w = [11]float64{-1, 10, -45, 120, -210, 252, -210, 120, -45, 10, -1}
)

// stencilKernels names each stencil row's call: its reach (the largest
// |offset| it reads, in strides), whether it has an add form, and its
// weights in deriv.
var stencilKernels = []struct {
	name   string
	reach  int
	hasAdd bool
	w      *[11]float64
	run    func(dst, src []float64, p, stride int, w *[11]float64, met []float64, add bool)
}{
	{"Diff8", 4, true, &c8w, func(dst, src []float64, p, stride int, w *[11]float64, met []float64, add bool) {
		Diff8(dst, src, p, stride, (*[4]float64)(w[:4]), met, add)
	}},
	{"Diff8Scalar", 4, true, &c8w, func(dst, src []float64, p, stride int, w *[11]float64, met []float64, add bool) {
		Diff8Scalar(dst, src, p, stride, (*[4]float64)(w[:4]), met[0], add)
	}},
	{"Diff6", 3, true, &c6w, func(dst, src []float64, p, stride int, w *[11]float64, met []float64, add bool) {
		Diff6(dst, src, p, stride, (*[3]float64)(w[:3]), met[0], add)
	}},
	{"Diff4", 2, true, &c4w, func(dst, src []float64, p, stride int, w *[11]float64, met []float64, add bool) {
		Diff4(dst, src, p, stride, (*[2]float64)(w[:2]), met[0], add)
	}},
	{"OneSided5/r0/low", 4, true, &os4w, oneSided(0, false)},
	{"OneSided5/r0/high", 4, true, &os4w, oneSided(0, true)},
	{"OneSided5/r1/low", 4, true, &b1w, oneSided(1, false)},
	{"OneSided5/r1/high", 4, true, &b1w, oneSided(1, true)},
	{"Filter10", 5, false, &filter10w, func(dst, src []float64, p, stride int, w *[11]float64, met []float64, add bool) {
		Filter10(dst, src, p, stride, w, met[0])
	}},
}

func oneSided(r int, high bool) func(dst, src []float64, p, stride int, w *[11]float64, met []float64, add bool) {
	return func(dst, src []float64, p, stride int, w *[11]float64, met []float64, add bool) {
		OneSided5(dst, src, p, stride, (*[5]float64)(w[:5]), r, high, met[0], add)
	}
}

// stencilCase is one call: a row of len(dst0) points at flat index p of
// src, neighbours stride apart, with the initial dst (read by add) and the
// metric (met[0] for a row-scalar one, the filter's scale).
type stencilCase struct {
	src, dst0, met []float64
	p, stride      int
	w              *[11]float64
	add            bool
}

// checkStencil runs kernel k as armed into one copy of dst0 and with the
// kernels disarmed (its Go loop alone) into another, each followed by two
// sentinels, and compares the copies lane by lane by Float64bits, any NaN
// equal to any NaN: of two NaN operands x86 keeps its first source's, and
// the Go compiler orders a commutative add's operands by register pressure
// (Filter10's loop alternates them), so which of two NaNs a sum keeps is the
// compiler's choice, not the row's. src is only read. It returns the lanes
// compared.
func checkStencil(t *testing.T, ki int, c *stencilCase) int {
	t.Helper()
	k := stencilKernels[ki]
	n := len(c.dst0)
	const sentinel = -12345.5
	fresh := func() []float64 {
		d := make([]float64, n+2)
		copy(d, c.dst0)
		d[n], d[n+1] = sentinel, sentinel
		return d
	}
	got, want := fresh(), fresh()
	k.run(got[:n], c.src, c.p, c.stride, c.w, c.met, c.add)
	scalar(func() { k.run(want[:n], c.src, c.p, c.stride, c.w, c.met, c.add) })
	for i := range got {
		if !same(got[i], want[i]) {
			taps := make([]float64, 0, 2*k.reach+1)
			if i < n {
				for o := -k.reach; o <= k.reach; o++ {
					taps = append(taps, c.src[c.p+i+o*c.stride])
				}
			}
			t.Fatalf("%s n=%d stride=%d add=%v lane %d: kernel %#x, Go loop %#x (taps %v, met %v, weights %v)",
				k.name, n, c.stride, c.add, i, math.Float64bits(got[i]), math.Float64bits(want[i]), taps, c.met[:1], *c.w)
		}
	}
	return n
}

// testStencilBits is TestRowKernelBits for the stencil rows: every kernel,
// set and add, at strides 1, a row and a plane, over lengths 0…9, 96 and 97,
// dst aliasing nothing. At the short lengths each edge value is put at
// every tap of every lane, into every lane of dst (the add forms) and of a
// per-point metric, and into the row-scalar metric; at every length random
// rows drawn from zeros of both signs, the edges, raw bit patterns and
// normals over twenty decades — weights and metric drawn too — bring each
// kernel past 3·10⁵ lanes.
func testStencilBits(t *testing.T, draw func() float64) {
	const row, plane = 13, 13 * 11
	strides := []int{1, row, plane}
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 96, 97}
	regular := func(c *stencilCase, n, stride int) {
		c.src = make([]float64, n+10*stride+2)
		for q := range c.src {
			c.src[q] = 0.75*float64(q%17-8) + 0.0625*float64(q%5)
		}
		c.p, c.stride = 5*stride+1, stride
		c.dst0, c.met = make([]float64, n), make([]float64, max(n, 1))
		for i := range c.dst0 {
			c.dst0[i] = 0.5 * float64(i-4)
		}
		for i := range c.met {
			c.met[i] = 1.5 + 0.25*float64(i%3)
		}
	}
	for ki, k := range stencilKernels {
		lanes := 0
		adds := []bool{false}
		if k.hasAdd {
			adds = append(adds, true)
		}
		for _, stride := range strides {
			for _, n := range lengths {
				for _, add := range adds {
					var c stencilCase
					c.w, c.add = k.w, add
					regular(&c, n, stride)
					lanes += checkStencil(t, ki, &c)
					if n > 9 {
						continue
					}
					for _, e := range rowEdges {
						for i := 0; i < n; i++ {
							for o := -k.reach; o <= k.reach; o++ {
								q := c.p + i + o*stride
								was := c.src[q]
								c.src[q] = e
								lanes += checkStencil(t, ki, &c)
								c.src[q] = was
							}
							was := c.dst0[i]
							c.dst0[i] = e
							lanes += checkStencil(t, ki, &c)
							c.dst0[i] = was
						}
						for i := range c.met {
							was := c.met[i]
							c.met[i] = e
							lanes += checkStencil(t, ki, &c)
							c.met[i] = was
						}
					}
				}
			}
		}
		rng := rand.New(rand.NewSource(48))
		for lanes < 3e5 {
			for _, stride := range strides {
				for _, n := range lengths {
					var c stencilCase
					regular(&c, n, stride)
					for _, s := range [][]float64{c.src, c.dst0, c.met} {
						for i := range s {
							s[i] = draw()
						}
					}
					w := *k.w
					if rng.Intn(2) == 0 {
						for i := range w {
							w[i] = draw()
						}
					}
					c.w, c.add = &w, k.hasAdd && rng.Intn(2) == 0
					lanes += checkStencil(t, ki, &c)
				}
			}
		}
		t.Logf("%s: %d lanes", k.name, lanes)
	}
}
