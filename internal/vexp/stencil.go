package vexp

// The stencil rows: the derivative and filter rows of internal/deriv. A row
// is the n = len(dst) consecutive points of src starting at flat index p;
// the stencil neighbour k of point i is src[p+i+k·stride], so one kernel
// serves x (stride 1), y (a row) and z (a plane), and dst[i] receives point
// i. Each wrapper makes one slice cut of src covering exactly what the row
// reads, [p+lo·stride, p+hi·stride+n) for the stencil's offsets lo…hi (the
// only bounds check the packed path pays per row), and hands the whole
// 4-lane blocks to its packed transcription (stencil_amd64.s) where the
// kernels are armed. The Go loop after the call is the definition: it runs
// the tail of a row that has one, and the whole row under purego, off amd64
// and on a disarmed host. Both paths take each point's terms in the
// statement's order and round each product before adding it (no FMA). A sum
// starts from +0 where the statement does (var d float64), so a −0 term
// gives +0 on both paths. With add, the packed loop adds dst into the
// register holding d·met, the form the compiled loop takes, so of two NaNs
// the sum keeps d·met's, as the Go loop does (internal/deriv's
// TestStencilNaNAdd); which of two NaNs meeting inside one sum survives is
// the compiler's choice of operand order and no part of the contract. dst
// must not overlap src.

// Diff8 stores (or with add accumulates) the eighth-order centred
// derivative d·met[i] of the row, met per point (the x rows):
//
//	d = c[0]·(s₊₁−s₋₁) + c[1]·(s₊₂−s₋₂) + c[2]·(s₊₃−s₋₃) + c[3]·(s₊₄−s₋₄)
//
// with sₖ the neighbour k of the point. dst sets the length; met must be at
// least as long.
func Diff8(dst, src []float64, p, stride int, c *[4]float64, met []float64, add bool) {
	s := src[p-4*stride : p+4*stride+len(dst)]
	if k := blocks(len(dst)); k > 0 {
		diff8AVX2(dst[:k], s, stride, c, met[:k], add)
		if k == len(dst) {
			return
		}
		dst, s, met = dst[k:], s[k:], met[k:]
	}
	n := len(dst)
	met = met[:n]
	m4, m3, m2, m1 := s[:n], s[stride:][:n], s[2*stride:][:n], s[3*stride:][:n]
	p1, p2, p3, p4 := s[5*stride:][:n], s[6*stride:][:n], s[7*stride:][:n], s[8*stride:][:n]
	c1, c2, c3, c4 := c[0], c[1], c[2], c[3]
	for i := range dst {
		d := c1*(p1[i]-m1[i]) + c2*(p2[i]-m2[i]) + c3*(p3[i]-m3[i]) + c4*(p4[i]-m4[i])
		if add {
			dst[i] += d * met[i]
		} else {
			dst[i] = d * met[i]
		}
	}
}

// Diff8Scalar is Diff8 with one metric for the row (the y and z rows).
func Diff8Scalar(dst, src []float64, p, stride int, c *[4]float64, met float64, add bool) {
	s := src[p-4*stride : p+4*stride+len(dst)]
	if k := blocks(len(dst)); k > 0 {
		diff8ScalarAVX2(dst[:k], s, stride, c, met, add)
		if k == len(dst) {
			return
		}
		dst, s = dst[k:], s[k:]
	}
	n := len(dst)
	m4, m3, m2, m1 := s[:n], s[stride:][:n], s[2*stride:][:n], s[3*stride:][:n]
	p1, p2, p3, p4 := s[5*stride:][:n], s[6*stride:][:n], s[7*stride:][:n], s[8*stride:][:n]
	c1, c2, c3, c4 := c[0], c[1], c[2], c[3]
	for i := range dst {
		d := c1*(p1[i]-m1[i]) + c2*(p2[i]-m2[i]) + c3*(p3[i]-m3[i]) + c4*(p4[i]-m4[i])
		if add {
			dst[i] += d * met
		} else {
			dst[i] = d * met
		}
	}
}

// Diff6 is Diff8Scalar on the sixth-order centred stencil, offsets ±1…±3:
// d = c[0]·(s₊₁−s₋₁) + c[1]·(s₊₂−s₋₂) + c[2]·(s₊₃−s₋₃).
func Diff6(dst, src []float64, p, stride int, c *[3]float64, met float64, add bool) {
	s := src[p-3*stride : p+3*stride+len(dst)]
	if k := blocks(len(dst)); k > 0 {
		diff6AVX2(dst[:k], s, stride, c, met, add)
		if k == len(dst) {
			return
		}
		dst, s = dst[k:], s[k:]
	}
	n := len(dst)
	m3, m2, m1 := s[:n], s[stride:][:n], s[2*stride:][:n]
	p1, p2, p3 := s[4*stride:][:n], s[5*stride:][:n], s[6*stride:][:n]
	c1, c2, c3 := c[0], c[1], c[2]
	for i := range dst {
		d := c1*(p1[i]-m1[i]) + c2*(p2[i]-m2[i]) + c3*(p3[i]-m3[i])
		if add {
			dst[i] += d * met
		} else {
			dst[i] = d * met
		}
	}
}

// Diff4 is Diff8Scalar on the fourth-order centred stencil, offsets ±1, ±2:
// d = c[0]·(s₊₁−s₋₁) + c[1]·(s₊₂−s₋₂).
func Diff4(dst, src []float64, p, stride int, c *[2]float64, met float64, add bool) {
	s := src[p-2*stride : p+2*stride+len(dst)]
	if k := blocks(len(dst)); k > 0 {
		diff4AVX2(dst[:k], s, stride, c, met, add)
		if k == len(dst) {
			return
		}
		dst, s = dst[k:], s[k:]
	}
	n := len(dst)
	m2, m1 := s[:n], s[stride:][:n]
	p1, p2 := s[3*stride:][:n], s[4*stride:][:n]
	c1, c2 := c[0], c[1]
	for i := range dst {
		d := c1*(p1[i]-m1[i]) + c2*(p2[i]-m2[i])
		if add {
			dst[i] += d * met
		} else {
			dst[i] = d * met
		}
	}
}

// OneSided5 stores (or with add accumulates) the five-weight one-sided
// derivative d·met of a row r points (0…4) from a boundary: from d = +0,
// d += w[m]·s₍ₘ₋ᵣ₎ for m = 0…4 in turn towards the interior of a low face,
// and d −= w[m]·s₍ᵣ₋ₘ₎ at a high face (the weights negated and mirrored).
func OneSided5(dst, src []float64, p, stride int, w *[5]float64, r int, high bool, met float64, add bool) {
	lo, first, step := -r, 0, stride // the lowest offset; tap m is s[first+m·step:]
	if high {
		lo, first, step = r-4, 4*stride, -stride
	}
	s := src[p+lo*stride : p+(lo+4)*stride+len(dst)]
	if k := blocks(len(dst)); k > 0 {
		oneSidedAVX2(dst[:k], s, first, step, w, high, met, add)
		if k == len(dst) {
			return
		}
		dst, s = dst[k:], s[k:]
	}
	n := len(dst)
	t0, t1, t2 := s[first:][:n], s[first+step:][:n], s[first+2*step:][:n]
	t3, t4 := s[first+3*step:][:n], s[first+4*step:][:n]
	w0, w1, w2, w3, w4 := w[0], w[1], w[2], w[3], w[4]
	for i := range dst {
		var d float64
		if high {
			d -= w0 * t0[i]
			d -= w1 * t1[i]
			d -= w2 * t2[i]
			d -= w3 * t3[i]
			d -= w4 * t4[i]
		} else {
			d += w0 * t0[i]
			d += w1 * t1[i]
			d += w2 * t2[i]
			d += w3 * t3[i]
			d += w4 * t4[i]
		}
		if add {
			dst[i] += d * met
		} else {
			dst[i] = d * met
		}
	}
}

// Filter10 sets dst[i] = s₀ − scale·acc, the tenth-order filter of the row,
// where from acc = +0, acc += w[l+5]·sₗ for l = −5…5 in turn.
func Filter10(dst, src []float64, p, stride int, w *[11]float64, scale float64) {
	s := src[p-5*stride : p+5*stride+len(dst)]
	if k := blocks(len(dst)); k > 0 {
		filter10AVX2(dst[:k], s, stride, w, scale)
		if k == len(dst) {
			return
		}
		dst, s = dst[k:], s[k:]
	}
	n := len(dst)
	t0, t1, t2, t3 := s[:n], s[stride:][:n], s[2*stride:][:n], s[3*stride:][:n]
	t4, t5, t6, t7 := s[4*stride:][:n], s[5*stride:][:n], s[6*stride:][:n], s[7*stride:][:n]
	t8, t9, t10 := s[8*stride:][:n], s[9*stride:][:n], s[10*stride:][:n]
	w0, w1, w2, w3, w4, w5 := w[0], w[1], w[2], w[3], w[4], w[5]
	w6, w7, w8, w9, w10 := w[6], w[7], w[8], w[9], w[10]
	for i := range dst {
		var acc float64
		acc += w0 * t0[i]
		acc += w1 * t1[i]
		acc += w2 * t2[i]
		acc += w3 * t3[i]
		acc += w4 * t4[i]
		acc += w5 * t5[i]
		acc += w6 * t6[i]
		acc += w7 * t7[i]
		acc += w8 * t8[i]
		acc += w9 * t9[i]
		acc += w10 * t10[i]
		dst[i] = t5[i] - scale*acc
	}
}
