package deriv

// The interior row kernels: the eighth-order centred stencil over one
// unit-stride run of points,
//
//	dst[i] (=|+=) (c₁(p1[i]−m1[i]) + c₂(p2[i]−m2[i]) + c₃(p3[i]−m3[i]) + c₄(p4[i]−m4[i]))·met
//
// over nine equal-length slices. Along x the eight neighbour slices are
// shifted views of the row itself and the metric varies per point; along y
// and z they are the rows ±1…±4 strides away and the metric is one scalar
// for the row. Every slice is cut to len(dst) before the loop, so the loop
// bodies carry no bounds checks (check.sh gates that with the compiler's
// check_bce report on this file — keep only the kernels here); the slice
// cuts in rowNbrs.cut and at the top of each kernel are the safety checks that
// remain.

// rowNbrs holds the eight neighbour views of one row: pk/mk is the row
// shifted by ±k stencil strides.
type rowNbrs struct {
	p1, m1, p2, m2, p3, m3, p4, m4 []float64
}

// cut points the views at the w points starting at flat index p whose
// stencil neighbours lie stride apart. The views are filled in place and the
// kernels take them by pointer, so a row pass copies no view set per field.
func (v *rowNbrs) cut(src []float64, p, w, stride int) {
	at := func(off int) []float64 { return src[p+off*stride:][:w] }
	v.p1, v.m1 = at(1), at(-1)
	v.p2, v.m2 = at(2), at(-2)
	v.p3, v.m3 = at(3), at(-3)
	v.p4, v.m4 = at(4), at(-4)
}

// rowSet stores the derivative with a per-point metric (x rows).
func rowSet(dst []float64, v *rowNbrs, met []float64) {
	n := len(dst)
	p1, m1, p2, m2 := v.p1[:n], v.m1[:n], v.p2[:n], v.m2[:n]
	p3, m3, p4, m4 := v.p3[:n], v.m3[:n], v.p4[:n], v.m4[:n]
	met = met[:n]
	c1, c2, c3, c4 := c8[0], c8[1], c8[2], c8[3]
	for i := range dst {
		d := c1*(p1[i]-m1[i]) + c2*(p2[i]-m2[i]) + c3*(p3[i]-m3[i]) + c4*(p4[i]-m4[i])
		dst[i] = d * met[i]
	}
}

// rowAdd accumulates the derivative with a per-point metric (x rows).
func rowAdd(dst []float64, v *rowNbrs, met []float64) {
	n := len(dst)
	p1, m1, p2, m2 := v.p1[:n], v.m1[:n], v.p2[:n], v.m2[:n]
	p3, m3, p4, m4 := v.p3[:n], v.m3[:n], v.p4[:n], v.m4[:n]
	met = met[:n]
	c1, c2, c3, c4 := c8[0], c8[1], c8[2], c8[3]
	for i := range dst {
		d := c1*(p1[i]-m1[i]) + c2*(p2[i]-m2[i]) + c3*(p3[i]-m3[i]) + c4*(p4[i]-m4[i])
		dst[i] += d * met[i]
	}
}

// rowSetScalar stores the derivative with one metric for the row (y/z rows).
func rowSetScalar(dst []float64, v *rowNbrs, met float64) {
	n := len(dst)
	p1, m1, p2, m2 := v.p1[:n], v.m1[:n], v.p2[:n], v.m2[:n]
	p3, m3, p4, m4 := v.p3[:n], v.m3[:n], v.p4[:n], v.m4[:n]
	c1, c2, c3, c4 := c8[0], c8[1], c8[2], c8[3]
	for i := range dst {
		d := c1*(p1[i]-m1[i]) + c2*(p2[i]-m2[i]) + c3*(p3[i]-m3[i]) + c4*(p4[i]-m4[i])
		dst[i] = d * met
	}
}

// rowAddScalar accumulates the derivative with one metric for the row (y/z
// rows).
func rowAddScalar(dst []float64, v *rowNbrs, met float64) {
	n := len(dst)
	p1, m1, p2, m2 := v.p1[:n], v.m1[:n], v.p2[:n], v.m2[:n]
	p3, m3, p4, m4 := v.p3[:n], v.m3[:n], v.p4[:n], v.m4[:n]
	c1, c2, c3, c4 := c8[0], c8[1], c8[2], c8[3]
	for i := range dst {
		d := c1*(p1[i]-m1[i]) + c2*(p2[i]-m2[i]) + c3*(p3[i]-m3[i]) + c4*(p4[i]-m4[i])
		dst[i] += d * met
	}
}
