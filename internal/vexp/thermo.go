package vexp

// The thermo rows: the species enthalpy row and the temperature Newton of
// internal/thermo (Set.HRTRow and Set.TFromERow). Their definitions are
// thermo's scalar functions (hRT, MeanW and TFromEW), which this package
// cannot import, so unlike the row and stencil loops these entries have no
// Go loop of their own: each takes the whole 4-lane blocks of a row where
// the kernels are armed (thermo_amd64.s), returns how many leading points it
// set, and leaves the rest — every point under purego, off amd64 and on a
// disarmed host — to the caller's scalar loop. The packed loops are
// transcriptions of those functions: the same operations in the same order,
// no FMA, the constants (R, TMin, TMax, the saturation band, the Newton
// tolerance and starting point) from thermo's decimal literals.

// Fit is one species' enthalpy and heat-capacity fit as the thermo kernels
// read it: the coefficients a0…a5 of the NASA-7 form, the quotients a1/2,
// a2/3 and a3/4 thermo hoists out of h/RT, and the molecular weight.
type Fit struct {
	A  [6]float64
	HQ [3]float64
	W  float64
}

// fitWords is the size of one species' entry of a Fits table in float64s:
// its ten numbers, each four times (one 32-byte operand per coefficient).
const fitWords = 10 * 4

// Fits is a species set's fits laid out for the kernels.
type Fits struct {
	q []float64
	n int
}

// NewFits lays out f, in order, for HRT and TNewton.
func NewFits(f []Fit) *Fits {
	t := &Fits{q: make([]float64, len(f)*fitWords), n: len(f)}
	for s := range f {
		c := &f[s]
		words := [10]float64{c.A[0], c.A[1], c.A[2], c.A[3], c.A[4], c.A[5], c.HQ[0], c.HQ[1], c.HQ[2], c.W}
		for j, v := range words {
			for l := 0; l < 4; l++ {
				t.q[s*fitWords+4*j+l] = v
			}
		}
	}
	return t
}

// HRT sets d[i] to species n's h/RT at x[i] clamped to [TMin, TMax] —
// thermo's hRT(clampT(x[i])), a NaN passing the clamp — over the leading
// whole 4-lane blocks of d where the kernels are armed, and returns how many
// points it set (0 otherwise). d sets the length; x must be at least as long.
func HRT(d, x []float64, f *Fits, n int) int {
	k := blocks(len(d))
	if k > 0 {
		hrtAVX2(d[:k], x[:k], &f.q[n*fitWords])
	}
	return k
}

// TNewton recovers the temperature over the leading whole 4-lane blocks of a
// row of w = len(T) points where the kernels are armed, and returns how many
// points it took (0 otherwise). Y holds the species' mass-fraction rows of w
// points end to end, in f's order. For each point i taken it sets W[i] to
// MeanW of the point's mass fractions and runs TFromEW(e[i], ·, W[i], Tg[i])
// lane by lane: a lane that converges is frozen with T[i] the converged
// temperature; a lane whose iterate lands within the saturation band of a
// bound, is NaN, or is still iterating after 50 iterates is handed back with
// T[i] = NaN, for the caller to run TFromEW on from Tg[i]. T must not
// overlap Tg; W, e and Tg must be at least as long as T.
func TNewton(T, W, e, Tg, Y []float64, f *Fits) int {
	w := len(T)
	k := blocks(w)
	if k == 0 || f.n == 0 {
		return 0
	}
	tNewtonAVX2(T[:k], W[:k], e[:k], Tg[:k], Y[:f.n*w], w, &f.q[0], f.n)
	return k
}
