// Package chem implements the detailed chemical kinetics of S3D: elementary
// reactions with modified-Arrhenius rates, reverse rates from equilibrium
// constants, third-body enhancements, Lindemann/Troe pressure falloff and
// duplicate reactions, together with a CHEMKIN-format-like mechanism parser.
//
// The original S3D evaluates reaction rates through the CHEMKIN library
// (paper §2.6). This package plays that role: a Mechanism owns a
// thermo.Set and a reaction list and evaluates molar production rates
// ω̇ᵢ (mol/(m³·s)) for the species equations (paper eq. 4).
//
// Rate-constant inputs follow CHEMKIN conventions (A in mol/cm³ units, E in
// cal/mol) and are converted to SI at load time.
package chem

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/s3dgo/s3d/internal/thermo"
	"github.com/s3dgo/s3d/internal/vexp"
)

// CalPerMol converts activation energies from cal/mol to J/mol.
const CalPerMol = 4.184

// P0 is the standard-state pressure (Pa) used in equilibrium constants.
const P0 = 101325.0

// SpecCoef is one species' stoichiometric participation in a reaction side.
type SpecCoef struct {
	Index int
	Nu    int
}

// Arrhenius holds modified-Arrhenius parameters in SI units (concentrations
// in mol/m³, E in J/mol): k = A·Tⁿ·exp(−E/(Ru·T)).
type Arrhenius struct {
	A, N, E float64
}

// K evaluates the rate constant at temperature T.
func (a Arrhenius) K(T float64) float64 {
	return a.A * math.Pow(T, a.N) * math.Exp(-a.E/(thermo.R*T))
}

// constant reports a rate constant without temperature dependence: k = A,
// and ProductionRates takes no exponential for it.
func (a Arrhenius) constant() bool { return a.N == 0 && a.E == 0 }

// lnK is ln k = ln A + n·ln T − E/(Ru·T) from precomputed ln A, ln T and
// 1/(Ru·T): the one exponential argument of a rate constant in
// ProductionRates.
func (a Arrhenius) lnK(lnA, lnT, invRT float64) float64 {
	return lnA + a.N*lnT - a.E*invRT
}

// Troe holds the Troe falloff broadening parameters. T2 == 0 disables the
// optional fourth parameter.
type Troe struct {
	Alpha, T3, T1, T2 float64
}

// Falloff describes a pressure-dependent reaction: the high-pressure limit
// lives in Reaction.Fwd, Low is the low-pressure limit, and Troe (optional)
// the broadening function; nil TroeF means Lindemann.
type Falloff struct {
	Low   Arrhenius
	TroeF *Troe
}

// Reaction is one elementary step.
type Reaction struct {
	Equation   string
	Reactants  []SpecCoef
	Products   []SpecCoef
	Fwd        Arrhenius
	Reversible bool
	// ThirdBody marks +M reactions; Eff holds non-unit collision
	// efficiencies by species index.
	ThirdBody bool
	Eff       map[int]float64
	Falloff   *Falloff
	Duplicate bool

	dNu int // Σν_products − Σν_reactants, for Kc
	// sameKc: the reaction is reversible with reactant and product lists
	// equal, entry for entry, to those of the reversible reaction before it
	// (a DUP pair), so its equilibrium constant is that reaction's, bit for
	// bit, and ProductionRates takes the exponential once for both.
	sameKc bool
	// constLogFc: the Troe centring factor is the constant α over
	// troeConstLo ≤ T ≤ troeConstHi (see troeConstant) and logFc holds
	// log10(α).
	constLogFc bool
	logFc      float64
	// effList is Eff flattened in ascending species order, derived in
	// NewMechanism. The hot loop sums collision efficiencies from this
	// slice, never from the map: map iteration order is randomized per run,
	// which would make the third-body concentration — and hence the whole
	// solution — differ in the last bit between otherwise identical runs.
	effList []SpecCoefF
}

// SpecCoefF is one species' real-valued coefficient (collision efficiency).
type SpecCoefF struct {
	Index int
	C     float64
}

// Mechanism is a reaction mechanism bound to a thermodynamic species set.
type Mechanism struct {
	Name      string
	Set       *thermo.Set
	Reactions []*Reaction

	// scratch sized at construction so production-rate evaluation is
	// allocation-free; Mechanism is therefore not safe for concurrent use —
	// each solver rank clones its own (see Clone).
	gRT []float64
	// expArg is the exponential batch of one ProductionRates call: argument
	// in, exponential out, consumed in reaction order.
	expArg []float64
	// Precomputed ln A of the forward and low-pressure rate constants.
	lnAf, lnAlow []float64
	// row is ProductionRatesRow's scratch, strided by the current row's
	// width: rowWork per-point and working rows, a g/RT row per species and
	// the exponential block (a row per argument). Grown to the widest row;
	// Clone leaves it behind.
	row []float64
}

// NewMechanism wires reactions to a species set and finalises derived data.
func NewMechanism(name string, set *thermo.Set, reactions []*Reaction) *Mechanism {
	for _, r := range reactions {
		r.dNu = 0
		for _, p := range r.Products {
			r.dNu += p.Nu
		}
		for _, rc := range r.Reactants {
			r.dNu -= rc.Nu
		}
		r.effList = r.effList[:0]
		for idx, e := range r.Eff {
			r.effList = append(r.effList, SpecCoefF{Index: idx, C: e})
		}
		sort.Slice(r.effList, func(a, b int) bool {
			return r.effList[a].Index < r.effList[b].Index
		})
		r.constLogFc = false
		if r.Falloff != nil && r.Falloff.TroeF != nil && troeConstant(r.Falloff.TroeF) {
			r.constLogFc, r.logFc = true, math.Log10(r.Falloff.TroeF.Alpha)
		}
	}
	for i, r := range reactions {
		r.sameKc = i > 0 && r.Reversible && reactions[i-1].Reversible &&
			slices.Equal(r.Reactants, reactions[i-1].Reactants) &&
			slices.Equal(r.Products, reactions[i-1].Products)
	}
	m := &Mechanism{
		Name:      name,
		Set:       set,
		Reactions: reactions,
		gRT:       make([]float64, set.Len()),
		expArg:    make([]float64, 0, maxExpArgs(reactions)),
		lnAf:      make([]float64, len(reactions)),
		lnAlow:    make([]float64, len(reactions)),
	}
	for i, r := range reactions {
		m.lnAf[i] = math.Log(r.Fwd.A)
		if r.Falloff != nil {
			m.lnAlow[i] = math.Log(r.Falloff.Low.A)
		}
	}
	return m
}

// Clone returns a Mechanism sharing the immutable reaction data but owning
// private scratch (the row scratch starts empty), for use by concurrent
// solver ranks.
func (m *Mechanism) Clone() *Mechanism {
	return &Mechanism{
		Name: m.Name, Set: m.Set, Reactions: m.Reactions,
		gRT:    make([]float64, m.Set.Len()),
		expArg: make([]float64, 0, cap(m.expArg)),
		lnAf:   m.lnAf, lnAlow: m.lnAlow,
	}
}

// maxExpArgs bounds the exponentials one ProductionRates call can take: per
// reaction the forward constant, the low-pressure constant, the three Troe
// centring terms and the equilibrium constant.
func maxExpArgs(reactions []*Reaction) int {
	n := 0
	for _, r := range reactions {
		n++
		if r.Falloff != nil {
			n++
			if r.Falloff.TroeF != nil {
				n += 3
			}
		}
		if r.Reversible {
			n++
		}
	}
	return n
}

// NumSpecies returns the species count.
func (m *Mechanism) NumSpecies() int { return m.Set.Len() }

// Concentrations fills C (mol/m³) from density (kg/m³) and mass fractions.
func (m *Mechanism) Concentrations(rho float64, Y, C []float64) {
	for i, sp := range m.Set.Species {
		C[i] = rho * Y[i] / sp.W
	}
}

// ConcentrationsRow fills the concentration rows C[i] (mol/m³) at the
// len(rho) points of a row from density (kg/m³) and the mass-fraction rows
// Y[i]: Concentrations point by point.
func (m *Mechanism) ConcentrationsRow(rho []float64, Y, C [][]float64) {
	for i, sp := range m.Set.Species {
		y, c := Y[i][:len(rho)], C[i][:len(rho)]
		for p := range c {
			c[p] = rho[p] * y[p] / sp.W
		}
	}
}

// ProductionRates evaluates the molar production rate ω̇ᵢ of every species
// at temperature T (K) given concentrations C (mol/m³), accumulating into
// wdot (which is zeroed first). Units: mol/(m³·s). ProductionRatesRow
// returns these bits at every point of a row; this one-point body stays for
// the callers that cannot batch points (the 0-D reactor's integrator). A row
// of one point is no substitute: it returns the same bits at 3.3–3.7× the
// cost (H2 and CH4), and the reactor calls this ≈ 5·10⁵ times building the
// lifted jet's ignition products (EquilibrateAdiabatic: ≈ 1.3·10⁵ RK4
// steps, nearly all of that problem's set-up), which it would roughly
// triple.
func (m *Mechanism) ProductionRates(T float64, C, wdot []float64) {
	for i := range wdot {
		wdot[i] = 0
	}
	// Species Gibbs functions, shared by all reverse-rate evaluations; the
	// entropy fits share one logarithm, of the clamped temperature — which
	// inside the polynomial range is the temperature itself.
	lnT := math.Log(T)
	lnTFit := lnT
	if T < thermo.TMin || T > thermo.TMax {
		lnTFit = thermo.LnT(T)
	}
	for i, sp := range m.Set.Species {
		m.gRT[i] = sp.GRTLn(T, lnTFit)
	}
	invRT := 1 / (thermo.R * T)
	logC0 := lnStdConc - lnT // ln of standard concentration (mol/m³)
	// Total concentration, the base of every third-body sum.
	var cTot float64
	for i := range C {
		cTot += C[i]
	}

	// Every exponential of the call has an argument that depends on T alone.
	// First pass: the arguments, in the order the rate loop consumes them —
	// per reaction the forward constant, the low-pressure constant, the Troe
	// centring terms unless Fcent is the stored constant, and ln Kc unless the
	// reaction shares the previous one's. Then one batch exponential, in
	// place.
	troeConst := T >= troeConstLo && T <= troeConstHi
	ex := m.expArg[:0]
	for ri, r := range m.Reactions {
		if !r.Fwd.constant() {
			ex = append(ex, r.Fwd.lnK(m.lnAf[ri], lnT, invRT))
		}
		if fo := r.Falloff; fo != nil {
			if !fo.Low.constant() {
				ex = append(ex, fo.Low.lnK(m.lnAlow[ri], lnT, invRT))
			}
			if tr := fo.TroeF; tr != nil && !(r.constLogFc && troeConst) {
				ex = append(ex, -T/tr.T3, -T/tr.T1)
				if tr.T2 != 0 {
					ex = append(ex, -tr.T2/T)
				}
			}
		}
		if r.Reversible && !r.sameKc {
			// ln Kc = −Σνᵢ·gᵢ/(RT) + Δν·ln(c0).
			var dg float64
			for _, p := range r.Products {
				dg += float64(p.Nu) * m.gRT[p.Index]
			}
			for _, rc := range r.Reactants {
				dg -= float64(rc.Nu) * m.gRT[rc.Index]
			}
			lnKc := -dg + float64(r.dNu)*logC0
			// Clamp to avoid overflow for strongly exothermic steps at
			// low T; a Kc this large means the reverse rate is
			// numerically zero.
			if lnKc > 230 {
				lnKc = 230
			}
			ex = append(ex, lnKc)
		}
	}
	vexp.Exp(ex, ex)

	k := 0            // next unread exponential
	var expKc float64 // exp(ln Kc) of the latest reversible reaction
	for _, r := range m.Reactions {
		kf := r.Fwd.A
		if !r.Fwd.constant() {
			kf = ex[k]
			k++
		}

		// Third-body concentration.
		cm := 1.0
		if r.ThirdBody || r.Falloff != nil {
			cm = cTot
			for _, e := range r.effList {
				cm += (e.C - 1) * C[e.Index]
			}
			if cm < 0 {
				cm = 0
			}
		}

		// Pressure falloff blending.
		if fo := r.Falloff; fo != nil {
			k0 := fo.Low.A
			if !fo.Low.constant() {
				k0 = ex[k]
				k++
			}
			pr := k0 * cm / kf
			f := 1.0
			switch tr := fo.TroeF; {
			case tr == nil:
			case r.constLogFc && troeConst:
				if pr > 0 {
					f = troeBroadening(r.logFc, pr)
				}
			default:
				// Fcent = (1−α)·exp(−T/T3) + α·exp(−T/T1) [+ exp(−T2/T)]
				fc := (1-tr.Alpha)*ex[k] + tr.Alpha*ex[k+1]
				k += 2
				if tr.T2 != 0 {
					fc += ex[k]
					k++
				}
				if pr > 0 && !(fc <= 0) {
					f = troeBroadening(math.Log10(fc), pr)
				}
			}
			kf *= pr / (1 + pr) * f
			cm = 1 // the falloff form already includes [M]
		}

		// Forward and reverse progress.
		qf := kf
		for _, rc := range r.Reactants {
			qf *= powInt(C[rc.Index], rc.Nu)
		}
		var qr float64
		if r.Reversible {
			if !r.sameKc {
				expKc = ex[k]
				k++
			}
			kr := kf / expKc
			qr = kr
			for _, p := range r.Products {
				qr *= powInt(C[p.Index], p.Nu)
			}
		}

		rate := (qf - qr) * cm
		for _, rc := range r.Reactants {
			wdot[rc.Index] -= float64(rc.Nu) * rate
		}
		for _, p := range r.Products {
			wdot[p.Index] += float64(p.Nu) * rate
		}
	}
}

// rowWork counts ProductionRatesRow's per-point and working rows: ln T, the
// fits' ln T, 1/(Ru·T), ln c0 and the total concentration; then kf, [M],
// Pr, the broadening factor, its exponential arguments, q_f and q_r.
const rowWork = 12

// ProductionRatesRow evaluates ω̇ᵢ at the len(T) points of a row: T (K), its
// hᵢ/RT rows hrt[i] (thermo.Set.HRTRow) and the concentration rows C[i]
// (mol/m³) in, the rate rows wdot[i] out (zeroed first; at least len(T) long),
// each point with the bits of ProductionRates. The per-point rows (ln T,
// 1/(Ru·T), ln c0, Σc) and g/RT = hrt − SRLn rows come first; then every
// exponential argument of the row — per reaction ln k, ln k0, the Troe centring
// terms (unless every point has the constant Fcent) and ln Kc (unless shared) —
// goes into one block and one batch exponential; then the rate loops run
// reaction by reaction, each over the whole row, in the one-point operation
// order. Troe's 10^y takes a second batch exponential per reaction where pow10
// takes math.Exp. Not safe for concurrent use on one Mechanism: use Clone.
func (m *Mechanism) ProductionRatesRow(T []float64, hrt, C, wdot [][]float64) {
	w, ns := len(T), m.Set.Len()
	if need := (rowWork + ns + cap(m.expArg)) * w; len(m.row) < need {
		m.row = make([]float64, need)
	}
	row := func(a int) []float64 { return m.row[a*w:][:w] }
	lnT, lnTFit, invRT, logC0, cTot := row(0), row(1), row(2), row(3), row(4)
	kfBuf, cm, pr, f, arg, qf, qr := row(5), row(6), row(7), row(8), row(9), row(10), row(11)
	gRT := func(i int) []float64 { return row(rowWork + i) }
	ex := m.row[(rowWork+ns)*w:]
	k := 0 // next exponential row
	next := func() []float64 {
		k++
		return ex[(k-1)*w:][:w]
	}

	allConst := true // every point in the constant-Fcent range
	for i, t := range T {
		lnT[i] = math.Log(t)
		lnTFit[i] = lnT[i]
		if t < thermo.TMin || t > thermo.TMax {
			lnTFit[i] = thermo.LnT(t)
		}
		invRT[i] = 1 / (thermo.R * t)
		logC0[i] = lnStdConc - lnT[i]
		cTot[i] = 0
		if !(t >= troeConstLo && t <= troeConstHi) {
			allConst = false
		}
	}
	for s, sp := range m.Set.Species {
		g, h, c := gRT(s), hrt[s][:w], C[s][:w]
		for i, t := range T {
			g[i] = h[i] - sp.SRLn(t, lnTFit[i])
			cTot[i] += c[i]
		}
		clear(wdot[s][:w])
	}

	// The exponential arguments, a row each, in the order the rate loops
	// consume them.
	for ri, r := range m.Reactions {
		if !r.Fwd.constant() {
			a, lnA := next(), m.lnAf[ri]
			for i := range a {
				a[i] = r.Fwd.lnK(lnA, lnT[i], invRT[i])
			}
		}
		if fo := r.Falloff; fo != nil {
			if !fo.Low.constant() {
				a, lnA := next(), m.lnAlow[ri]
				for i := range a {
					a[i] = fo.Low.lnK(lnA, lnT[i], invRT[i])
				}
			}
			if tr := fo.TroeF; tr != nil && !(r.constLogFc && allConst) {
				a3, a1 := next(), next()
				for i, t := range T {
					a3[i], a1[i] = -t/tr.T3, -t/tr.T1
				}
				if tr.T2 != 0 {
					a2 := next()
					for i, t := range T {
						a2[i] = -tr.T2 / t
					}
				}
			}
		}
		if r.Reversible && !r.sameKc {
			a := next()
			clear(a)
			for _, p := range r.Products {
				vexp.AddMul(a, float64(p.Nu), gRT(p.Index))
			}
			for _, rc := range r.Reactants {
				vexp.SubMul(a, float64(rc.Nu), gRT(rc.Index))
			}
			dNu := float64(r.dNu)
			for i := range a {
				a[i] = -a[i] + dNu*logC0[i]
				if a[i] > 230 { // the one-point clamp
					a[i] = 230
				}
			}
		}
	}
	vexp.Exp(ex[:k*w], ex[:k*w])

	k = 0
	var kc []float64 // exp(ln Kc) of the latest reversible reaction
	for _, r := range m.Reactions {
		kf := kfBuf
		if r.Fwd.constant() {
			fill(kf, r.Fwd.A)
		} else {
			kf = next()
		}

		// Third-body concentration.
		if r.ThirdBody || r.Falloff != nil {
			copy(cm, cTot)
			for _, e := range r.effList {
				vexp.AddMul(cm, e.C-1, C[e.Index])
			}
			for i := range cm {
				if cm[i] < 0 {
					cm[i] = 0
				}
			}
		}

		// Pressure falloff blending; [M] is then inside kf.
		if fo := r.Falloff; fo != nil {
			k0 := pr // a constant k0 fills pr's row: each point reads its own first
			if fo.Low.constant() {
				fill(k0, fo.Low.A)
			} else {
				k0 = next()
			}
			for i := range pr {
				pr[i] = k0[i] * cm[i] / kf[i]
			}
			if tr := fo.TroeF; tr == nil {
				for i := range kf {
					kf[i] *= pr[i] / (1 + pr[i])
				}
			} else {
				// log10 F into f, 0 where F is 1, then F = 10^f.
				var e3, e1, e2 []float64
				if !(r.constLogFc && allConst) {
					e3, e1 = next(), next()
					if tr.T2 != 0 {
						e2 = next()
					}
				}
				for i, t := range T {
					f[i] = 0
					if r.constLogFc && (allConst || t >= troeConstLo && t <= troeConstHi) {
						if pr[i] > 0 {
							f[i] = troeLogF(r.logFc, pr[i])
						}
						continue
					}
					// Fcent = (1−α)·exp(−T/T3) + α·exp(−T/T1) [+ exp(−T2/T)]
					fc := (1-tr.Alpha)*e3[i] + tr.Alpha*e1[i]
					if e2 != nil {
						fc += e2[i]
					}
					if pr[i] > 0 && !(fc <= 0) {
						f[i] = troeLogF(math.Log10(fc), pr[i])
					}
				}
				pow10Row(f, arg)
				for i := range kf {
					kf[i] *= pr[i] / (1 + pr[i]) * f[i]
				}
			}
		}

		// Forward and reverse progress, then the rate of progress.
		copy(qf, kf)
		for _, rc := range r.Reactants {
			mulPowInt(qf, C[rc.Index][:w], rc.Nu)
		}
		if r.Reversible {
			if !r.sameKc {
				kc = next()
			}
			vexp.Div(qr, kf, kc)
			for _, p := range r.Products {
				mulPowInt(qr, C[p.Index][:w], p.Nu)
			}
			for i := range qf {
				qf[i] -= qr[i]
			}
		}
		if r.ThirdBody && r.Falloff == nil {
			vexp.Mul(qf, cm)
		}
		for _, rc := range r.Reactants {
			vexp.SubMul(wdot[rc.Index][:w], float64(rc.Nu), qf)
		}
		for _, p := range r.Products {
			vexp.AddMul(wdot[p.Index][:w], float64(p.Nu), qf)
		}
	}
}

// HeatReleaseRow sets q[i] = −Σₙ ω̇ₙ·hₙ(T) in W/m³ (positive for exothermic
// states), hₙ = hrt·R·T from the hₙ/RT rows hrt[n] (thermo.Set.HRTRow), at
// the len(T) points of a row from the rate rows wdot[n] — the diagnostic
// behind the heat-release field and integral and the flame-thickness δ_H.
func (m *Mechanism) HeatReleaseRow(T []float64, hrt, wdot [][]float64, q []float64) {
	q = q[:len(T)]
	clear(q)
	for n := range hrt[:m.Set.Len()] {
		h, wd := hrt[n][:len(T)], wdot[n][:len(T)]
		for i, t := range T {
			q[i] -= wd[i] * (h[i] * thermo.R * t)
		}
	}
}

// fill sets every element of r to v.
func fill(r []float64, v float64) {
	for i := range r {
		r[i] = v
	}
}

// mulPowInt multiplies q[i] by powInt(c[i], n), point by point.
func mulPowInt(q, c []float64, n int) {
	c = c[:len(q)]
	switch n {
	case 1:
		vexp.Mul(q, c)
	case 2:
		vexp.MulSquare(q, c)
	case 3:
		for i := range q {
			q[i] *= c[i] * c[i] * c[i]
		}
	default:
		for i := range q {
			q[i] *= powInt(c[i], n)
		}
	}
}

// lnStdConc is ln(P0/Ru): the standard concentration c0 = P0/(Ru·T) has
// ln c0 = lnStdConc − ln T.
var lnStdConc = math.Log(P0 / thermo.R)

// troeConstLo and troeConstHi bound the temperatures over which troeConstant
// guarantees a constant centring factor.
const (
	troeConstLo = 1.0
	troeConstHi = 1e6
)

// troeConstant reports whether the centring factor
//
//	Fcent = (1−α)·exp(−T/T3) + α·exp(−T/T1) [+ exp(−T2/T)]
//
// equals α bit for bit for every troeConstLo ≤ T ≤ troeConstHi: with no
// fourth parameter, T3 ≤ 1e-6 makes the first exponential underflow to
// exactly 0 (its argument is below −1e6) and T1 ≥ 1e25 makes the second round
// to exactly 1 (its argument is above −1e-19). Mechanisms write a plain
// Lindemann-with-constant-Fcent falloff this way (TROE /α 1E-30 1E30/).
// TestTroeConstantCentring evaluates the claim.
func troeConstant(tr *Troe) bool {
	return tr.T2 == 0 && tr.T3 > 0 && tr.T3 <= 1e-6 && tr.T1 >= 1e25 && tr.Alpha > 0
}

// troeBroadening is the broadening factor F for a centring factor with
// log10(Fcent) = logFc at reduced pressure pr.
func troeBroadening(logFc, pr float64) float64 { return pow10(troeLogF(logFc, pr)) }

// troeLogF is log10 of the broadening factor F for a centring factor with
// log10(Fcent) = logFc at reduced pressure pr.
func troeLogF(logFc, pr float64) float64 {
	c := -0.4 - 0.67*logFc
	n := 0.75 - 1.27*logFc
	const d = 0.14
	logPr := math.Log10(pr)
	x := (logPr + c) / (n - d*(logPr+c))
	return logFc / (1 + x*x)
}

// pow10 is math.Pow(10, y) bit for bit: for 0 < |y| < 0.5 that is
// Exp(|y|·Log(10)), inverted when y < 0, without math.Pow's Modf, Frexp and
// Ldexp around it (Log(10) is math.Ln10's bits); other y go to math.Pow.
func pow10(y float64) float64 {
	if a := math.Abs(y); a > 0 && a < 0.5 {
		if y < 0 {
			return 1 / math.Exp(a*math.Ln10)
		}
		return math.Exp(a * math.Ln10)
	}
	return math.Pow(10, y)
}

// pow10Row sets y[i] = pow10(y[i]) for every i, the exponentials of pow10's
// Exp branch taken in one batch through the scratch row arg.
func pow10Row(y, arg []float64) {
	arg = arg[:len(y)]
	for i, v := range y {
		arg[i] = 0
		if a := math.Abs(v); a > 0 && a < 0.5 {
			arg[i] = a * math.Ln10
		}
	}
	vexp.Exp(arg, arg)
	for i, v := range y {
		switch a := math.Abs(v); {
		case !(a > 0 && a < 0.5):
			y[i] = math.Pow(10, v)
		case v < 0:
			y[i] = 1 / arg[i]
		default:
			y[i] = arg[i]
		}
	}
}

// powInt computes cⁿ for small positive integer n without math.Pow.
func powInt(c float64, n int) float64 {
	switch n {
	case 1:
		return c
	case 2:
		return c * c
	case 3:
		return c * c * c
	default:
		p := 1.0
		for i := 0; i < n; i++ {
			p *= c
		}
		return p
	}
}

// CheckBalance verifies elemental balance of every reaction; parsers call it
// so a typo in a mechanism is caught at load, as CHEMKIN's interpreter does.
func (m *Mechanism) CheckBalance() error {
	for _, r := range m.Reactions {
		bal := map[string]int{}
		for _, rc := range r.Reactants {
			for el, n := range m.Set.Species[rc.Index].Elem {
				bal[el] -= rc.Nu * n
			}
		}
		for _, p := range r.Products {
			for el, n := range m.Set.Species[p.Index].Elem {
				bal[el] += p.Nu * n
			}
		}
		for el, n := range bal {
			if n != 0 {
				return fmt.Errorf("chem: reaction %q unbalanced in element %s (%+d)", r.Equation, el, n)
			}
		}
	}
	return nil
}
