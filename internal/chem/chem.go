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
// private scratch, for use by concurrent solver ranks.
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

// ProductionRates evaluates the molar production rate ω̇ᵢ of every species
// at temperature T (K) given concentrations C (mol/m³), accumulating into
// wdot (which is zeroed first). Units: mol/(m³·s).
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

// HeatReleaseRate returns −Σᵢ ω̇ᵢ·hᵢ(T) in W/m³ (positive for exothermic
// states), the diagnostic used for the flame-thickness measure δ_H.
func (m *Mechanism) HeatReleaseRate(T float64, wdot []float64) float64 {
	var q float64
	for i, sp := range m.Set.Species {
		q -= wdot[i] * sp.HMolar(T)
	}
	return q
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
func troeBroadening(logFc, pr float64) float64 {
	c := -0.4 - 0.67*logFc
	n := 0.75 - 1.27*logFc
	const d = 0.14
	logPr := math.Log10(pr)
	x := (logPr + c) / (n - d*(logPr+c))
	logF := logFc / (1 + x*x)
	return pow10(logF)
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
