// Package thermo provides ideal-gas mixture thermodynamics for the S3D
// solver: NASA-polynomial-style species properties (cp, h, s, g), mixture
// molecular weight, enthalpy and heat capacities, and the Newton inversion
// of temperature from internal energy (paper §2.1).
//
// The original S3D links the CHEMKIN thermodynamic database. That database
// is unavailable offline, so the coefficients here are generated at package
// init by least-squares fitting JANAF-derived cp/R tables over 300–3000 K
// together with standard-state enthalpies of formation and entropies. The
// resulting polynomials have exactly the NASA-7 functional form
//
//	cp/R  = a1 + a2·T + a3·T² + a4·T³ + a5·T⁴
//	h/RT  = a1 + a2/2·T + a3/3·T² + a4/4·T³ + a5/5·T⁴ + a6/T
//	s/R   = a1·ln T + a2·T + a3/2·T² + a4/3·T³ + a5/4·T⁴ + a7
//
// so equilibrium constants derived from them are thermodynamically
// consistent by construction. See DESIGN.md for the substitution rationale.
package thermo

import (
	"fmt"
	"math"

	"github.com/s3dgo/s3d/internal/vexp"
)

// R is the universal gas constant in J/(mol·K).
const R = 8.31446261815324

// T0 is the thermodynamic reference temperature in K.
const T0 = 298.15

// TMin and TMax bound polynomial evaluation; outside this range properties
// are evaluated at the clamped temperature (the solver never legitimately
// leaves it, but transients during Newton iteration may overshoot).
const (
	TMin = 200.0
	TMax = 3500.0
)

// Species holds one species' constant data.
type Species struct {
	Name string
	W    float64        // molecular weight, kg/mol
	Hf   float64        // enthalpy of formation at T0, J/mol
	S0   float64        // standard entropy at T0, J/(mol·K)
	Elem map[string]int // elemental composition

	a [7]float64 // NASA-7-style coefficients (single range)

	// Quotients of the coefficients that the enthalpy and entropy fits take
	// on every call, divided once at construction (the same division, so the
	// same bits): a[1]/2, a[2]/3, a[3]/4 for HRT and a[3]/3 for SRLn.
	hq  [3]float64
	sq3 float64
}

// cpR is cp/R at T ∈ [TMin, TMax] (no clamp).
func (s *Species) cpR(T float64) float64 {
	return s.a[0] + T*(s.a[1]+T*(s.a[2]+T*(s.a[3]+T*s.a[4])))
}

// hRT is h/(R·T) at T ∈ [TMin, TMax] (no clamp).
func (s *Species) hRT(T float64) float64 {
	return s.a[0] + T*(s.hq[0]+T*(s.hq[1]+T*(s.hq[2]+T*s.a[4]/5))) + s.a[5]/T
}

// CpR returns cp/R at temperature T.
func (s *Species) CpR(T float64) float64 { return s.cpR(clampT(T)) }

// Cp returns the specific heat at constant pressure in J/(kg·K).
func (s *Species) Cp(T float64) float64 { return s.CpR(T) * R / s.W }

// HRT returns h/(R·T) at temperature T (molar enthalpy including formation).
func (s *Species) HRT(T float64) float64 { return s.hRT(clampT(T)) }

// H returns the specific enthalpy (sensible + chemical) in J/kg.
func (s *Species) H(T float64) float64 { return s.HRT(T) * R * T / s.W }

// HMolar returns the molar enthalpy in J/mol.
func (s *Species) HMolar(T float64) float64 { return s.HRT(T) * R * T }

// LnT returns the logarithm the entropy fit takes: ln of T clamped to
// [TMin, TMax]. Callers evaluating many species at one temperature compute
// it once and pass it to the functions below.
func LnT(T float64) float64 { return math.Log(clampT(T)) }

// SRLn returns s/R at temperature T and standard pressure, with
// lnT = LnT(T) supplied by the caller.
func (s *Species) SRLn(T, lnT float64) float64 {
	T = clampT(T)
	return s.a[0]*lnT + T*(s.a[1]+T*(s.a[2]/2+T*(s.sq3+T*s.a[4]/4))) + s.a[6]
}

// GRTLn returns g/(R·T) = h/(R·T) − s/R, used for equilibrium constants,
// with lnT = LnT(T) supplied by the caller.
func (s *Species) GRTLn(T, lnT float64) float64 { return s.HRT(T) - s.SRLn(T, lnT) }

func clampT(T float64) float64 {
	if T < TMin {
		return TMin
	}
	if T > TMax {
		return TMax
	}
	return T
}

// Set is an ordered collection of species forming the thermodynamic state
// space of a mechanism. Mass-fraction slices are indexed consistently with
// Set.Species. tab holds the same species by value, so a TFromE iterate
// walks one contiguous table instead of following ns pointers, and fits
// holds their enthalpy and heat-capacity fits as the packed row kernels
// read them (HRTRow, TFromERow).
type Set struct {
	Species []*Species
	index   map[string]int
	tab     []Species
	fits    *vexp.Fits
}

// NewSet builds a Set from the named species in the package database,
// in the given order. Unknown names are an error.
func NewSet(names ...string) (*Set, error) {
	s := &Set{index: make(map[string]int, len(names))}
	for _, n := range names {
		sp, ok := database[n]
		if !ok {
			return nil, fmt.Errorf("thermo: unknown species %q", n)
		}
		s.index[n] = len(s.Species)
		s.Species = append(s.Species, sp)
		s.tab = append(s.tab, *sp)
	}
	f := make([]vexp.Fit, len(s.tab))
	for n, sp := range s.tab {
		f[n] = vexp.Fit{A: [6]float64(sp.a[:6]), HQ: sp.hq, W: sp.W}
	}
	s.fits = vexp.NewFits(f)
	return s, nil
}

// MustSet is NewSet that panics on error; for statically known species lists.
func MustSet(names ...string) *Set {
	s, err := NewSet(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of species.
func (s *Set) Len() int { return len(s.Species) }

// Index returns the index of the named species, or -1.
func (s *Set) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// HRTRow sets hrt[n][i] = HRT(T[i]) of species n at the len(T) points of a
// row, the one evaluation that H (hrt·R·T/W), GRTLn and HMolar rows share.
// The whole 4-point blocks of each species' row go to the packed kernel
// (vexp.HRT) where it is armed; this loop is the definition and does the
// rest.
func (s *Set) HRTRow(T []float64, hrt [][]float64) {
	for n := range s.tab {
		sp, h := &s.tab[n], hrt[n][:len(T)]
		for i := vexp.HRT(h, T, s.fits, n); i < len(T); i++ {
			h[i] = sp.hRT(clampT(T[i]))
		}
	}
}

// MeanW returns the mixture molecular weight W = (Σ Yᵢ/Wᵢ)⁻¹ (paper eq. 8)
// in kg/mol.
func (s *Set) MeanW(Y []float64) float64 {
	var inv float64
	for i, sp := range s.Species {
		inv += Y[i] / sp.W
	}
	return 1 / inv
}

// MoleFractions converts mass fractions to mole fractions (paper eq. 9),
// writing into X.
func (s *Set) MoleFractions(Y, X []float64) {
	W := s.MeanW(Y)
	for i, sp := range s.Species {
		X[i] = Y[i] * W / sp.W
	}
}

// MassFractions converts mole fractions to mass fractions, writing into Y.
func (s *Set) MassFractions(X, Y []float64) {
	var W float64
	for i, sp := range s.Species {
		W += X[i] * sp.W
	}
	for i, sp := range s.Species {
		Y[i] = X[i] * sp.W / W
	}
}

// CpMass returns the mixture isobaric heat capacity in J/(kg·K).
func (s *Set) CpMass(T float64, Y []float64) float64 {
	var cp float64
	for i, sp := range s.Species {
		cp += Y[i] * sp.Cp(T)
	}
	return cp
}

// CvMass returns the mixture isochoric heat capacity in J/(kg·K), using
// cp − cv = R/W (paper §2.1).
func (s *Set) CvMass(T float64, Y []float64) float64 {
	return s.CpMass(T, Y) - R/s.MeanW(Y)
}

// HMass returns the mixture specific enthalpy (sensible + chemical) in J/kg.
func (s *Set) HMass(T float64, Y []float64) float64 {
	var h float64
	for i, sp := range s.Species {
		h += Y[i] * sp.H(T)
	}
	return h
}

// EMass returns the mixture specific internal energy in J/kg:
// e = h − p/ρ = h − R·T/W.
func (s *Set) EMass(T float64, Y []float64) float64 {
	return s.HMass(T, Y) - R*T/s.MeanW(Y)
}

// Gamma returns the mixture ratio of specific heats.
func (s *Set) Gamma(T float64, Y []float64) float64 {
	cp := s.CpMass(T, Y)
	return cp / (cp - R/s.MeanW(Y))
}

// SoundSpeed returns the frozen sound speed in m/s.
func (s *Set) SoundSpeed(T float64, Y []float64) float64 {
	return math.Sqrt(s.Gamma(T, Y) * R * T / s.MeanW(Y))
}

// Pressure returns p = ρ·Ru·T/W (paper eq. 7) in Pa.
func (s *Set) Pressure(rho, T float64, Y []float64) float64 {
	return rho * R * T / s.MeanW(Y)
}

// Density returns ρ = p·W/(Ru·T) in kg/m³.
func (s *Set) Density(p, T float64, Y []float64) float64 {
	return p * s.MeanW(Y) / (R * T)
}

// TFromE inverts e(T) = e for the mixture by Newton iteration starting from
// guess Tg (cv is smooth and positive, so convergence is quadratic and
// robust). It returns the temperature and whether the iteration converged.
// Energies outside the polynomial range saturate at TMin/TMax (still
// reported as converged): transient over/undershoots at marginal resolution
// are clipped rather than fatal, and the solution filter removes them on
// subsequent steps. It is TFromEW with W = MeanW(Y).
func (s *Set) TFromE(e float64, Y []float64, Tg float64) (float64, bool) {
	return s.TFromEW(e, Y, s.MeanW(Y), Tg)
}

// TFromEW is TFromE for a caller that holds W = MeanW(Y). Each iterate sums
// HMass and CpMass (each with its own bits) in one pass over tab, with no
// clamp: the first iterate is Tg if it lies in [TMin, TMax], else 1000, and
// each later one is clamped into the range or is NaN, so clampT would
// return every iterate unchanged.
//
// The two saturation bounds cost an EMass each, so they are evaluated only
// when they can matter. e(T) is increasing, so an energy at or beyond a
// bound drives every iterate towards that bound: the iteration is clamped
// there, or converges within a hair of it (|dT| < 1e-9·T puts it well inside
// satBand), or fails to converge. Checking saturation whenever an iterate
// lands within satBand of a bound, and once more before reporting failure,
// therefore returns exactly what checking up front would.
func (s *Set) TFromEW(e float64, Y []float64, W, Tg float64) (float64, bool) {
	T := Tg
	if T < TMin || T > TMax || math.IsNaN(T) {
		T = 1000
	}
	Y = Y[:len(s.tab)]
	for iter := 0; iter < 50; iter++ {
		var h, cp float64
		for i := range s.tab {
			c := &s.tab[i]
			h += Y[i] * (c.hRT(T) * R * T / c.W)
			cp += Y[i] * (c.cpR(T) * R / c.W)
		}
		f := (h - R*T/W) - e // EMass(T, Y) − e
		cv := cp - R/W       // CvMass(T, Y)
		dT := f / cv
		T -= dT
		if T < TMin {
			T = TMin
		}
		if T > TMax {
			T = TMax
		}
		if T <= TMin+satBand || T >= TMax-satBand {
			if Ts, ok := s.saturated(e, Y); ok {
				return Ts, true
			}
		}
		if math.Abs(dT) < 1e-9*T {
			return T, true
		}
	}
	if Ts, ok := s.saturated(e, Y); ok {
		return Ts, true
	}
	return T, false
}

// TFromERow is TFromE over a row of w = len(e) points: for every i it sets
// W[i] = MeanW(yᵢ) and (T[i], ok[i]) = TFromEW(e[i], yᵢ, W[i], Tg[i]), where
// yᵢ is point i's mass-fraction vector, Y[n·w+i] for species n (Y holds the
// species' rows end to end). The whole 4-point blocks go to the packed
// Newton (vexp.TNewton) where it is armed, which hands back every lane that
// would reach TFromEW's saturation check or fail — a lane within satBand of
// a bound, a NaN lane, a lane still iterating at the 50th iterate — and
// TFromEW runs those from Tg[i], the tail of the row and, where the kernel
// is not armed, every point: it is the one definition of each case. yp is
// a scratch vector of Len() elements; T, W, ok and Tg must be at least w
// long, and T must not overlap Tg.
func (s *Set) TFromERow(T, W []float64, ok []bool, e, Y, Tg, yp []float64) {
	w := len(e)
	T, W, ok, Tg, yp = T[:w], W[:w], ok[:w], Tg[:w], yp[:len(s.tab)]
	k := vexp.TNewton(T, W, e, Tg, Y, s.fits)
	for i := range T {
		if i < k && !math.IsNaN(T[i]) {
			ok[i] = true
			continue
		}
		for n := range yp {
			yp[n] = Y[n*w+i]
		}
		if i >= k {
			W[i] = s.MeanW(yp)
		}
		T[i], ok[i] = s.TFromEW(e[i], yp, W[i], Tg[i])
	}
}

// satBand is how close (K) to TMin/TMax a Newton iterate must land before
// TFromEW evaluates the saturation bounds.
const satBand = 1.0

// saturated reports whether e lies at or beyond the energy of a polynomial
// range bound, and the bound temperature it saturates at.
func (s *Set) saturated(e float64, Y []float64) (float64, bool) {
	if e >= s.EMass(TMax, Y) {
		return TMax, true
	}
	if e <= s.EMass(TMin, Y) {
		return TMin, true
	}
	return 0, false
}

// ElementMassFraction returns the mass fraction of element el in the
// mixture, the quantity Bilger's mixture fraction is built from.
func (s *Set) ElementMassFraction(el string, Y []float64) float64 {
	var z float64
	w := elementWeight(el)
	for i, sp := range s.Species {
		if n := sp.Elem[el]; n > 0 {
			z += Y[i] * float64(n) * w / sp.W
		}
	}
	return z
}

func elementWeight(el string) float64 {
	switch el {
	case "H":
		return 0.0010079
	case "O":
		return 0.0159994
	case "C":
		return 0.0120107
	case "N":
		return 0.0140067
	default:
		panic("thermo: unknown element " + el)
	}
}
