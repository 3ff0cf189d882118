// Package transport evaluates mixture-averaged molecular transport
// properties for the S3D solver: pure-species viscosities from
// Chapman–Enskog theory with Neufeld collision-integral fits, the Wilke
// mixture rule, modified-Eucken thermal conductivities with the
// Mathur–Saxena mixture average, binary diffusion coefficients, and the
// mixture-averaged diffusion coefficients of paper eq. (17).
//
// This package plays the role of the CHEMKIN TRANSPORT library linked by
// the original S3D (paper §2.6). Lennard-Jones parameters are standard
// database values. Consistent with the paper (§2.4–2.5), Soret and Dufour
// effects and barodiffusion are not modelled.
package transport

import (
	"fmt"
	"math"
	"slices"

	"github.com/s3dgo/s3d/internal/thermo"
	"github.com/s3dgo/s3d/internal/vexp"
)

// Boltzmann constant (J/K) and Avogadro number used by kinetic theory.
const (
	kB = 1.380649e-23
	nA = 6.02214076e23
)

// ljParams holds Lennard-Jones well depth ε/k_B (K) and collision diameter
// σ (Å) per species.
var ljParams = map[string]struct{ eps, sigma float64 }{
	"H2":   {38.0, 2.920},
	"O2":   {107.4, 3.458},
	"N2":   {97.53, 3.621},
	"H":    {145.0, 2.050},
	"O":    {80.0, 2.750},
	"OH":   {80.0, 2.750},
	"H2O":  {572.4, 2.605},
	"HO2":  {107.4, 3.458},
	"H2O2": {107.4, 3.458},
	"CH4":  {141.4, 3.746},
	"CO":   {98.1, 3.650},
	"CO2":  {244.0, 3.763},
	"CH3":  {144.0, 3.800},
	"CH2O": {498.0, 3.590},
	"HCO":  {498.0, 3.590},
}

// Model evaluates transport properties for a species set. Construct one per
// solver rank (it holds scratch) with New. Following the CHEMKIN TRANSPORT
// design, the kinetic-theory expressions are fitted once at construction to
// cubic polynomials in ln T, so a mixture evaluation needs one exp per
// species/pair instead of repeated collision-integral fits.
type Model struct {
	Set *thermo.Set

	eps, sigma []float64   // per species
	w4         [][]float64 // (Wj/Wi)^(1/4), Wilke prefactor
	wPhi       [][]float64 // 1/√(8(1+Wi/Wj)), Wilke denominator factor

	// Fitted property polynomials: value = exp(c0 + c1·lnT + c2·lnT² + c3·lnT³).
	muFit [][4]float64   // per species: ln μ(T)
	dFit  [][][4]float64 // per ordered pair: ln D_ij(T) at p = 1 atm
	fits  [][4]float64   // muFit, then dFit[i][j], i < j: (0,1), (0,2), …, (1,2), …

	// MixtureRow's row scratch, strided by the current row's width: the
	// mole-fraction rows, the exponential block (a row per fit) and the ln T,
	// 101325/p and two accumulator rows; Mixture's length-1 views of Y and
	// Dmix and its T, p, W, μ, λ.
	x, fit, acc []float64
	yPt, dPt    [][]float64
	pt          [5]float64
}

// New builds a transport model for the species set. Species missing from
// the Lennard-Jones table are an error.
func New(set *thermo.Set) (*Model, error) {
	n := set.Len()
	m := &Model{
		Set:   set,
		eps:   make([]float64, n),
		sigma: make([]float64, n),
		yPt:   make([][]float64, n),
		dPt:   make([][]float64, n),
	}
	for i, sp := range set.Species {
		lj, ok := ljParams[sp.Name]
		if !ok {
			return nil, fmt.Errorf("transport: no Lennard-Jones data for %q", sp.Name)
		}
		m.eps[i] = lj.eps
		m.sigma[i] = lj.sigma * 1e-10 // Å → m
	}
	m.w4, m.wPhi = sq(n), sq(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := set.Species[j].W / set.Species[i].W
			m.w4[i][j] = math.Pow(r, 0.25)
			m.wPhi[i][j] = 1 / math.Sqrt(8*(1+1/r))
		}
	}
	m.buildFits()
	return m, nil
}

// fitTemps samples the kinetic-theory curves for the ln-T polynomial fits.
var fitTemps = []float64{250, 350, 500, 700, 1000, 1400, 2000, 2800, 3500}

// buildFits fits ln μᵢ(T) and ln D_ij(T) to cubics in ln T (the CHEMKIN
// TRANSPORT fitting step).
func (m *Model) buildFits() {
	n := m.Set.Len()
	m.muFit = make([][4]float64, n)
	m.dFit = make([][][4]float64, n)
	lnT := make([]float64, len(fitTemps))
	vals := make([]float64, len(fitTemps))
	for p, T := range fitTemps {
		lnT[p] = math.Log(T)
	}
	for i := 0; i < n; i++ {
		for p, T := range fitTemps {
			vals[p] = math.Log(m.speciesViscosityExact(i, T))
		}
		m.muFit[i] = fitCubic(lnT, vals)
		m.dFit[i] = make([][4]float64, n)
		for j := 0; j < n; j++ {
			for p, T := range fitTemps {
				vals[p] = math.Log(m.binaryDiffusionExact(i, j, T, 101325))
			}
			m.dFit[i][j] = fitCubic(lnT, vals)
		}
		m.fits = append(m.fits, m.dFit[i][i+1:]...)
	}
	m.fits = append(slices.Clip(m.muFit), m.fits...)
}

// fitCubic least-squares fits y ≈ c0 + c1·x + c2·x² + c3·x³.
func fitCubic(xs, ys []float64) [4]float64 {
	var ata [4][4]float64
	var atb [4]float64
	for p := range xs {
		var row [4]float64
		v := 1.0
		for k := 0; k < 4; k++ {
			row[k] = v
			v *= xs[p]
		}
		for a := 0; a < 4; a++ {
			atb[a] += row[a] * ys[p]
			for b := 0; b < 4; b++ {
				ata[a][b] += row[a] * row[b]
			}
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < 4; col++ {
		p := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(ata[r][col]) > math.Abs(ata[p][col]) {
				p = r
			}
		}
		ata[col], ata[p] = ata[p], ata[col]
		atb[col], atb[p] = atb[p], atb[col]
		for r := col + 1; r < 4; r++ {
			f := ata[r][col] / ata[col][col]
			for c := col; c < 4; c++ {
				ata[r][c] -= f * ata[col][c]
			}
			atb[r] -= f * atb[col]
		}
	}
	var out [4]float64
	for r := 3; r >= 0; r-- {
		s := atb[r]
		for c := r + 1; c < 4; c++ {
			s -= ata[r][c] * out[c]
		}
		out[r] = s / ata[r][r]
	}
	return out
}

// fitArg evaluates the fit polynomial c0 + c1·x + c2·x² + c3·x³.
func fitArg(c [4]float64, x float64) float64 {
	return c[0] + x*(c[1]+x*(c[2]+x*c[3]))
}

// evalFit evaluates exp(c0 + c1·x + c2·x² + c3·x³).
func evalFit(c [4]float64, x float64) float64 {
	return math.Exp(fitArg(c, x))
}

// MustNew is New that panics on error, for statically known species sets.
func MustNew(set *thermo.Set) *Model {
	m, err := New(set)
	if err != nil {
		panic(err)
	}
	return m
}

// Clone returns a model sharing the immutable pair tables but owning
// private scratch, for concurrent solver ranks.
func (m *Model) Clone() *Model {
	c := *m
	c.x, c.fit, c.acc = nil, nil, nil
	c.yPt, c.dPt = make([][]float64, len(m.yPt)), make([][]float64, len(m.dPt))
	return &c
}

// sq allocates an n×n matrix.
func sq(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// omega22 is the Neufeld fit to the (2,2) reduced collision integral.
func omega22(tStar float64) float64 {
	return 1.16145*math.Pow(tStar, -0.14874) +
		0.52487*math.Exp(-0.77320*tStar) +
		2.16178*math.Exp(-2.43787*tStar)
}

// omega11 is the Neufeld fit to the (1,1) reduced collision integral.
func omega11(tStar float64) float64 {
	return 1.06036*math.Pow(tStar, -0.15610) +
		0.19300*math.Exp(-0.47635*tStar) +
		1.03587*math.Exp(-1.52996*tStar) +
		1.76474*math.Exp(-3.89411*tStar)
}

// speciesViscosityExact evaluates the Chapman–Enskog expression
// μ = (5/16)·√(π·m·k_B·T)/(π·σ²·Ω22) directly (used to build the fits).
func (m *Model) speciesViscosityExact(i int, T float64) float64 {
	mass := m.Set.Species[i].W / nA
	om := omega22(T / m.eps[i])
	return 5.0 / 16.0 * math.Sqrt(math.Pi*mass*kB*T) / (math.Pi * m.sigma[i] * m.sigma[i] * om)
}

// SpeciesViscosity returns the pure-species dynamic viscosity (Pa·s) of
// species i at temperature T (fitted evaluation).
func (m *Model) SpeciesViscosity(i int, T float64) float64 {
	return evalFit(m.muFit[i], math.Log(clampFitT(T)))
}

func clampFitT(T float64) float64 {
	if T < fitTemps[0] {
		return fitTemps[0]
	}
	if T > fitTemps[len(fitTemps)-1] {
		return fitTemps[len(fitTemps)-1]
	}
	return T
}

// SpeciesConductivity returns the pure-species thermal conductivity
// (W/(m·K)) via the modified Eucken correction:
// λ = μ·(cp + 1.25·Ru/W).
func (m *Model) SpeciesConductivity(i int, T float64) float64 {
	sp := m.Set.Species[i]
	mu := m.SpeciesViscosity(i, T)
	return mu * (sp.Cp(T) + 1.25*thermo.R/sp.W)
}

// binaryDiffusionExact evaluates the Chapman–Enskog expression
// D = (3/16)·√(2π·k_B³·T³/m_red)/(p·π·σ_ij²·Ω11) directly.
func (m *Model) binaryDiffusionExact(i, j int, T, p float64) float64 {
	wi, wj := m.Set.Species[i].W, m.Set.Species[j].W
	mRed := 2 / (1/wi + 1/wj) / (2 * nA) // reduced mass, kg
	sig := 0.5 * (m.sigma[i] + m.sigma[j])
	om := omega11(T / math.Sqrt(m.eps[i]*m.eps[j]))
	return 3.0 / 16.0 * math.Sqrt(2*math.Pi*kB*kB*kB*T*T*T/mRed) /
		(p * math.Pi * sig * sig * om)
}

// BinaryDiffusion returns the binary diffusion coefficient D_ij (m²/s) at
// temperature T (K) and pressure p (Pa) (fitted evaluation; D ∝ 1/p).
func (m *Model) BinaryDiffusion(i, j int, T, p float64) float64 {
	return evalFit(m.dFit[i][j], math.Log(clampFitT(T))) * 101325 / p
}

// Props holds the mixture-averaged transport properties at one grid point.
type Props struct {
	Mu     float64   // dynamic viscosity, Pa·s
	Lambda float64   // thermal conductivity, W/(m·K)
	Dmix   []float64 // mixture-averaged diffusion coefficients, m²/s
}

// Mixture evaluates μ, λ and D_i^mix for mass fractions Y at temperature T
// and pressure p, writing D into props.Dmix (which must have species
// length): MixtureRow over a row of one point, with W = MeanW(Y). Not safe
// for concurrent use on one Model: use Clone per rank.
func (m *Model) Mixture(T, p float64, Y []float64, props *Props) {
	for i := range m.yPt {
		m.yPt[i], m.dPt[i] = Y[i:i+1], props.Dmix[i:i+1]
	}
	pt := &m.pt
	pt[0], pt[1], pt[2] = T, p, m.Set.MeanW(Y)
	m.MixtureRow(pt[0:1], pt[1:2], pt[2:3], m.yPt, pt[3:4], pt[4:5], m.dPt)
	props.Mu, props.Lambda = pt[3], pt[4]
}

// MixtureRow evaluates μ, λ and D_i^mix at the len(T) points of a row from
// T (K), p (Pa), W = MeanW(Y) (kg/mol) and the mass-fraction rows Y[i]; the
// outputs are at least len(T) long. Every fit argument depends on ln T
// alone, so one batch exponential takes the whole row's; the mixing sums
// then run point-innermost, visiting species and pairs in the one-point
// order, so each point's sums round as they always did. Not safe for
// concurrent use on one Model: use Clone per rank.
func (m *Model) MixtureRow(T, p, W []float64, Y [][]float64, mu, lam []float64, D [][]float64) {
	n, w := m.Set.Len(), len(T)
	if len(m.acc) < 4*w {
		m.x, m.fit, m.acc = make([]float64, n*w), make([]float64, len(m.fits)*w), make([]float64, 4*w)
	}
	p, W, mu, lam = p[:w], W[:w], mu[:w], lam[:w]
	row := func(buf []float64, a int) []float64 { return buf[a*w : (a+1)*w] }
	lnT, pScale, denom, inv := row(m.acc, 0), row(m.acc, 1), row(m.acc, 2), row(m.acc, 3)

	// Mole fractions X_i = Y_i·W/W_i (paper eq. 9), round-off negatives
	// clipped; ln T over the fits' range and the pressure scaling of the
	// 1 atm D_ij fits; the μ, λ, Σx/λ and D sums start from +0.
	for a, sp := range m.Set.Species {
		xa, ya := row(m.x, a), Y[a][:w]
		for i := range xa {
			xa[i] = ya[i] * W[i] / sp.W
			if xa[i] < 0 {
				xa[i] = 0
			}
		}
		clear(D[a][:w])
	}
	for i := range lnT {
		lnT[i], pScale[i] = math.Log(clampFitT(T[i])), 101325/p[i]
		mu[i], lam[i], inv[i] = 0, 0, 0
	}

	// The n viscosity fits, then — the fit tables being bitwise symmetric
	// (dFit[i][j] == dFit[j][i]) — the D_ij fit once per unordered pair.
	fit := m.fit[:len(m.fits)*w]
	for k, c := range m.fits {
		fk := row(fit, k)
		for i := range fk {
			fk[i] = fitArg(c, lnT[i])
		}
	}
	vexp.Exp(fit, fit)

	// Wilke viscosity; Mathur–Saxena conductivity ½(Σxλ + (Σx/λ)⁻¹), each λᵢ
	// by the modified Eucken correction μᵢ·(cp,ᵢ + 1.25·Ru/Wᵢ).
	for a, sp := range m.Set.Species {
		xa, mua := row(m.x, a), row(fit, a)
		clear(denom)
		for b := 0; b < n; b++ {
			xb, mub, w4, phi := row(m.x, b), row(fit, b), m.w4[a][b], m.wPhi[a][b]
			for i := range denom {
				if xa[i] == 0 || xb[i] == 0 {
					continue
				}
				r := math.Sqrt(mua[i]/mub[i]) * w4
				denom[i] += xb[i] * (1 + r) * (1 + r) * phi
			}
		}
		for i := range mu {
			if xa[i] != 0 {
				mu[i] += xa[i] * mua[i] / denom[i]
			}
			l := mua[i] * (sp.Cp(T[i]) + 1.25*thermo.R/sp.W)
			lam[i] += xa[i] * l
			if xa[i] > 0 {
				inv[i] += xa[i] / l
			}
		}
	}
	for i := range lam {
		lam[i] = 0.5 * (lam[i] + 1/inv[i])
	}

	// Mixture-averaged diffusion (paper eq. 17), with the pure-species limit
	// D_i^mix → D_ii' (self/trace value) as X_i → 1. The denominators
	// Σ_{j≠i, X_j≠0} X_j/D_ij accumulate in D over the pairs in order, so row
	// i gets its terms in increasing j — the bits of the sum over j — and is
	// complete when the loop leaves a = i.
	k := n
	for a := 0; a < n; a++ {
		xa, da := row(m.x, a), D[a][:w]
		for b := a + 1; b < n; b++ {
			xb, db, fk := row(m.x, b), D[b][:w], row(fit, k)
			k++
			for i := range fk {
				d := fk[i] * pScale[i]
				if xb[i] != 0 {
					da[i] += xb[i] / d
				}
				if xa[i] != 0 {
					db[i] += xa[i] / d
				}
			}
		}
		for i, s := range da {
			da[i] = (1 - xa[i]) / s
			if s < 1e-30 || da[i] <= 0 { // pure species: the self-collision estimate
				da[i] = evalFit(m.dFit[a][a], lnT[i]) * pScale[i]
			}
		}
	}
}
