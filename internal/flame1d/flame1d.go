// Package flame1d computes unstrained laminar premixed flame properties —
// the flame speed S_L, thermal thickness δ_L (maximum-temperature-gradient
// definition), heat-release FWHM thickness δ_H and flame time τ_f = δ_L/S_L
// that normalise table 1 and figure 13 of the paper. It plays the role of
// the PREMIX code the authors used (paper §7.2, ref. [38]).
//
// The solver marches the one-dimensional low-Mach (constant-pressure)
// premixed flame equations to a propagating quasi-steady state:
//
//	ρ·DY/Dt = −∂J/∂x + W·ω̇
//	ρcp·DT/Dt = ∂/∂x(λ·∂T/∂x) − Σ hᵢWᵢω̇ᵢ
//	∂u/∂x = (1/T)·DT/Dt − (1/W)·DW/Dt   (continuity + ideal gas)
//
// and measures the consumption speed S_c = −∫Wfω̇f dx/(ρᵤYf,ᵤ), which
// equals S_L for an unstrained steady flame.
package flame1d

import (
	"fmt"
	"math"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/reactor"
	"github.com/s3dgo/s3d/internal/transport"
)

// Properties are the laminar flame quantities of paper §7.2.
type Properties struct {
	SL     float64 // laminar flame speed (m/s)
	DeltaL float64 // thermal thickness (T_b−T_u)/max|dT/dx| (m)
	DeltaH float64 // FWHM of heat-release rate (m)
	TauF   float64 // flame time δ_L/S_L (s)
	Tburnt float64 // burnt-gas temperature (K)
	Tu     float64 // unburnt temperature (K)
}

// Config controls the 1-D solve.
type Config struct {
	Mech *chem.Mechanism
	Tu   float64   // unburnt temperature (K)
	P    float64   // pressure (Pa)
	Yu   []float64 // unburnt composition

	// Numerical controls; zeros select defaults tuned for CH4/H2 flames.
	Nx   int     // grid points (default 240)
	L    float64 // domain length (default 40 δ-estimates ≈ 8 mm)
	TEnd float64 // integration horizon (default 0.35 ms)
	TAvg float64 // trailing window for averaging S_c (default 0.1 ms)
}

// transEvery is the number of steps between transport-property updates.
const transEvery = 10

// Solve runs the flame to a propagating state and measures its properties.
func Solve(cfg Config) (Properties, error) {
	m := cfg.Mech
	set := m.Set
	ns := m.NumSpecies()
	tr, err := transport.New(set)
	if err != nil {
		return Properties{}, err
	}
	nx := cfg.Nx
	if nx == 0 {
		nx = 240
	}
	L := cfg.L
	if L == 0 {
		L = 8e-3
	}
	tEnd := cfg.TEnd
	if tEnd == 0 {
		tEnd = 0.35e-3
	}
	tAvg := cfg.TAvg
	if tAvg == 0 {
		tAvg = 0.1e-3
	}
	h := L / float64(nx-1)

	// Burnt state from an adiabatic equilibrium calculation.
	burnt, err := reactor.EquilibrateAdiabatic(m, cfg.Tu, cfg.P, cfg.Yu)
	if err != nil {
		return Properties{}, fmt.Errorf("flame1d: equilibrium: %v", err)
	}

	// State arrays.
	T := make([]float64, nx)
	Y := make([][]float64, nx)
	for i := range Y {
		Y[i] = make([]float64, ns)
	}
	// Initial profile: burnt on the left, unburnt on the right, tanh blend
	// over ~10 cells centred at x = L/4.
	x0 := L / 4
	width := 8 * h
	for i := 0; i < nx; i++ {
		x := float64(i) * h
		f := 0.5 * (1 - math.Tanh((x-x0)/width)) // 1 burnt → 0 unburnt
		T[i] = f*burnt.T + (1-f)*cfg.Tu
		for n := 0; n < ns; n++ {
			Y[i][n] = f*burnt.Y[n] + (1-f)*cfg.Yu[n]
		}
	}

	// Work arrays.
	rho := make([]float64, nx)
	cp := make([]float64, nx)
	// Transport in MixtureRow's layout: μ, λ, the pressure and mean molar
	// mass rows, and per species the Yₙ and Dₙ rows.
	mu, lam, pRow, wRow := make([]float64, nx), make([]float64, nx), make([]float64, nx), make([]float64, nx)
	yRows, dmix := make([][]float64, ns), make([][]float64, ns)
	for n := range dmix {
		yRows[n], dmix[n] = make([]float64, nx), make([]float64, nx)
	}
	for i := range pRow {
		pRow[i] = cfg.P
	}
	dTdt := make([]float64, nx)
	dYdt := make([][]float64, nx)
	for i := range dYdt {
		dYdt[i] = make([]float64, ns)
	}
	u := make([]float64, nx)
	jfl := make([][]float64, nx) // diffusive fluxes at faces i+1/2
	for i := range jfl {
		jfl[i] = make([]float64, ns)
	}
	qface := make([]float64, nx)
	// hₙ/RT, concentration and rate rows over the interior points 1..nx−2.
	hrt, c, wdot := make([][]float64, ns), make([][]float64, ns), make([][]float64, ns)
	for n := range c {
		hrt[n], c[n], wdot[n] = make([]float64, nx-2), make([]float64, nx-2), make([]float64, nx-2)
	}
	hrr := make([]float64, nx)

	iFuel := fuelIndex(m)
	if iFuel < 0 {
		return Properties{}, fmt.Errorf("flame1d: no fuel species (CH4 or H2) in mechanism")
	}
	rhoU := set.Density(cfg.P, cfg.Tu, cfg.Yu)
	yFu := cfg.Yu[iFuel]
	if yFu <= 0 {
		return Properties{}, fmt.Errorf("flame1d: unburnt fuel fraction is zero")
	}

	updateProps := func() {
		for i := 0; i < nx; i++ {
			rho[i] = set.Density(cfg.P, T[i], Y[i])
			cp[i] = set.CpMass(T[i], Y[i])
			wRow[i] = set.MeanW(Y[i])
			for n, y := range Y[i] {
				yRows[n][i] = y
			}
		}
		tr.MixtureRow(T, pRow, wRow, yRows, mu, lam, dmix)
	}
	updateProps()

	var t float64
	var scSum, scT float64
	step := 0
	for t < tEnd {
		if step%transEvery == 0 {
			updateProps()
		} else {
			for i := 0; i < nx; i++ {
				rho[i] = set.Density(cfg.P, T[i], Y[i])
				cp[i] = set.CpMass(T[i], Y[i])
			}
		}

		// Diffusive fluxes at faces (central) with zero-sum correction.
		for i := 0; i < nx-1; i++ {
			var sum float64
			rhoF := 0.5 * (rho[i] + rho[i+1])
			for n := 0; n < ns; n++ {
				dF := 0.5 * (dmix[n][i] + dmix[n][i+1])
				jfl[i][n] = -rhoF * dF * (Y[i+1][n] - Y[i][n]) / h
				sum += jfl[i][n]
			}
			yF := 0.0
			for n := 0; n < ns; n++ {
				yF = 0.5 * (Y[i][n] + Y[i+1][n])
				jfl[i][n] -= yF * sum
			}
			lamF := 0.5 * (lam[i] + lam[i+1])
			qface[i] = -lamF * (T[i+1] - T[i]) / h
		}

		// Reaction rates and heat release over the interior in one row call
		// each (on one hₙ/RT row), then material derivatives, velocity div.
		for i := 1; i < nx-1; i++ {
			for n := 0; n < ns; n++ {
				c[n][i-1] = rho[i] * Y[i][n] / set.Species[n].W
			}
		}
		set.HRTRow(T[1:nx-1], hrt)
		m.ProductionRatesRow(T[1:nx-1], hrt, c, wdot)
		m.HeatReleaseRow(T[1:nx-1], hrt, wdot, hrr[1:nx-1])
		var sc float64
		maxRate := 0.0
		for i := 1; i < nx-1; i++ {
			sc -= set.Species[iFuel].W * wdot[iFuel][i-1] * h

			invRho := 1 / rho[i]
			for n := 0; n < ns; n++ {
				dYdt[i][n] = (-(jfl[i][n]-jfl[i-1][n])/h + set.Species[n].W*wdot[n][i-1]) * invRho
			}
			dTdt[i] = (-(qface[i]-qface[i-1])/h + hrr[i]) * invRho / cp[i]
			if r := math.Abs(dTdt[i]) / T[i]; r > maxRate {
				maxRate = r
			}
			for n := 0; n < ns; n++ {
				ref := math.Max(Y[i][n], 1e-4)
				if r := math.Abs(dYdt[i][n]) / ref; r > maxRate {
					maxRate = r
				}
			}
		}
		sc /= rhoU * yFu

		// Velocity from continuity with u(0)=0 on the burnt side.
		u[0] = 0
		for i := 1; i < nx-1; i++ {
			// ∂u/∂x at i from material derivatives.
			W := set.MeanW(Y[i])
			var dWdt float64
			for n := 0; n < ns; n++ {
				dWdt += dYdt[i][n] / set.Species[n].W
			}
			dWdt *= -W * W
			dudx := dTdt[i]/T[i] - dWdt/W
			u[i] = u[i-1] + dudx*h
		}
		u[nx-1] = u[nx-2]

		// Time step: diffusive + rate-limited.
		alphaMax := 0.0
		for i := 0; i < nx; i++ {
			if a := lam[i] / (rho[i] * cp[i]); a > alphaMax {
				alphaMax = a
			}
		}
		dt := 0.4 * h * h / (2 * alphaMax)
		if maxRate > 0 {
			if lim := 0.05 / maxRate; lim < dt {
				dt = lim
			}
		}
		if cflDt := 0.5 * h / (maxAbs(u) + 1e-10); cflDt < dt {
			dt = cflDt
		}
		if t+dt > tEnd {
			dt = tEnd - t
		}

		// Explicit update with first-order upwind convection.
		for i := 1; i < nx-1; i++ {
			var dTdx float64
			if u[i] >= 0 {
				dTdx = (T[i] - T[i-1]) / h
			} else {
				dTdx = (T[i+1] - T[i]) / h
			}
			T[i] += dt * (dTdt[i] - u[i]*dTdx)
			for n := 0; n < ns; n++ {
				var dYdx float64
				if u[i] >= 0 {
					dYdx = (Y[i][n] - Y[i-1][n]) / h
				} else {
					dYdx = (Y[i+1][n] - Y[i][n]) / h
				}
				Y[i][n] += dt * (dYdt[i][n] - u[i]*dYdx)
				if Y[i][n] < 0 {
					Y[i][n] = 0
				}
			}
			normalize(Y[i])
		}
		// Boundaries: zero-gradient burnt side, fixed unburnt side.
		T[0] = T[1]
		copy(Y[0], Y[1])
		T[nx-1] = cfg.Tu
		copy(Y[nx-1], cfg.Yu)

		t += dt
		step++
		if t > tEnd-tAvg {
			scSum += sc * dt
			scT += dt
		}
		if math.IsNaN(T[nx/2]) {
			return Properties{}, fmt.Errorf("flame1d: NaN at t=%g", t)
		}
	}

	// Measurements.
	p := Properties{Tu: cfg.Tu}
	if scT > 0 {
		p.SL = scSum / scT
	}
	maxGrad := 0.0
	tMax, tMin := T[0], T[0]
	for i := 1; i < nx-1; i++ {
		if g := math.Abs(T[i+1]-T[i-1]) / (2 * h); g > maxGrad {
			maxGrad = g
		}
		tMax = math.Max(tMax, T[i])
		tMin = math.Min(tMin, T[i])
	}
	p.Tburnt = tMax
	if maxGrad > 0 {
		p.DeltaL = (tMax - tMin) / maxGrad
	}
	p.DeltaH = fwhm(hrr, h)
	if p.SL > 0 {
		p.TauF = p.DeltaL / p.SL
	}
	return p, nil
}

// fuelIndex finds the fuel species (CH4 preferred, else H2).
func fuelIndex(m *chem.Mechanism) int {
	if i := m.Set.Index("CH4"); i >= 0 {
		return i
	}
	return m.Set.Index("H2")
}

// fwhm returns the full width at half maximum of a sampled profile.
func fwhm(v []float64, h float64) float64 {
	max := 0.0
	iMax := 0
	for i, x := range v {
		if x > max {
			max = x
			iMax = i
		}
	}
	if max <= 0 {
		return 0
	}
	half := max / 2
	lo, hi := iMax, iMax
	for lo > 0 && v[lo] > half {
		lo--
	}
	for hi < len(v)-1 && v[hi] > half {
		hi++
	}
	return float64(hi-lo) * h
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func normalize(y []float64) {
	var s float64
	for _, v := range y {
		s += v
	}
	if s > 0 {
		inv := 1 / s
		for i := range y {
			y[i] *= inv
		}
	}
}

// PremixedMixture builds the unburnt mass fractions of a fuel/air mixture
// at equivalence ratio phi for a mechanism whose fuel is CH4 or H2.
func PremixedMixture(m *chem.Mechanism, phi float64) ([]float64, error) {
	set := m.Set
	x := make([]float64, set.Len())
	iO2 := set.Index("O2")
	iN2 := set.Index("N2")
	if iO2 < 0 || iN2 < 0 {
		return nil, fmt.Errorf("flame1d: mechanism lacks O2/N2")
	}
	switch {
	case set.Index("CH4") >= 0:
		x[set.Index("CH4")] = phi
		x[iO2] = 2
		x[iN2] = 2 * 3.76
	case set.Index("H2") >= 0:
		x[set.Index("H2")] = phi
		x[iO2] = 0.5
		x[iN2] = 0.5 * 3.76
	default:
		return nil, fmt.Errorf("flame1d: no known fuel species")
	}
	y := make([]float64, set.Len())
	set.MassFractions(x, y)
	return y, nil
}
