// Package reactor provides zero-dimensional homogeneous reactors: the
// constant-pressure and constant-volume adiabatic ignition problems used to
// characterise the autoignition chemistry behind the lifted-flame study
// (paper §6 — the hot 1100 K coflow sits above the crossover temperature of
// hydrogen/air chemistry, so the upstream mixture is autoignitable).
package reactor

import (
	"fmt"
	"math"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/thermo"
)

// State is the instantaneous reactor state.
type State struct {
	Time float64
	T    float64
	P    float64
	Y    []float64
}

// The adaptive explicit integration's step controls: the per-step relative
// change of T and the major species is bounded by maxRelChange, the step
// size by dtMax, and a step below dtMin aborts runaway stiffness.
const (
	maxRelChange = 0.02
	dtMax        = 1e-6  // s
	dtMin        = 1e-13 // s
)

// ConstPressure integrates an adiabatic constant-pressure reactor from
// (T0, p, Y0) until tEnd, calling observe (if non-nil) after every step and
// returning early once stop (if non-nil) reports true for the new state.
// The governing equations are dYᵢ/dt = Wᵢω̇ᵢ/ρ and
// dT/dt = −Σ hᵢWᵢω̇ᵢ/(ρ·cp), with ρ = pW/(RuT).
func ConstPressure(m *chem.Mechanism, T0, p float64, Y0 []float64, tEnd float64,
	stop func(State) bool, observe func(State)) (State, error) {
	ns := m.NumSpecies()
	set := m.Set
	y := append([]float64(nil), Y0...)
	T := T0
	t := 0.0
	c := make([]float64, ns)
	wdot := make([]float64, ns)
	dy := make([]float64, ns)
	k1 := make([]float64, ns+1) // [dY..., dT]
	k2 := make([]float64, ns+1)
	k3 := make([]float64, ns+1)
	k4 := make([]float64, ns+1)
	yTmp := make([]float64, ns)

	deriv := func(Tl float64, yl []float64, out []float64) {
		rho := set.Density(p, Tl, yl)
		for i, sp := range set.Species {
			c[i] = rho * yl[i] / sp.W
		}
		m.ProductionRates(Tl, c, wdot)
		cp := set.CpMass(Tl, yl)
		var q float64
		for i, sp := range set.Species {
			out[i] = sp.W * wdot[i] / rho
			q -= sp.HMolar(Tl) * wdot[i]
		}
		out[ns] = q / (rho * cp)
	}

	dt := 1e-10
	for t < tEnd {
		deriv(T, y, k1)
		// Rate-limited step size: cap the relative change of T and of any
		// species above a floor.
		limit := SubstepRate(T, y, k1[:ns], k1[ns])
		if limit > 0 {
			dt = 1 / limit
		} else {
			dt = dtMax
		}
		if dt > dtMax {
			dt = dtMax
		}
		if dt < dtMin {
			return State{Time: t, T: T, P: p, Y: y},
				fmt.Errorf("reactor: step size underflow (dt=%g at t=%g, T=%g)", dt, t, T)
		}
		if t+dt > tEnd {
			dt = tEnd - t
		}

		// Classical RK4 on (Y, T).
		stage := func(src []float64, frac float64, out []float64) {
			for i := 0; i < ns; i++ {
				yTmp[i] = clamp01(y[i] + frac*dt*src[i])
			}
			deriv(T+frac*dt*src[ns], yTmp, out)
		}
		stage(k1, 0.5, k2)
		stage(k2, 0.5, k3)
		stage(k3, 1.0, k4)
		for i := 0; i <= ns; i++ {
			d := dt / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
			if i < ns {
				y[i] = clamp01(y[i] + d)
				dy[i] = d
			} else {
				T += d
			}
		}
		normalize(y)
		t += dt
		if observe != nil {
			observe(State{Time: t, T: T, P: p, Y: y})
		}
		if stop != nil && stop(State{Time: t, T: T, P: p, Y: y}) {
			return State{Time: t, T: T, P: p, Y: y}, nil
		}
		if math.IsNaN(T) || T > thermo.TMax {
			T = math.Min(T, thermo.TMax)
			if math.IsNaN(T) {
				return State{Time: t, T: T, P: p, Y: y}, fmt.Errorf("reactor: NaN temperature at t=%g", t)
			}
		}
	}
	return State{Time: t, T: T, P: p, Y: y}, nil
}

// SubstepRate is the reactor's step-size controller as a pure function: the
// reciprocal of the largest step (1/dt) that keeps the relative change of T
// and of every species above a 1e-6 floor below maxRelChange, given the
// state (T, y) and its time derivatives dydt (= Wᵢω̇ᵢ/ρ) and dTdt
// (= q/(ρ·cp)). Being pure, it also maps chemical stiffness over any state:
// ceil(dt·rate) is how many reactor substeps a cell would demand over a
// step dt.
func SubstepRate(T float64, y, dydt []float64, dTdt float64) float64 {
	limit := math.Abs(dTdt) / (maxRelChange * T)
	for i := range y {
		ref := math.Max(y[i], 1e-6)
		if l := math.Abs(dydt[i]) / (maxRelChange * ref); l > limit {
			limit = l
		}
	}
	return limit
}

// IgnitionDelay returns the ignition delay of an adiabatic constant-pressure
// reactor, defined as the time of maximum dT/dt (the standard DNS
// diagnostic). A second return reports the final temperature.
func IgnitionDelay(m *chem.Mechanism, T0, p float64, Y0 []float64, tMax float64) (tau, tFinal float64, err error) {
	var prevT, prevTime float64 = T0, 0
	bestRate := 0.0
	tau = math.NaN()
	// Once the temperature has risen far above the initial state and the
	// heat-release transient has passed its peak, the delay is decided;
	// integrating the stiff post-flame equilibrium further is wasted work.
	stop := func(s State) bool {
		return s.T > T0+700 && !math.IsNaN(tau) && s.Time > 1.2*tau
	}
	final, err := ConstPressure(m, T0, p, Y0, tMax, stop, func(s State) {
		if s.Time > prevTime {
			rate := (s.T - prevT) / (s.Time - prevTime)
			if rate > bestRate {
				bestRate = rate
				tau = s.Time
			}
		}
		prevT, prevTime = s.T, s.Time
	})
	if err != nil {
		return tau, final.T, err
	}
	if final.T < T0+200 {
		return math.NaN(), final.T, nil // no ignition within tMax
	}
	return tau, final.T, nil
}

// CrossoverTemperature scans for the temperature at which the ignition
// delay of a stoichiometric-ish H2/air mixture falls below tauRef — the
// "crossover" of chain branching vs termination that makes the paper's
// 1100 K coflow autoignitive while 400 K fuel is not.
func CrossoverTemperature(m *chem.Mechanism, p float64, Y0 []float64, tauRef float64) (float64, error) {
	lo, hi := 800.0, 1400.0
	ignites := func(T float64) bool {
		tau, _, err := IgnitionDelay(m, T, p, Y0, tauRef)
		return err == nil && !math.IsNaN(tau)
	}
	if ignites(lo) {
		return lo, nil
	}
	if !ignites(hi) {
		return 0, fmt.Errorf("reactor: no ignition up to %g K within %g s", hi, tauRef)
	}
	for iter := 0; iter < 12; iter++ {
		mid := 0.5 * (lo + hi)
		if ignites(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// EquilibrateAdiabatic integrates a constant-pressure reactor to a long
// horizon and returns the final (≈equilibrium) state — used to build the
// hot-coflow composition of the Bunsen configuration ("complete combustion
// products of the reactant jet", paper §7.2).
func EquilibrateAdiabatic(m *chem.Mechanism, T0, p float64, Y0 []float64) (State, error) {
	y := append([]float64(nil), Y0...)
	// Start hot enough to ignite promptly, then stop once the temperature
	// has plateaued (small relative change over a trailing window).
	var lastT float64
	var lastTime float64
	plateaued := func(s State) bool {
		if s.Time-lastTime > 2e-4 {
			settled := math.Abs(s.T-lastT) < 0.5 && s.T > 1800
			lastT, lastTime = s.T, s.Time
			return settled
		}
		return false
	}
	return ConstPressure(m, math.Max(T0, 1600), p, y, 20e-3, plateaued, nil)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
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
