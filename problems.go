package s3d

import (
	"fmt"
	"math"

	"github.com/s3dgo/s3d/internal/reactor"
	"github.com/s3dgo/s3d/internal/turb"
)

// This file provides the paper's two science configurations as ready-made
// problems: the lifted H2/air jet flame in hot coflow (paper §6) and the
// slot-burner Bunsen premixed methane flame (paper §7). The full terascale
// grids (up to 1600×1372×430 points) ran for 3.5 million CPU-hours on
// 10 000 Cray XT3 processors, so the constants below describe laptop-scale
// cases that preserve the configuration and the governing parameter ratios
// (see DESIGN.md's substitution table); the caller picks the grid.

// Problem packages a Config with its initial condition.
type Problem struct {
	Config  Config
	Initial func(x, y, z float64, s *State)
	// InitPressure (optional) perturbs the initial pressure field.
	InitPressure func(x, y, z float64) float64
	// Fuel/oxidiser stream compositions for mixture-fraction statistics.
	YFuel, YOx []float64
}

// NewSimulation constructs and initialises the simulation for the problem.
func (p *Problem) NewSimulation() (*Simulation, error) {
	sim, err := New(p.Config)
	if err != nil {
		return nil, err
	}
	sim.SetInitial(p.Initial, p.InitPressure)
	return sim, nil
}

// LiftedJetOptions scales the §6.2 configuration: a central 65% H2 / 35%
// N2 (by volume) fuel jet at 400 K in coflowing heated air at 1100 K —
// above the H2/air crossover temperature, so the upstream mixture is
// autoignitable. The physics is fixed (the lifted* constants); only the
// grid, the inflow seed and the ignition starter are chosen per run.
type LiftedJetOptions struct {
	Nx, Ny, Nz     int
	Seed           int64
	IgnitionKernel bool // impose the §6.2 hot starter region in the jet
}

// The lifted-jet configuration at laptop scale: the paper's slot width and
// stream temperatures in a domain of 12 × 16 × 3.2 mm (paper: 2.4 × 3.2 ×
// 0.64 cm) with a 160 m/s jet (paper: 347 m/s). Typed, so every product of
// them rounds as the same product of float64 variables does.
const (
	liftedLx, liftedLy, liftedLz float64 = 12e-3, 16e-3, 3.2e-3 // domain size (m)
	liftedSlotWidth              float64 = 1.92e-3              // m
	liftedUJet, liftedUCoflow    float64 = 160, 6               // m/s
	liftedTFuel, liftedTCo       float64 = 400, 1100            // K
	liftedTurbIntensity          float64 = 0.08                 // inflow u′ as a fraction of liftedUJet
)

// LiftedJetProblem builds the lifted hydrogen jet configuration.
func LiftedJetProblem(o LiftedJetOptions) (*Problem, error) {
	mech := HydrogenAir()
	ns := mech.NumSpecies()

	// Fuel stream: 65% H2, 35% N2 by volume (paper §6.2).
	yFuel := make([]float64, ns)
	{
		x := make([]float64, ns)
		x[mech.SpeciesIndex("H2")] = 0.65
		x[mech.SpeciesIndex("N2")] = 0.35
		mech.chem.Set.MassFractions(x, yFuel)
	}
	yOx := make([]float64, ns)
	yOx[mech.SpeciesIndex("O2")] = 0.233
	yOx[mech.SpeciesIndex("N2")] = 0.767

	h := liftedSlotWidth
	shear := h / 6 // shear-layer thickness of the inflow profile
	inflow := turb.NewField(turb.Spectrum{Urms: liftedTurbIntensity * liftedUJet, L0: h}, 160, o.Seed+1)

	profile := func(y float64) float64 {
		// 1 inside the slot, 0 in the coflow, smooth tanh flanks.
		return 0.5 * (math.Tanh((y+h/2)/shear) - math.Tanh((y-h/2)/shear))
	}
	blendState := func(y, z, t float64, s *State) {
		f := profile(y)
		s.U = liftedUCoflow + (liftedUJet-liftedUCoflow)*f
		s.V, s.W = 0, 0
		s.T = liftedTCo + (liftedTFuel-liftedTCo)*f
		for i := 0; i < ns; i++ {
			s.Y[i] = yOx[i] + (yFuel[i]-yOx[i])*f
		}
		if f > 0.05 {
			du, dv, dw := inflow.Sweep(y, z, t, liftedUJet)
			s.U += du * f
			s.V += dv * f
			s.W += dw * f
		}
	}

	cfg := Config{
		Mechanism:   mech,
		Grid:        GridSpec{Nx: o.Nx, Ny: o.Ny, Nz: o.Nz, Lx: liftedLx, Ly: liftedLy, Lz: liftedLz},
		Pressure:    101325,
		FilterEvery: 5,
		Inflow:      blendState,
	}
	cfg.BC[0][0] = Inflow
	cfg.BC[0][1] = Outflow
	cfg.BC[1][0] = Outflow
	cfg.BC[1][1] = Outflow
	// z periodic (default) — spanwise, as in the paper.

	// Burnt-product state for the downstream flame initialisation: the
	// adiabatic products of a near-stoichiometric fuel/coflow blend, giving
	// a realistic OH-bearing high-temperature flame zone.
	var tBurn float64
	var yBurn []float64
	if o.IgnitionKernel {
		yStoich := make([]float64, ns)
		const xiIgn = 0.18 // lean-shifted stoichiometric band of the diluted jet
		for i := 0; i < ns; i++ {
			yStoich[i] = xiIgn*yFuel[i] + (1-xiIgn)*yOx[i]
		}
		st, err := reactor.EquilibrateAdiabatic(mech.chem, liftedTCo, 101325, yStoich)
		if err != nil {
			return nil, fmt.Errorf("s3d: lifted-jet ignition products: %v", err)
		}
		tBurn, yBurn = st.T, st.Y
	}

	initial := func(x, y, z float64, s *State) {
		// Domain starts filled with the inflow profile advected downstream;
		// the coordinate origin of y is the domain centre.
		blendState(y-liftedLy/2, z, 0, s)
		if o.IgnitionKernel {
			// §6.2 ignites the run by "artificially imposing a
			// high-temperature region in the central jet"; we seed the
			// developed analogue — hot OH-bearing products in the
			// downstream shear layers — so the lifted-base structure
			// (HO2 induction zone upstream of the OH flame) forms quickly.
			f := profile(y - liftedLy/2)
			shearW := 4 * f * (1 - f) // peaks in the mixing layers
			g := 0.5 * (1 + math.Tanh((x-0.55*liftedLx)/(0.08*liftedLx)))
			w := shearW * g
			if w > 0 {
				s.T += w * (tBurn - s.T)
				for i := 0; i < ns; i++ {
					s.Y[i] += w * (yBurn[i] - s.Y[i])
				}
			}
		}
	}

	return &Problem{
		Config:  cfg,
		Initial: initial,
		YFuel:   yFuel,
		YOx:     yOx,
	}, nil
}

// BunsenCase holds the table-1 parameters of one premixed case.
type BunsenCase struct {
	Name      string
	SlotWidth float64 // h
	DomainHx  float64 // streamwise extent in slot widths
	UJet      float64
	UCoflow   float64
	UPrimeSL  float64 // u′/S_L (3, 6, 10 in the paper)
	LtDeltaL  float64 // l_t/δ_L
	// Paper-reported targets for comparison in EXPERIMENTS.md.
	PaperReT, PaperKa, PaperDa float64
}

// BunsenCases returns the three table-1 cases.
func BunsenCases() map[byte]BunsenCase {
	return map[byte]BunsenCase{
		'A': {Name: "A", SlotWidth: 1.2e-3, DomainHx: 12, UJet: 60, UCoflow: 15,
			UPrimeSL: 3, LtDeltaL: 0.7, PaperReT: 40, PaperKa: 100, PaperDa: 0.23},
		'B': {Name: "B", SlotWidth: 1.2e-3, DomainHx: 20, UJet: 100, UCoflow: 25,
			UPrimeSL: 6, LtDeltaL: 1.0, PaperReT: 75, PaperKa: 100, PaperDa: 0.17},
		'C': {Name: "C", SlotWidth: 1.8e-3, DomainHx: 20, UJet: 100, UCoflow: 25,
			UPrimeSL: 10, LtDeltaL: 1.5, PaperReT: 250, PaperKa: 225, PaperDa: 0.15},
	}
}

// BunsenOptions scales the §7.2 configuration. The reactants are fixed at
// φ = 0.7 and 800 K; the laminar flame speed and thickness that set the
// turbulence scales are chosen per run (the paper's, or a 1-D solve's).
type BunsenOptions struct {
	Case       byte // 'A', 'B' or 'C'
	Nx, Ny, Nz int
	SL         float64 // laminar flame speed used to set u′ (0: paper's 1.8)
	DeltaL     float64 // laminar thickness for length scales (0: paper's 0.3 mm)
	Seed       int64
}

// The §7.2 reactants, and the scale on the table-1 jet, coflow and u′
// speeds that keeps the laptop-scale grids stable.
const (
	bunsenPhi           float64 = 0.7
	bunsenTReactants    float64 = 800 // K
	bunsenVelocityScale float64 = 0.5
)

// BunsenProblem builds one of the premixed slot-Bunsen cases: a central
// premixed CH4/air jet at 800 K, φ = 0.7, surrounded by a laminar coflow of
// its own adiabatic combustion products (the pilot of §7.2).
func BunsenProblem(o BunsenOptions) (*Problem, error) {
	cs, ok := BunsenCases()[o.Case]
	if !ok {
		return nil, fmt.Errorf("s3d: unknown Bunsen case %q (want A, B or C)", o.Case)
	}
	if o.SL == 0 {
		o.SL = 1.8
	}
	if o.DeltaL == 0 {
		o.DeltaL = 0.3e-3
	}

	mech := MethaneAirSkeletal()
	ns := mech.NumSpecies()
	yU, err := mech.PremixedMixture(bunsenPhi)
	if err != nil {
		return nil, err
	}
	tb, yB, err := mech.Equilibrium(bunsenTReactants, 101325, yU)
	if err != nil {
		return nil, fmt.Errorf("s3d: coflow equilibrium: %v", err)
	}

	h := cs.SlotWidth
	lx := cs.DomainHx * h
	ly := 12 * h
	lz := 3 * h
	uJet := cs.UJet * bunsenVelocityScale
	uCo := cs.UCoflow * bunsenVelocityScale
	uPrime := cs.UPrimeSL * o.SL * bunsenVelocityScale
	lt := cs.LtDeltaL * o.DeltaL

	shear := h / 8
	tfield := turb.NewField(turb.Spectrum{Urms: uPrime, L0: lt * 4}, 200, o.Seed+7)
	profile := func(y float64) float64 {
		return 0.5 * (math.Tanh((y+h/2)/shear) - math.Tanh((y-h/2)/shear))
	}
	blendState := func(y, z, t float64, s *State) {
		f := profile(y)
		s.U = uCo + (uJet-uCo)*f
		s.V, s.W = 0, 0
		s.T = tb + (bunsenTReactants-tb)*f
		for i := 0; i < ns; i++ {
			s.Y[i] = yB[i] + (yU[i]-yB[i])*f
		}
		if f > 0.05 {
			du, dv, dw := tfield.Sweep(y, z, t, uJet)
			s.U += du * f
			s.V += dv * f
			s.W += dw * f
		}
	}

	cfg := Config{
		Mechanism:   mech,
		Grid:        GridSpec{Nx: o.Nx, Ny: o.Ny, Nz: o.Nz, Lx: lx, Ly: ly, Lz: lz},
		Pressure:    101325,
		FilterEvery: 5,
		Inflow:      blendState,
	}
	cfg.BC[0][0] = Inflow
	cfg.BC[0][1] = Outflow
	cfg.BC[1][0] = Outflow
	cfg.BC[1][1] = Outflow

	initial := func(x, y, z float64, s *State) {
		blendState(y-ly/2, z, 0, s)
		// Anchor the flame on the jet flanks (the Bunsen-cone flame sheets):
		// the shear layers blend toward products with downstream distance
		// while the reactant core survives, so a c-gradient flame surface
		// spans the whole domain from the start ("the flame is initially
		// planar at the inlet" and wrinkles downstream, §7.3).
		f := profile(y - ly/2)
		prog := 1 - math.Exp(-x/(2*h))
		w := 4 * f * (1 - f) * prog * 0.95
		if w > 0.95 {
			w = 0.95
		}
		s.T += w * (tb - s.T)
		for i := 0; i < ns; i++ {
			s.Y[i] += w * (yB[i] - s.Y[i])
		}
	}

	return &Problem{Config: cfg, Initial: initial, YFuel: yU, YOx: yB}, nil
}
