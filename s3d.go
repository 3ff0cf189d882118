// Package s3d is a Go reproduction of S3D, the massively parallel direct
// numerical simulation (DNS) solver for turbulent combustion described in
// J H Chen et al., "Terascale direct numerical simulations of turbulent
// combustion using S3D" (the SC 2006 case study; archival version in
// Computational Science & Discovery 2, 2009).
//
// The package solves the fully compressible reacting Navier–Stokes
// equations with detailed chemistry and mixture-averaged transport on
// structured Cartesian meshes, using eighth-order central differences, a
// tenth-order filter, a six-stage fourth-order low-storage Runge–Kutta
// integrator and Navier–Stokes characteristic boundary conditions, over a
// three-dimensional domain decomposition with nearest-neighbour ghost
// exchange.
//
// This root package is the public API. The quickest path:
//
//	mech := s3d.HydrogenAir()
//	sim, err := s3d.New(s3d.Config{
//		Mechanism: mech,
//		Grid:      s3d.GridSpec{Nx: 64, Ny: 64, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01},
//		Pressure:  101325,
//	})
//	sim.SetInitial(func(x, y, z float64, s *s3d.State) { ... })
//	sim.Advance(100, sim.StableDt())
//	T, dims := sim.Field("T")
//
// The subsystems reproduced from the paper (performance modelling,
// parallel-I/O study, visualization, workflow automation) live in the
// internal packages and are exercised by the cmd/ tools and the benchmark
// harness; see DESIGN.md for the full inventory.
package s3d

import (
	"fmt"
	"io"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/flame1d"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/reactor"
	"github.com/s3dgo/s3d/internal/solver"
	"github.com/s3dgo/s3d/internal/stats"
	"github.com/s3dgo/s3d/internal/transport"
)

// SetWorkers sizes the process-wide worker pool that executes the tiled
// solver kernels (see DESIGN.md, "Node-level parallel execution"). n <= 0
// selects runtime.NumCPU(). The pool is shared by every simulation in the
// process — including all in-process ranks of RunDecomposed, which divide
// it fairly rather than oversubscribing the node. Call before New or
// RunDecomposed; resizing tears down the previous pool once its blocks are
// idle. Solutions are bitwise independent of the worker count.
func SetWorkers(n int) { par.SetDefaultWorkers(n) }

// Workers reports the size of the process-wide kernel worker pool.
func Workers() int { return par.DefaultWorkers() }

// Backend returns "generic".
//
// Deprecated: PR 14 deleted the kernel backends (one kernel path). The
// function remains only because the frozen benchmark/probes.go calls it.
func Backend() string { return "generic" }

// Precision returns "strict".
//
// Deprecated: PR 14 deleted the float32 storage policy. The function
// remains only because the frozen benchmark/probes.go calls it.
func Precision() string { return "strict" }

// Mechanism bundles a chemical mechanism with its thermodynamic and
// transport data, playing the role of the CHEMKIN/TRANSPORT linkage of the
// original code.
type Mechanism struct {
	chem  *chem.Mechanism
	trans *transport.Model
}

// HydrogenAir returns the detailed H2/air mechanism (9 species, 21 steps)
// used for the lifted-flame study of paper §6.
func HydrogenAir() *Mechanism { return wrapMech(chem.H2Air()) }

// MethaneAirSkeletal returns the skeletal CH4/air mechanism (14 species)
// used for the premixed Bunsen study of paper §7.
func MethaneAirSkeletal() *Mechanism { return wrapMech(chem.CH4Skeletal()) }

// ParseMechanism loads a mechanism from CHEMKIN-like text; species must
// exist in the built-in thermodynamic database.
func ParseMechanism(name, text string) (*Mechanism, error) {
	m, err := chem.Parse(name, text)
	if err != nil {
		return nil, err
	}
	return wrapMech(m), nil
}

func wrapMech(m *chem.Mechanism) *Mechanism {
	return &Mechanism{chem: m, trans: transport.MustNew(m.Set)}
}

// Species returns the species names in state-vector order.
func (m *Mechanism) Species() []string {
	out := make([]string, m.chem.NumSpecies())
	for i, sp := range m.chem.Set.Species {
		out[i] = sp.Name
	}
	return out
}

// SpeciesIndex returns the index of a species name, or -1.
func (m *Mechanism) SpeciesIndex(name string) int { return m.chem.Set.Index(name) }

// NumSpecies returns the species count.
func (m *Mechanism) NumSpecies() int { return m.chem.NumSpecies() }

// PremixedMixture returns unburnt fuel/air mass fractions at equivalence
// ratio phi (fuel = CH4 or H2 depending on the mechanism).
func (m *Mechanism) PremixedMixture(phi float64) ([]float64, error) {
	return flame1d.PremixedMixture(m.chem, phi)
}

// IgnitionDelay integrates an adiabatic constant-pressure reactor and
// returns the time of maximum heating rate (NaN if the mixture does not
// ignite within tMax).
func (m *Mechanism) IgnitionDelay(T, p float64, Y []float64, tMax float64) (float64, error) {
	tau, _, err := reactor.IgnitionDelay(m.chem, T, p, Y, tMax)
	return tau, err
}

// Equilibrium returns the adiabatic complete-combustion product state
// (temperature and composition) of the mixture — the coflow composition of
// the Bunsen configuration.
func (m *Mechanism) Equilibrium(T, p float64, Y []float64) (Tb float64, Yb []float64, err error) {
	st, err := reactor.EquilibrateAdiabatic(m.chem, T, p, Y)
	if err != nil {
		return 0, nil, err
	}
	return st.T, st.Y, nil
}

// LaminarFlame solves the unstrained 1-D premixed flame (the PREMIX
// reference of paper §7.2) and returns its properties.
type LaminarFlame struct {
	SL, DeltaL, DeltaH, TauF, Tburnt float64
}

// LaminarFlame computes S_L, δ_L, δ_H and τ_f for the unburnt state.
func (m *Mechanism) LaminarFlame(Tu, p float64, Yu []float64) (LaminarFlame, error) {
	props, err := flame1d.Solve(flame1d.Config{Mech: m.chem, Tu: Tu, P: p, Yu: Yu})
	if err != nil {
		return LaminarFlame{}, err
	}
	return LaminarFlame{
		SL: props.SL, DeltaL: props.DeltaL, DeltaH: props.DeltaH,
		TauF: props.TauF, Tburnt: props.Tburnt,
	}, nil
}

// GridSpec describes the mesh (paper §2.6: uniform streamwise/spanwise,
// optionally algebraically stretched transverse direction).
type GridSpec struct {
	Nx, Ny, Nz int
	Lx, Ly, Lz float64
	StretchY   bool
	Beta       float64
}

// BC selects a boundary treatment for one face.
type BC int

// Boundary-condition kinds (see paper §2.6).
const (
	Periodic BC = iota
	Inflow      // non-reflecting characteristic inflow (needs Config.Inflow)
	Outflow     // non-reflecting characteristic outflow
)

// State is a primitive flow state at a point: velocity, temperature and
// composition.
type State = solver.InflowState

// Config assembles a simulation.
type Config struct {
	Mechanism *Mechanism
	Grid      GridSpec

	// BC[axis][side] with side 0 = low face; defaults to fully periodic.
	BC [3][2]BC
	// Inflow supplies the target state at characteristic inflow faces as a
	// function of transverse position and time. It must set every member
	// of s — U, V, W, T and every Y — on every call.
	Inflow func(y, z, t float64, s *State)

	Pressure float64 // ambient/far-field pressure (Pa)

	FilterEvery    int     // apply the 10th-order filter every N steps (0: off)
	FilterStrength float64 // 0 selects full strength
	CFL            float64 // 0 selects 0.8

	// ChemistryOff runs inert (pressure-wave tests, kernel studies).
	ChemistryOff bool
	// OptimizedDiffFlux accepts only false; true is an error from New.
	//
	// Deprecated: the RHS has one diffusive-flux form. The field remains
	// only because the frozen benchmark/probes.go names it.
	OptimizedDiffFlux bool
	// ConstLewis, when positive, replaces mixture-averaged diffusion by the
	// constant-Lewis-number model (an ablation of the paper's transport).
	ConstLewis float64

	// Backend accepts only "" or "generic"; any other value is an error
	// from New and RunDecomposed.
	//
	// Deprecated: PR 14 deleted the kernel backends (one kernel path). The
	// field remains only because the frozen benchmark/probes.go names it.
	Backend string
	// Precision accepts only "" or "strict"; any other value is an error
	// from New and RunDecomposed.
	//
	// Deprecated: PR 14 deleted the float32 storage policy. The field
	// remains only because the frozen benchmark/probes.go names it.
	Precision string
}

func (c *Config) toSolver() (*solver.Config, error) {
	if c.Mechanism == nil {
		return nil, fmt.Errorf("s3d: config requires a Mechanism")
	}
	if c.Pressure <= 0 {
		return nil, fmt.Errorf("s3d: config requires a positive Pressure")
	}
	if g := c.Grid; g.Nx <= 0 || g.Ny <= 0 || g.Nz <= 0 || g.Lx <= 0 || g.Ly <= 0 || g.Lz <= 0 {
		return nil, fmt.Errorf("s3d: grid %dx%dx%d points over %gx%gx%g m: every count and extent must be positive",
			g.Nx, g.Ny, g.Nz, g.Lx, g.Ly, g.Lz)
	}
	sc := &solver.Config{
		Mech:  c.Mechanism.chem,
		Trans: c.Mechanism.trans,
		Grid: grid.New(grid.Spec{
			Nx: c.Grid.Nx, Ny: c.Grid.Ny, Nz: c.Grid.Nz,
			Lx: c.Grid.Lx, Ly: c.Grid.Ly, Lz: c.Grid.Lz,
			StretchY: c.Grid.StretchY, Beta: c.Grid.Beta,
		}),
		PInf:           c.Pressure,
		FilterEvery:    c.FilterEvery,
		FilterStrength: c.FilterStrength,
		CFL:            c.CFL,
		ChemistryOff:   c.ChemistryOff,
		ConstLewis:     c.ConstLewis,
		Backend:        c.Backend,
		Precision:      c.Precision,
	}
	if c.OptimizedDiffFlux {
		return nil, fmt.Errorf("s3d: Config.OptimizedDiffFlux: the RHS has one diffusive-flux form; only false is accepted")
	}
	for a := 0; a < 3; a++ {
		for s := 0; s < 2; s++ {
			switch c.BC[a][s] {
			case Periodic:
				sc.BC[a][s] = solver.Periodic
			case Inflow:
				sc.BC[a][s] = solver.InflowNSCBC
			case Outflow:
				sc.BC[a][s] = solver.OutflowNSCBC
			}
		}
	}
	if c.Inflow != nil {
		sc.Inflow = solver.InflowFunc(c.Inflow)
	}
	return sc, nil
}

// Simulation is a running DNS (one block: the whole of a one-rank run from
// New, or one rank's share inside RunDecomposed's MPI-style execution).
type Simulation struct {
	blk       *solver.Block
	mech      *Mechanism
	cfg       *Config
	healthOpt *HealthOptions // set by EnableHealth (see health.go)
	probe     *Probe         // set by StartTelemetry, cleared by its Close
}

// New builds a serial simulation.
func New(cfg Config) (*Simulation, error) {
	sc, err := cfg.toSolver()
	if err != nil {
		return nil, err
	}
	blk, err := solver.NewSerial(sc)
	if err != nil {
		return nil, err
	}
	return &Simulation{blk: blk, mech: cfg.Mechanism, cfg: &cfg}, nil
}

// SetInitial initialises the field from a primitive-state profile at
// ambient pressure; pFn (optional) overrides the pressure pointwise.
func (s *Simulation) SetInitial(fn func(x, y, z float64, st *State), pFn func(x, y, z float64) float64) {
	s.blk.SetState(fn, pFn)
	s.blk.RefreshPrimitives()
}

// StableDt returns the acoustic-CFL stable time step for the current state,
// reduced across all ranks of the run. Collective: in a decomposed run every
// rank must call it at the same point.
func (s *Simulation) StableDt() float64 {
	s.blk.RefreshPrimitives()
	return s.blk.GlobalDt()
}

// StableDtGlobal is StableDt.
//
// Deprecated: a serial run is a one-rank decomposition, so there is one
// stable step. The name remains only because the frozen benchmark/ calls it.
func (s *Simulation) StableDtGlobal() float64 { return s.StableDt() }

// Advance integrates n steps of size dt. It is TryAdvance with the solver's
// historical contract: a health violation panics.
func (s *Simulation) Advance(n int, dt float64) {
	if err := s.TryAdvance(n, dt); err != nil {
		panic(err)
	}
}

// Step returns the completed step count; Time the physical time (s).
func (s *Simulation) Step() int { return s.blk.Step }

// Time returns the simulated physical time in seconds.
func (s *Simulation) Time() float64 { return s.blk.Time }

// Dims returns the interior mesh extents.
func (s *Simulation) Dims() (nx, ny, nz int) {
	return s.blk.G.Nx, s.blk.G.Ny, s.blk.G.Nz
}

// Coords returns the physical coordinates of the mesh lines.
func (s *Simulation) Coords() (x, y, z []float64) {
	return s.blk.G.Xc, s.blk.G.Yc, s.blk.G.Zc
}

// Field extracts a named field over the interior, flattened x-fastest,
// together with its dims. Names resolve through the solver's field
// registry — "rho", "u", "v", "w", "T", "p", "Y_<species>" (e.g. "Y_OH")
// and every other registered field (see Fields for the inventory) — plus
// the derived "hrr" (heat release rate, W/m³).
func (s *Simulation) Field(name string) ([]float64, [3]int, error) {
	nx, ny, nz := s.Dims()
	dims := [3]int{nx, ny, nz}
	if name == "hrr" {
		return s.heatRelease(), dims, nil
	}
	f := s.blk.FieldByName(name)
	if f == nil {
		return nil, dims, fmt.Errorf("s3d: unknown field %q", name)
	}
	out := make([]float64, 0, nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			out = append(out, f.Row(j, k)...)
		}
	}
	return out, dims, nil
}

// heatRelease evaluates −Σ ω̇ᵢhᵢ over the interior with the solver's
// chemistry rows.
func (s *Simulation) heatRelease() []float64 {
	nx, ny, nz := s.Dims()
	out := make([]float64, nx*ny*nz)
	s.blk.HeatReleaseField(out)
	return out
}

// MinMax returns the interior extrema of a named field (the paper's
// min/max monitoring quantities). A registered field is scanned in place
// (grid.Field3.MinMax); only the derived "hrr" is materialised first.
func (s *Simulation) MinMax(name string) (lo, hi float64, err error) {
	if name == "hrr" {
		data := s.heatRelease()
		lo, hi = data[0], data[0]
		for _, v := range data {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi, nil
	}
	f := s.blk.FieldByName(name)
	if f == nil {
		return 0, 0, fmt.Errorf("s3d: unknown field %q", name)
	}
	lo, hi = f.MinMax()
	return lo, hi, nil
}

// SaveCheckpoint writes a restart file: the full conserved state plus time
// bookkeeping, sufficient to continue the run bit-exactly (the restart
// files of paper §9).
func (s *Simulation) SaveCheckpoint(w io.Writer) error { return s.blk.SaveCheckpoint(w) }

// LoadCheckpoint restores a restart file into a simulation built with the
// same configuration.
func (s *Simulation) LoadCheckpoint(r io.Reader) error {
	if err := s.blk.LoadCheckpoint(r); err != nil {
		return err
	}
	s.blk.RefreshPrimitives()
	return nil
}

// MixtureFraction returns a Bilger mixture-fraction evaluator for the two
// stream compositions (figure 11's ξ axis).
func (s *Simulation) MixtureFraction(yFuel, yOx []float64) *stats.Bilger {
	return stats.NewBilger(s.mech.chem.Set, yFuel, yOx)
}

// RankSim is the per-rank view inside a decomposed run.
type RankSim struct {
	*Simulation
	Rank       int
	Offset     [3]int // global offset of this rank's block
	GlobalDims [3]int
}

// RunDecomposed executes the configuration over a dims[0]×dims[1]×dims[2]
// rank grid (the 3-D domain decomposition of paper §2.6), calling body on
// every rank concurrently. It returns the first rank error.
func RunDecomposed(cfg Config, dims [3]int, body func(r *RankSim)) error {
	sc, err := cfg.toSolver()
	if err != nil {
		return err
	}
	return solver.RunParallel(sc, dims, func(blk *solver.Block) {
		i0, j0, k0 := blk.GlobalOffset()
		body(&RankSim{
			Simulation: &Simulation{blk: blk, mech: cfg.Mechanism, cfg: &cfg},
			Rank:       blk.Rank(),
			Offset:     [3]int{i0, j0, k0},
			GlobalDims: [3]int{cfg.Grid.Nx, cfg.Grid.Ny, cfg.Grid.Nz},
		})
	})
}
