// Package solver implements the S3D core: the fully compressible reacting
// Navier–Stokes equations in conservative form (paper eqs. 1–4) on a
// structured Cartesian mesh, discretised with eighth-order central
// differences and a tenth-order filter (§2.6), advanced by a six-stage
// fourth-order low-storage Runge–Kutta scheme, with detailed chemistry,
// mixture-averaged transport and Navier–Stokes characteristic boundary
// conditions (NSCBC). The domain is decomposed into equal blocks over a 3-D
// Cartesian process topology with nearest-neighbour ghost-zone exchange.
package solver

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/cost"
	"github.com/s3dgo/s3d/internal/critpath"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/insitu"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
	"github.com/s3dgo/s3d/internal/transport"
)

// BCType selects the physical boundary treatment of one domain face.
type BCType int

// Boundary-condition kinds. The jet configurations of the paper use a
// non-reflecting characteristic inflow at x-min, non-reflecting outflows at
// x-max and the y faces, and a periodic spanwise z direction.
const (
	Periodic BCType = iota
	InflowNSCBC
	OutflowNSCBC
)

// InflowState is the target state a characteristic inflow relaxes toward.
type InflowState struct {
	U, V, W float64
	T       float64
	Y       []float64
}

// InflowFunc returns the inflow target at transverse position (y, z) and
// time t. It must set every member of target — U, V, W, T and every Yₙ:
// the target is a worker's scratch, holding whatever the previous call at
// any face point left. The returned Y slice must have species length and
// sum to one.
// The boundary planes run tiled over the worker pool, so the function may
// be called concurrently for different (y, z) points; it must be safe for
// concurrent use (pure functions of their arguments qualify, as do closures
// over data that is read-only during the run).
type InflowFunc func(y, z, t float64, target *InflowState)

// DiffFluxKernel is the type of Config.DiffFlux.
//
// Deprecated: the RHS has one diffusive-flux form. The type remains only
// because the frozen benchmark/probes.go names it.
type DiffFluxKernel int

// DiffFluxOptimized is the zero value of DiffFluxKernel, the one accepted.
//
// Deprecated: see DiffFluxKernel.
const DiffFluxOptimized DiffFluxKernel = 0

// Config assembles a simulation.
type Config struct {
	Mech  *chem.Mechanism
	Trans *transport.Model
	Grid  *grid.Grid // global grid

	// BC[axis][side]: side 0 = low, 1 = high. Periodic axes must be
	// periodic on both sides.
	BC [3][2]BCType

	Inflow InflowFunc // required when any face is InflowNSCBC
	PInf   float64    // far-field pressure for outflow relaxation (Pa)

	// FilterEvery applies the tenth-order filter every N steps (0 disables;
	// S3D filters periodically to remove spurious high-frequency content).
	FilterEvery    int
	FilterStrength float64 // σ in (0,1]; 0 selects 1.0

	CFL          float64 // acoustic CFL number; 0 selects 0.8 (Block.CFL)
	ChemistryOff bool    // inert runs (pressure-wave tests, figure 4/5 kernel study)

	// Deprecated: DiffFlux accepts only its zero value (see DiffFluxKernel).
	DiffFlux DiffFluxKernel

	// Backend accepts only "" or "generic"; any other value is a
	// construction error.
	//
	// Deprecated: PR 14 deleted the kernel backends (one kernel path). The
	// field remains only because the frozen benchmark/probes.go names it.
	Backend string

	// Precision accepts only "" or "strict"; any other value is a
	// construction error.
	//
	// Deprecated: PR 14 deleted the float32 storage policy. The field
	// remains only because the frozen benchmark/probes.go names it.
	Precision string

	// ConstLewis, when positive, replaces the mixture-averaged diffusion
	// coefficients by the constant-Lewis-number model Dᵢ = λ/(ρ·cp·Le) —
	// the classical simplification the paper's mixture-averaged transport
	// improves upon (an ablation: it suppresses the differential diffusion
	// of light species like H and H2 that drives the lean-ignition finding
	// of §6.3).
	ConstLewis float64

	// Pool is the worker pool the block's kernels are scheduled on; nil
	// selects the process-wide default (par.Default, sized by the drivers'
	// -workers flag). All in-process ranks of a decomposed run normally
	// share one pool so the worker budget is divided fairly. Tests and
	// benchmarks pass dedicated pools to pin the worker count.
	Pool *par.Pool
}

// nVar returns the number of conserved variables: ρ, ρu, ρv, ρw, ρe₀ and
// Ns−1 species partial densities (the last species is recovered from
// ΣYᵢ = 1, paper eq. 6).
func (c *Config) nVar() int { return 5 + c.Mech.NumSpecies() - 1 }

// Conserved-variable indices.
const (
	iRho  = 0
	iRhoU = 1
	iRhoV = 2
	iRhoW = 3
	iRhoE = 4
	iY0   = 5 // first species partial density
)

// Block is the state owned by one rank: a subdomain with ghost layers, the
// conserved and primitive fields, transport properties and scratch space.
// A serial run is the one block of a one-rank topology.
type Block struct {
	cfg  *Config
	G    *grid.Grid // local grid
	mech *chem.Mechanism

	// fs is the block's field registry: every Field3 below is carved from
	// its contiguous arena, in registration order (see registerFields).
	// Consumers resolve fields by registered name or halo group; the named
	// struct fields are hoisted views into the same storage.
	fs *grid.FieldSet

	cart *comm.Cart
	// offset of the local block in the global grid
	i0, j0, k0 int

	ns, nvar int

	// active lists, ascending, the axes with more than one point. A
	// one-point axis has no derivative, so the block registers no flux field
	// along it and no sweep visits it; flux holds nil there.
	active []int

	// Q and dQ are the RK 2N registers of conserved fields.
	Q, dQ []*grid.Field3
	// rhs receives the time derivative each stage.
	rhs []*grid.Field3

	// Primitive fields. computePrimitives writes them on the interior alone;
	// the primitive halo exchange then copies the gradSrc members into the
	// ghost face slabs of connected faces (never edge/corner ghosts). ρ and p
	// are not exchanged: their ghost cells hold no valid data.
	Rho, U, V, W, T, P, Wmix *grid.Field3
	Y                        []*grid.Field3

	// diffMax is max(μ/ρ, maxₙ Dₙ) per interior point for the watchdog,
	// stored by the final RK stage's flux rows when diffDue is set.
	diffMax *grid.Field3

	// Total fluxes flux[var][dir] (active directions only). Derivatives and
	// diffusive fluxes live in worker row scratch (see assembleFluxes).
	flux [][3]*grid.Field3

	// gradSrc = {U, V, W, T, Wmix, Y…} — the registry halo group
	// "primitive" — are the fields the flux stage differentiates along every
	// active axis and normalSrc = {ρ, p, U, V, W, Y…} those the NSCBC planes
	// differentiate along the face normal (one-sided at a physical face), each
	// list in the order of its destination rows in rowScratch.
	gradSrc, normalSrc []*grid.Field3

	// Per-face boundary condition resolved for this block: interior faces
	// (with a neighbouring rank) behave like UseGhosts.
	faceBC    [3][2]BCType
	interiorF [3][2]bool // true when the face adjoins another rank
	// nscbc: some face of the block is a physical NSCBC face (nscbcFace),
	// decided at construction; without one finishRHS clocks no NSCBC part.
	nscbc bool

	// ghostValid[axis] reports whether ghost layers along the axis hold
	// valid data (periodic wrap or halo exchange); when false, one-sided
	// stencils are used at that face.
	loGhost, hiGhost [3]bool

	// plan schedules the block's kernels over the worker pool; ws holds the
	// per-worker scratch (indexed by the worker id the plan passes to each
	// tile closure), including per-worker clones of the stateful chemistry
	// and transport models.
	plan *par.Plan
	ws   []kernScratch

	// dtSlots holds the AcousticDt sweep's per-tile largest speeds, in
	// tile order.
	dtSlots []float64

	// Per-axis halo-exchange field lists — the members of the registry groups
	// "conserved", "primitive" and "flux" by the axis they travel along, see
	// halo.go: the conserved registers (the filter's exchange) and the
	// primitive group (the RHS's first exchange) along every active axis,
	// flux[v][a] along a alone. List order is registration order, which
	// fixes the packed-slab message layout.
	haloQ, haloPrim, haloFlux haloLists

	// haloBuf holds the four slab buffers of an axis exchange (recv lo/hi,
	// send lo/hi), grown on demand and reused across steps.
	haloBuf [4][]float64

	// slab is the wrap, pack or unpack the pool is running and wrapItem,
	// packItem, unpackItem its item functions, bound once (halo.go).
	slab                           slabJob
	wrapItem, packItem, unpackItem func(item, worker int)

	Timers *perf.Timers
	Step   int
	Time   float64

	// Telemetry (see telemetry.go). StageWall holds the wall-clock seconds
	// of each RK stage of the most recent StepOnce.
	StageWall   []float64
	profT       *prof.Track // call-path profiler track (see region.go); may stay nil
	telemetryOn bool
	collectHRR  bool         // true during the final RK stage when telemetry is on
	diffDue     bool         // true during the final RK stage when the watchdog is armed
	hrrAcc      float64      // heat-release integral of the last step (W)
	hrrSlots    []float64    // its per-tile partial sums, in tile order
	volW        [3][]float64 // per-axis quadrature widths (see cellVol)

	// Run-health watchdog (see health.go). watch may stay nil; the only
	// per-step cost of a disarmed watchdog is one atomic load. Tiled
	// kernels record the first would-be panic into fault under faultMu;
	// the owner reads it lock-free after the kernel's WaitGroup barrier.
	watch   *health.Watchdog
	faultMu sync.Mutex
	fault   *health.Violation
	inStep  bool // true while StepChecked is advancing (fault step index)
	inj     *nanInjection
	// fold is the end-of-step fold's row followed by the step-end sweep's
	// per-tile rows in tile order (see stepEndRow).
	fold []float64

	// In-situ analysis pipeline (see analysis.go). analysis may stay nil;
	// a disabled pipeline costs StepChecked one atomic load per step.
	analysis *insitu.Pipeline
	aDue     bool // this step's fold carries the analysis products

	// Cost-attribution sampler (see cost.go). costC may stay nil; a
	// disabled collector costs StepChecked one atomic load per step.
	costC       *cost.Collector
	cRegionBase []float64 // region-timer seconds at window open, per kernel
	costDue     bool      // this step ends in a cost record

	// Cross-rank wait-state and critical-path analyzer (see critpath.go in
	// this package). critA may stay nil; a disabled analyzer costs
	// StepChecked one atomic load per step. A due step arms the comm event
	// trace and ends in a deposit barrier at the shared analyzer.
	critA     *critpath.Analyzer
	critDue   bool  // this step ends in a critpath deposit
	critStart int64 // step-window open on the analyzer clock

	// stragglerDelay artificially slows this rank's chemistry (one sleep per
	// RK stage) — the injection hook for critpath validation.
	stragglerDelay time.Duration
}

// kernScratch is one worker's private scratch for the tiled kernels: the
// pointwise work arrays plus clones of the stateful chemistry and transport
// models (Mechanism and Model carry internal buffers and are not safe for
// concurrent use).
type kernScratch struct {
	yw, cw, hw []float64
	mech       *chem.Mechanism
	trans      *transport.Model

	// NSCBC per-point buffers (normalInviscidDeriv result and flux stencil).
	nvOut, nvFlux []float64
	// inflow target of the NSCBC faces
	tgt InflowState
	// x-row scratch of the pencil-fused flux stage and the NSCBC faces
	rows rowScratch
	// species row segments a pointwise sweep reads and writes, and the
	// primitives sweep's row scratch (primitives.go)
	yIn, yOut [][]float64
	prim      primRows
	clk       int64   // a fused sweep's charged-part ns (region.endCharged)
	hrr       float64 // the flux stage tile's heat-release integrand sum
}

// NewSerial builds a single-block (serial) simulation over the whole grid:
// rank 0 of a one-rank topology on the caller's goroutine, so a serial run
// takes the decomposed run's path — its periodic halo exchange finds the
// rank its own neighbour and wraps locally, its collectives return at once.
func NewSerial(cfg *Config) (*Block, error) {
	cart, err := comm.NewCart(comm.Self(), [3]int{1, 1, 1}, periodicAxes(cfg))
	if err != nil {
		return nil, err
	}
	return NewParallel(cfg, cart)
}

// periodicAxes returns the periodicity of the process topology, which
// follows the physical boundary conditions.
func periodicAxes(cfg *Config) [3]bool {
	return [3]bool{
		cfg.BC[0][0] == Periodic,
		cfg.BC[1][0] == Periodic,
		cfg.BC[2][0] == Periodic,
	}
}

// NewParallel builds the rank-local block for a decomposed run. The cart
// topology supplies the block's position; the global grid is split with
// comm.Decompose1D along each axis.
func NewParallel(cfg *Config, cart *comm.Cart) (*Block, error) {
	if err := CheckDecomposition(cfg, cart.Dims); err != nil {
		return nil, err
	}
	co := cart.Coords()
	i0, nx := comm.Decompose1D(cfg.Grid.Nx, cart.Dims[0], co[0])
	j0, ny := comm.Decompose1D(cfg.Grid.Ny, cart.Dims[1], co[1])
	k0, nz := comm.Decompose1D(cfg.Grid.Nz, cart.Dims[2], co[2])
	local := cfg.Grid.Sub(i0, nx, j0, ny, k0, nz)
	return newBlock(cfg, local, cart, i0, j0, k0), nil
}

// CheckDecomposition validates a configuration and the process grid it is
// to run on. NewParallel applies it on every rank; callers that start their
// own world (RunParallel, the root package's RunDecomposed) apply it before
// any rank starts, so a bad layout is an ordinary error instead of a panic
// recovered on every rank.
func CheckDecomposition(cfg *Config, dims [3]int) error {
	if err := validate(cfg); err != nil {
		return err
	}
	return validateDecomposition(cfg.Grid, dims)
}

// validateDecomposition rejects a process grid that cuts an axis into
// pieces thinner than the halo: a rank fills its neighbour's grid.Ghost
// ghost planes from its own interior, so every rank on a cut axis needs at
// least that many points. The check uses the global grid and the process
// grid alone, so every rank reaches the same verdict.
func validateDecomposition(g *grid.Grid, dims [3]int) error {
	for a := 0; a < 3; a++ {
		n := g.Dim(grid.Axis(a))
		if dims[a] < 1 {
			return fmt.Errorf("solver: process grid %v: axis %s needs at least one rank", dims, grid.Axis(a))
		}
		if dims[a] > 1 && n/dims[a] < grid.Ghost {
			return fmt.Errorf("solver: process grid %v: axis %s has %d points, %d on its thinnest rank; "+
				"a cut axis needs at least %d per rank (the halo width), so at most %d ranks",
				dims, grid.Axis(a), n, n/dims[a], grid.Ghost, max(1, n/grid.Ghost))
		}
	}
	return nil
}

func validate(cfg *Config) error {
	if cfg.Mech == nil || cfg.Trans == nil || cfg.Grid == nil {
		return fmt.Errorf("solver: config requires Mech, Trans and Grid")
	}
	if cfg.Trans.Set != cfg.Mech.Set {
		return fmt.Errorf("solver: transport model and mechanism use different species sets")
	}
	for a := 0; a < 3; a++ {
		if (cfg.BC[a][0] == Periodic) != (cfg.BC[a][1] == Periodic) {
			return fmt.Errorf("solver: axis %d periodic on one side only", a)
		}
		// The one-sided closure at a physical face reaches four points in.
		if n := cfg.Grid.Dim(grid.Axis(a)); cfg.BC[a][0] != Periodic && n > 1 && n < 5 {
			return fmt.Errorf("solver: axis %s has %d points; a non-periodic axis needs one or at least 5 "+
				"(its one-sided boundary stencil reaches four points in)", grid.Axis(a), n)
		}
		hasInflow := cfg.BC[a][0] == InflowNSCBC || cfg.BC[a][1] == InflowNSCBC
		if hasInflow && cfg.Inflow == nil {
			return fmt.Errorf("solver: inflow BC requires Config.Inflow")
		}
	}
	if cfg.PInf <= 0 {
		outflow := false
		for a := 0; a < 3; a++ {
			for s := 0; s < 2; s++ {
				if cfg.BC[a][s] == OutflowNSCBC || cfg.BC[a][s] == InflowNSCBC {
					outflow = true
				}
			}
		}
		if outflow {
			return fmt.Errorf("solver: NSCBC boundaries require Config.PInf")
		}
	}
	if cfg.Backend != "" && cfg.Backend != "generic" {
		return fmt.Errorf("solver: Config.Backend %q: PR 14 deleted the kernel backends; only \"\" or \"generic\" is accepted", cfg.Backend)
	}
	if cfg.Precision != "" && cfg.Precision != "strict" {
		return fmt.Errorf("solver: Config.Precision %q: PR 14 deleted the float32 storage policy; only \"\" or \"strict\" is accepted", cfg.Precision)
	}
	if cfg.DiffFlux != DiffFluxOptimized {
		return fmt.Errorf("solver: Config.DiffFlux %d: the RHS has one diffusive-flux form; only 0 is accepted", cfg.DiffFlux)
	}
	return nil
}

func newBlock(cfg *Config, local *grid.Grid, cart *comm.Cart, i0, j0, k0 int) *Block {
	ns := cfg.Mech.NumSpecies()
	b := &Block{
		cfg: cfg, G: local,
		mech: cfg.Mech.Clone(),
		cart: cart,
		i0:   i0, j0: j0, k0: k0,
		ns: ns, nvar: cfg.nVar(),
		Timers: perf.NewTimersClock(prof.Now),
	}
	for a := 0; a < 3; a++ {
		if local.Dim(grid.Axis(a)) > 1 {
			b.active = append(b.active, a)
		}
	}
	b.registerFields()
	// T initial guess for Newton inversion.
	b.T.Fill(300)

	b.plan = par.NewPlan(cfg.Pool)
	b.bindHaloItems()
	b.ws = make([]kernScratch, b.plan.Workers())
	for w := range b.ws {
		b.ws[w] = kernScratch{
			yw: make([]float64, ns), cw: make([]float64, ns), hw: make([]float64, ns),
			mech:   cfg.Mech.Clone(),
			trans:  cfg.Trans.Clone(),
			nvOut:  make([]float64, b.nvar),
			nvFlux: make([]float64, b.nvar),
			tgt:    InflowState{Y: make([]float64, ns)},
			rows:   newRowScratch(local.Nx, ns, b.active),
			yIn:    make([][]float64, ns),
			yOut:   make([][]float64, ns),
			prim:   newPrimRows(local.Nx, ns),
		}
	}

	// Quadrature widths for volume integrals: the global line's, sliced to
	// the block, so a rank interface carries the serial weight. Built here
	// so the tiled chemistry kernel never races a lazy initialisation.
	g := cfg.Grid
	for a, line := range [3][]float64{g.Xc, g.Yc, g.Zc} {
		w := lineWidths(line, [3]float64{g.Lx, g.Ly, g.Lz}[a], cfg.BC[a][0] == Periodic)
		lo := [3]int{i0, j0, k0}[a]
		b.volW[a] = w[lo : lo+local.Dim(grid.Axis(a))]
	}

	// Resolve per-face treatment.
	for a := 0; a < 3; a++ {
		for s := 0; s < 2; s++ {
			b.faceBC[a][s] = cfg.BC[a][s]
		}
	}
	for a := 0; a < 3; a++ {
		b.interiorF[a][0] = !cart.OnLowBoundary(a)
		b.interiorF[a][1] = !cart.OnHighBoundary(a)
		perio := cfg.BC[a][0] == Periodic
		b.loGhost[a] = perio || b.interiorF[a][0]
		b.hiGhost[a] = perio || b.interiorF[a][1]
	}
	for _, a := range b.active {
		b.nscbc = b.nscbc || b.nscbcFace(a, 0) || b.nscbcFace(a, 1)
	}
	b.hrrSlots = make([]float64, b.plan.Slots(b.interior()))
	return b
}

// haloGroupConserved, haloGroupPrimitive and haloGroupFlux name the three
// registry halo groups: the conserved state the filter exchanges before each
// pass, the primitives the flux stage differentiates, exchanged once their
// owner has recovered them, and the assembled fluxes exchanged before the
// divergence.
const (
	haloGroupConserved = "conserved"
	haloGroupPrimitive = "primitive"
	haloGroupFlux      = "flux"
)

// conservedNames returns the stable conserved-register names in variable
// order: ρ, momentum, total energy, then the Ns−1 transported partial
// densities. These double as the on-disk checkpoint variable names (the
// restart-file ABI) and as the quantity names in health violations.
func (b *Block) conservedNames() []string {
	names := []string{"rho", "rhou", "rhov", "rhow", "rhoE"}
	for n := 0; n < b.ns-1; n++ {
		names = append(names, "rhoY_"+b.mech.Set.Species[n].Name)
	}
	return names
}

// registerFields declares every field of the block in the registry and
// carves their storage from one arena. Registration order is ABI:
//
//   - Q, dQ and rhs come first, nvar registers each; their order is pinned
//     by the name inventory (registryNamesHash3D) and the checkpoint order,
//     not by the RK update, which sweeps each register's interior rows;
//   - the flux components follow in (var, dir) order, fixing the packed
//     field-major layout of the flux halo-exchange messages;
//   - the per-direction fields — the fluxes, the one family the RHS stores —
//     exist for the active axes only; the names and order are pinned
//     (TestRegistryActiveAxes);
//   - checkpoint inclusion (Ckpt) follows registration order, pinning the
//     on-disk variable order to Q then T_guess — the pre-registry layout,
//     so old restart files keep loading.
//
// Primitive, transport and scratch fields carry the names the viz/in-situ
// pickers resolve ("rho", "u", "T", "Y_OH", …).
func (b *Block) registerFields() {
	ns := b.ns
	fs := grid.NewFieldSet(b.G.Nx, b.G.Ny, b.G.Nz, grid.Ghost)
	b.fs = fs

	qNames := b.conservedNames()
	spOf := func(v int) int {
		if v >= iY0 {
			return v - iY0
		}
		return -1
	}
	dir := [3]string{"x", "y", "z"}

	qID := make([]int, b.nvar)
	dqID := make([]int, b.nvar)
	rhsID := make([]int, b.nvar)
	for v := 0; v < b.nvar; v++ {
		qID[v] = fs.Register(grid.FieldMeta{Name: "Q_" + qNames[v], Role: grid.RoleConserved,
			Species: spOf(v), Group: haloGroupConserved, Ckpt: qNames[v]})
	}
	for v := 0; v < b.nvar; v++ {
		dqID[v] = fs.Register(grid.FieldMeta{Name: "dQ_" + qNames[v], Role: grid.RoleRegister, Species: spOf(v)})
	}
	for v := 0; v < b.nvar; v++ {
		rhsID[v] = fs.Register(grid.FieldMeta{Name: "rhs_" + qNames[v], Role: grid.RoleRegister, Species: spOf(v)})
	}
	fluxID := make([][3]int, b.nvar)
	for v := 0; v < b.nvar; v++ {
		for _, d := range b.active {
			fluxID[v][d] = fs.Register(grid.FieldMeta{Name: "flux_" + qNames[v] + "_" + dir[d],
				Role: grid.RoleFlux, Species: spOf(v), Group: haloGroupFlux})
		}
	}

	// The primitives the flux stage differentiates form the halo group
	// "primitive" (gradSrc); ρ and p are read in the interior alone.
	prim := func(name, group string) int {
		return fs.Register(grid.FieldMeta{Name: name, Role: grid.RolePrimitive, Species: -1, Group: group})
	}
	rhoID := prim("rho", "")
	uID, vID, wID := prim("u", haloGroupPrimitive), prim("v", haloGroupPrimitive), prim("w", haloGroupPrimitive)
	// The temperature primitive seeds the restart Newton inversion, so it
	// is the one non-conserved checkpoint entry (on-disk name T_guess).
	tID := fs.Register(grid.FieldMeta{Name: "T", Role: grid.RolePrimitive, Species: -1,
		Group: haloGroupPrimitive, Ckpt: "T_guess"})
	pID, wmixID := prim("p", ""), prim("Wmix", haloGroupPrimitive)
	yID := make([]int, ns)
	for n := 0; n < ns; n++ {
		yID[n] = fs.Register(grid.FieldMeta{Name: "Y_" + b.mech.Set.Species[n].Name,
			Role: grid.RolePrimitive, Species: n, Group: haloGroupPrimitive})
	}

	diffMaxID := fs.Register(grid.FieldMeta{Name: "diff_max", Role: grid.RoleTransport, Species: -1})

	fs.Build()

	b.Q = make([]*grid.Field3, b.nvar)
	b.dQ = make([]*grid.Field3, b.nvar)
	b.rhs = make([]*grid.Field3, b.nvar)
	b.flux = make([][3]*grid.Field3, b.nvar)
	for v := 0; v < b.nvar; v++ {
		b.Q[v], b.dQ[v], b.rhs[v] = fs.Field(qID[v]), fs.Field(dqID[v]), fs.Field(rhsID[v])
		for _, d := range b.active {
			b.flux[v][d] = fs.Field(fluxID[v][d])
			// flux[v][d] is differentiated — and so exchanged — along d alone.
			b.haloFlux[d] = append(b.haloFlux[d], b.flux[v][d])
		}
	}

	b.Rho, b.U, b.V, b.W = fs.Field(rhoID), fs.Field(uID), fs.Field(vID), fs.Field(wID)
	b.T, b.P, b.Wmix = fs.Field(tID), fs.Field(pID), fs.Field(wmixID)
	b.diffMax = fs.Field(diffMaxID)
	b.Y = make([]*grid.Field3, ns)
	for n := 0; n < ns; n++ {
		b.Y[n] = fs.Field(yID[n])
	}
	// Registration order makes the group {U, V, W, T, Wmix, Y…}.
	b.gradSrc = fs.Group(haloGroupPrimitive)
	b.normalSrc = append([]*grid.Field3{b.Rho, b.P, b.U, b.V, b.W}, b.Y...)
	for _, a := range b.active {
		b.haloQ[a], b.haloPrim[a] = b.Q, b.gradSrc
	}
}

// isActive reports whether the block has more than one point along axis a.
func (b *Block) isActive(a int) bool { return b.G.Dim(grid.Axis(a)) > 1 }

// Fields returns the block's field registry: the single source of truth for
// field identity (names, roles, halo groups, checkpoint inclusion) and the
// owner of the backing arena.
func (b *Block) Fields() *grid.FieldSet { return b.fs }

// FieldByName resolves a registered field by name (nil when absent).
func (b *Block) FieldByName(name string) *grid.Field3 { return b.fs.ByName(name) }

// NumSpecies returns the species count.
func (b *Block) NumSpecies() int { return b.ns }

// GlobalOffset returns the block's origin in the global grid.
func (b *Block) GlobalOffset() (i0, j0, k0 int) { return b.i0, b.j0, b.k0 }

// SetState initialises the conserved fields from primitive profiles:
// fn(x, y, z) must fill the state with velocity, temperature and
// composition; pressure is prescribed uniform at cfg.PInf unless pFn is
// non-nil.
func (b *Block) SetState(fn func(x, y, z float64, s *InflowState), pFn func(x, y, z float64) float64) {
	ns := b.ns
	st := InflowState{Y: make([]float64, ns)}
	set := b.mech.Set
	for k := 0; k < b.G.Nz; k++ {
		for j := 0; j < b.G.Ny; j++ {
			for i := 0; i < b.G.Nx; i++ {
				x, y, z := b.G.Xc[i], b.G.Yc[j], b.G.Zc[k]
				fn(x, y, z, &st)
				p := b.cfg.PInf
				if pFn != nil {
					p = pFn(x, y, z)
				}
				rho := set.Density(p, st.T, st.Y)
				e0 := set.EMass(st.T, st.Y) + 0.5*(st.U*st.U+st.V*st.V+st.W*st.W)
				b.Q[iRho].Set(i, j, k, rho)
				b.Q[iRhoU].Set(i, j, k, rho*st.U)
				b.Q[iRhoV].Set(i, j, k, rho*st.V)
				b.Q[iRhoW].Set(i, j, k, rho*st.W)
				b.Q[iRhoE].Set(i, j, k, rho*e0)
				for n := 0; n < ns-1; n++ {
					b.Q[iY0+n].Set(i, j, k, rho*st.Y[n])
				}
				b.T.Set(i, j, k, st.T) // Newton guess
			}
		}
	}
}

// MinMaxT returns the interior temperature extrema (monitoring).
func (b *Block) MinMaxT() (float64, float64) { return b.T.MinMax() }

// TotalMass integrates ρ over the block interior (uniform-spacing measure
// per cell; used by conservation tests on uniform grids).
func (b *Block) TotalMass() float64 { return b.Q[iRho].SumInterior() }

// AcousticDt returns the acoustic CFL time-step limit for the block,
// CFL·h/max(|u|+|v|+|w|+c) over the interior. One RunSlots row sweep keeps
// each tile's largest speed by the rule s > max (a NaN speed is passed
// over) in the tile's slot, and the slots are folded in ascending order by
// the same rule: the maximum of a set of numbers is one number whichever
// way it is grouped, so the result is the point-by-point loop's at every
// worker count.
func (b *Block) AcousticDt() float64 {
	h := b.G.MinSpacing()
	r := b.interior()
	n := b.plan.Slots(r)
	if cap(b.dtSlots) < n {
		b.dtSlots = make([]float64, n)
	}
	b.dtSlots = b.dtSlots[:n]
	b.plan.RunSlots("ACOUSTIC_DT", r, b.speedTile)
	maxSpeed := 0.0
	for _, s := range b.dtSlots {
		if s > maxSpeed {
			maxSpeed = s
		}
	}
	if maxSpeed == 0 {
		return math.Inf(1)
	}
	return b.CFL() * h / maxSpeed
}

// speedTile stores the largest |u|+|v|+|w|+c of one tile, one x-row at a
// time, in the tile's AcousticDt slot.
func (b *Block) speedTile(t par.Tile, worker int) {
	set, ws := b.mech.Set, &b.ws[worker]
	yw, yR := ws.yw, ws.yOut[:b.ns]
	maxSpeed := 0.0
	for k := t.Lo[2]; k < t.Hi[2]; k++ {
		for j := t.Lo[1]; j < t.Hi[1]; j++ {
			p0 := b.T.Idx(t.Lo[0], j, k)
			p1 := p0 + t.Hi[0] - t.Lo[0]
			tR, uR, vR, wR := b.T.Data[p0:p1], b.U.Data[p0:p1], b.V.Data[p0:p1], b.W.Data[p0:p1]
			cutRows(yR, b.Y, p0, p1)
			for i, T := range tR {
				for n, y := range yR {
					yw[n] = y[i]
				}
				c := set.SoundSpeed(T, yw)
				s := math.Abs(uR[i]) + math.Abs(vR[i]) + math.Abs(wR[i]) + c
				if s > maxSpeed {
					maxSpeed = s
				}
			}
		}
	}
	b.dtSlots[t.Index] = maxSpeed
}

// CFL returns the acoustic CFL number AcousticDt applies: Config.CFL, or
// 0.8 when that is not positive.
func (b *Block) CFL() float64 {
	if b.cfg.CFL <= 0 {
		return 0.8
	}
	return b.cfg.CFL
}

// gatherYInto copies the full species vector at a point into dst (the
// worker-private variant used by tiled kernels).
func (b *Block) gatherYInto(dst []float64, i, j, k int) {
	for n := 0; n < b.ns; n++ {
		dst[n] = b.Y[n].At(i, j, k)
	}
}

// Plan returns the block's kernel execution plan (pool size, tile metrics).
func (b *Block) Plan() *par.Plan { return b.plan }
