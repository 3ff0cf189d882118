package s3d

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/s3dgo/s3d/internal/solver"
)

func TestQuickstartAPI(t *testing.T) {
	mech := HydrogenAir()
	sim, err := New(Config{
		Mechanism:    mech,
		Grid:         GridSpec{Nx: 16, Ny: 12, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01},
		Pressure:     101325,
		ChemistryOff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	yAir := make([]float64, mech.NumSpecies())
	yAir[mech.SpeciesIndex("O2")] = 0.233
	yAir[mech.SpeciesIndex("N2")] = 0.767
	sim.SetInitial(func(x, y, z float64, s *State) {
		s.U = 3 * math.Sin(2*math.Pi*x/0.01)
		s.T = 320
		copy(s.Y, yAir)
	}, nil)
	dt := sim.StableDt()
	if dt <= 0 || math.IsInf(dt, 1) {
		t.Fatalf("bad StableDt %g", dt)
	}
	sim.Advance(3, dt)
	if sim.Step() != 3 || sim.Time() <= 0 {
		t.Fatalf("step/time bookkeeping wrong: %d %g", sim.Step(), sim.Time())
	}
	temp, dims, err := sim.Field("T")
	if err != nil {
		t.Fatal(err)
	}
	if dims != [3]int{16, 12, 1} || len(temp) != 16*12 {
		t.Fatalf("field dims wrong: %v %d", dims, len(temp))
	}
	lo, hi, err := sim.MinMax("T")
	if err != nil || lo < 250 || hi > 400 {
		t.Fatalf("temperature range [%g, %g] (%v)", lo, hi, err)
	}
	if _, _, err := sim.Field("Y_O2"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Field("Y_XX"); err == nil {
		t.Fatal("expected unknown species error")
	}
	if _, _, err := sim.Field("vorticity"); err == nil {
		t.Fatal("expected unknown field error")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected mechanism error")
	}
	if _, err := New(Config{Mechanism: HydrogenAir(),
		Grid: GridSpec{Nx: 8, Ny: 8, Nz: 1, Lx: 1, Ly: 1, Lz: 1}}); err == nil {
		t.Fatal("expected pressure error")
	}
}

// TestRemovedKernelKnobsRejected: Config.Backend and Config.Precision are
// kept only so the frozen benchmark compiles. Every constructor must reject
// a value that used to select a deleted path instead of ignoring it, and
// accept the single remaining value under either spelling.
func TestRemovedKernelKnobsRejected(t *testing.T) {
	for _, tc := range []struct {
		backend, precision string
		ok                 bool
	}{
		{"", "", true},
		{"generic", "strict", true},
		{"blocked", "", false},
		{"auto", "", false},
		{"diff=blocked", "", false},
		{"", "mixed", false},
	} {
		cfg := Config{
			Mechanism: HydrogenAir(),
			Grid:      GridSpec{Nx: 16, Ny: 12, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01},
			Pressure:  101325,
			Backend:   tc.backend,
			Precision: tc.precision,
		}
		sc, err := cfg.toSolver()
		if err != nil {
			t.Fatal(err)
		}
		_, errSerial := solver.NewSerial(sc)
		_, errNew := New(cfg)
		errDec := RunDecomposed(cfg, [3]int{2, 1, 1}, func(*RankSim) {})
		for name, err := range map[string]error{
			"solver.NewSerial": errSerial, "New": errNew, "RunDecomposed": errDec,
		} {
			if (err == nil) != tc.ok {
				t.Errorf("%s with Backend=%q Precision=%q: err = %v, want ok = %v",
					name, tc.backend, tc.precision, err, tc.ok)
			}
		}
	}
}

func TestMechanismAPI(t *testing.T) {
	m := MethaneAirSkeletal()
	if m.NumSpecies() != 14 {
		t.Fatalf("species = %d", m.NumSpecies())
	}
	names := m.Species()
	if names[m.SpeciesIndex("CO2")] != "CO2" {
		t.Fatal("species indexing broken")
	}
	y, err := m.PremixedMixture(1.0)
	if err != nil {
		t.Fatal(err)
	}
	tb, yb, err := m.Equilibrium(300, 101325, y)
	if err != nil {
		t.Fatal(err)
	}
	if tb < 2000 || yb[m.SpeciesIndex("H2O")] < 0.08 {
		t.Fatalf("equilibrium implausible: T=%g", tb)
	}
}

func TestIgnitionDelayAPI(t *testing.T) {
	m := HydrogenAir()
	y, err := m.PremixedMixture(1.0)
	if err != nil {
		t.Fatal(err)
	}
	tau, err := m.IgnitionDelay(1300, 101325, y, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(tau) || tau <= 0 {
		t.Fatalf("no ignition: %g", tau)
	}
}

func TestParseMechanismAPI(t *testing.T) {
	m, err := ParseMechanism("toy", `
SPECIES
H2 O2 OH H2O N2 H O
END
REACTIONS
H+O2=O+OH 3.547E15 -0.406 16599
END
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSpecies() != 7 {
		t.Fatalf("species = %d", m.NumSpecies())
	}
	if _, err := ParseMechanism("bad", "REACTIONS\nA=B 1 2 3\nEND"); err == nil {
		t.Fatal("expected parse error")
	}
}

// runProblem advances a problem a few steps and checks sanity.
func runProblem(t *testing.T, p *Problem, steps int) *Simulation {
	t.Helper()
	sim, err := p.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.5 * sim.StableDt()
	sim.Advance(steps, dt)
	lo, hi, err := sim.MinMax("T")
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(lo) || lo < 200 || hi > 3400 {
		t.Fatalf("temperature out of range [%g, %g]", lo, hi)
	}
	// Composition sane everywhere.
	for _, name := range []string{"Y_O2", "Y_N2"} {
		flo, fhi, err := sim.MinMax(name)
		if err != nil {
			t.Fatal(err)
		}
		if flo < -1e-6 || fhi > 1+1e-6 {
			t.Fatalf("%s out of [0,1]: [%g, %g]", name, flo, fhi)
		}
	}
	return sim
}

func TestLiftedJetProblemRuns(t *testing.T) {
	p, err := LiftedJetProblem(LiftedJetOptions{
		Nx: 48, Ny: 40, Nz: 1, IgnitionKernel: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := runProblem(t, p, 12)
	// The hot coflow must persist at the transverse edges; the cold jet at
	// the centreline near the inlet.
	temp, dims, _ := sim.Field("T")
	edge := temp[0*dims[0]+2]             // j = 0 row, near inlet
	centre := temp[(dims[1]/2)*dims[0]+2] // centreline, near inlet
	if edge < 900 {
		t.Fatalf("coflow cooled to %g K", edge)
	}
	if centre > 900 {
		t.Fatalf("jet core heated to %g K near inlet", centre)
	}
	// Mixture fraction spans [0, 1]-ish across the shear layer.
	b := sim.MixtureFraction(p.YFuel, p.YOx)
	yPoint := make([]float64, p.Config.Mechanism.NumSpecies())
	for i, nm := range p.Config.Mechanism.Species() {
		f, _, _ := sim.Field("Y_" + nm)
		yPoint[i] = f[(dims[1]/2)*dims[0]+2]
	}
	if xi := b.Xi(yPoint); xi < 0.5 {
		t.Fatalf("centreline mixture fraction %g, want fuel-rich", xi)
	}
}

func TestBunsenProblemRuns(t *testing.T) {
	p, err := BunsenProblem(BunsenOptions{
		Case: 'A', Nx: 48, Ny: 36, Nz: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := runProblem(t, p, 10)
	// Hot pilot coflow and colder reactant core must coexist.
	lo, hi, _ := sim.MinMax("T")
	if hi < 1800 || lo > 1000 {
		t.Fatalf("Bunsen structure lost: T ∈ [%g, %g]", lo, hi)
	}
}

func TestBunsenUnknownCase(t *testing.T) {
	if _, err := BunsenProblem(BunsenOptions{Case: 'X'}); err == nil {
		t.Fatal("expected unknown-case error")
	}
}

// TestNonPositiveGridIsAnError: a grid with no points along an axis, or no
// extent, is refused by New with an error (grid.New panics on one), and the
// case builders no longer swap in a grid of their own for a zero Nx.
func TestNonPositiveGridIsAnError(t *testing.T) {
	lifted, err := LiftedJetProblem(LiftedJetOptions{Nx: 24, Ny: 16})
	if err != nil {
		t.Fatal(err)
	}
	bunsen, err := BunsenProblem(BunsenOptions{Case: 'A'})
	if err != nil {
		t.Fatal(err)
	}
	box := Config{Mechanism: HydrogenAir(), Pressure: 101325,
		Grid: GridSpec{Nx: 8, Ny: 8, Nz: 1, Lx: 1e-2, Ly: 0, Lz: 1e-2}}
	for name, cfg := range map[string]Config{"lifted Nz=0": lifted.Config, "bunsen 0x0x0": bunsen.Config, "box Ly=0": box} {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("%s: err = %v, want the grid refused", name, err)
		}
	}
}

func TestBunsenCasesTable(t *testing.T) {
	cases := BunsenCases()
	if len(cases) != 3 {
		t.Fatalf("cases = %d", len(cases))
	}
	if cases['A'].UPrimeSL != 3 || cases['B'].UPrimeSL != 6 || cases['C'].UPrimeSL != 10 {
		t.Fatal("u'/SL ladder wrong")
	}
	if cases['C'].SlotWidth <= cases['A'].SlotWidth {
		t.Fatal("case C slot width must exceed case A (table 1)")
	}
}

func TestRunDecomposedMatchesSerial(t *testing.T) {
	mech := HydrogenAir()
	yAir := make([]float64, mech.NumSpecies())
	yAir[mech.SpeciesIndex("O2")] = 0.233
	yAir[mech.SpeciesIndex("N2")] = 0.767
	cfg := Config{
		Mechanism:    mech,
		Grid:         GridSpec{Nx: 16, Ny: 8, Nz: 8, Lx: 0.01, Ly: 0.01, Lz: 0.01},
		Pressure:     101325,
		ChemistryOff: true,
	}
	init := func(x, y, z float64, s *State) {
		s.U = 5 * math.Sin(2*math.Pi*x/0.01)
		s.T = 330 + 10*math.Cos(2*math.Pi*y/0.01)
		copy(s.Y, yAir)
	}
	serial, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial.SetInitial(init, nil)
	serial.Advance(3, 4e-7)
	refT, refDims, _ := serial.Field("T")

	var mu sync.Mutex
	worst := 0.0
	err = RunDecomposed(cfg, [3]int{2, 1, 1}, func(r *RankSim) {
		r.SetInitial(init, nil)
		r.Advance(3, 4e-7)
		T, dims, err := r.Field("T")
		if err != nil {
			panic(err)
		}
		for k := 0; k < dims[2]; k++ {
			for j := 0; j < dims[1]; j++ {
				for i := 0; i < dims[0]; i++ {
					got := T[(k*dims[1]+j)*dims[0]+i]
					want := refT[((k+r.Offset[2])*refDims[1]+j+r.Offset[1])*refDims[0]+i+r.Offset[0]]
					mu.Lock()
					if d := math.Abs(got - want); d > worst {
						worst = d
					}
					mu.Unlock()
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-10 {
		t.Fatalf("decomposed run diverges from serial by %g K", worst)
	}
}

func TestHeatReleaseField(t *testing.T) {
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	hrr, dims, err := sim.Field("hrr")
	if err != nil {
		t.Fatal(err)
	}
	if len(hrr) != dims[0]*dims[1]*dims[2] {
		t.Fatal("hrr length mismatch")
	}
	var maxAbs float64
	for _, v := range hrr {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		t.Fatal("hrr identically zero despite hot kernel")
	}
}

func TestCheckpointRoundTripAPI(t *testing.T) {
	mkSim := func() *Simulation {
		mech := HydrogenAir()
		sim, err := New(Config{
			Mechanism: mech,
			Grid:      GridSpec{Nx: 12, Ny: 10, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01},
			Pressure:  101325,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	init := func(sim *Simulation) {
		mech := sim.mech
		yAir := make([]float64, mech.NumSpecies())
		yAir[mech.SpeciesIndex("O2")] = 0.233
		yAir[mech.SpeciesIndex("N2")] = 0.767
		sim.SetInitial(func(x, y, z float64, s *State) {
			s.T = 600 + 400*math.Exp(-((x-0.005)/0.002)*((x-0.005)/0.002))
			copy(s.Y, yAir)
		}, nil)
	}
	cont := mkSim()
	init(cont)
	cont.Advance(6, 3e-7)

	split := mkSim()
	init(split)
	split.Advance(3, 3e-7)
	var buf bytes.Buffer
	if err := split.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored := mkSim()
	if err := restored.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored.Advance(3, 3e-7)
	a, _, _ := cont.Field("T")
	b, _, _ := restored.Field("T")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restart not bit-exact at %d: %g vs %g", i, a[i], b[i])
		}
	}
	if restored.Step() != 6 {
		t.Fatalf("step bookkeeping = %d", restored.Step())
	}
}

// TestMinMaxScansInPlace: the extrema of a registered field come from a walk
// over its rows — no copy of the field, so no allocation per progress line —
// and agree with a scan of the extracted copy, as do the derived "hrr"'s.
func TestMinMaxScansInPlace(t *testing.T) {
	sim := inertBoxSim(t)
	for _, name := range []string{"T", "rho", "hrr"} {
		data, _, err := sim.Field(name)
		if err != nil {
			t.Fatal(err)
		}
		wantLo, wantHi := data[0], data[0]
		for _, v := range data {
			wantLo, wantHi = min(wantLo, v), max(wantHi, v)
		}
		lo, hi, err := sim.MinMax(name)
		if err != nil || lo != wantLo || hi != wantHi {
			t.Fatalf("MinMax(%q) = [%g, %g], %v; want [%g, %g]", name, lo, hi, err, wantLo, wantHi)
		}
	}
	if lo, hi, _ := sim.MinMax("T"); lo != 300 || !(hi > 480) {
		t.Fatalf("T extrema [%g, %g], want the 300–500 K ramp", lo, hi)
	}
	if _, _, err := sim.MinMax("no_such_field"); err == nil {
		t.Fatal("unknown field must be an error")
	}
	if n := testing.AllocsPerRun(10, func() { sim.MinMax("T") }); n != 0 {
		t.Fatalf("MinMax on a registered field allocates %v times per call", n)
	}
}
