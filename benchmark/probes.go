package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	s3d "github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/deriv"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/jsonl"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/reactor"
	"github.com/s3dgo/s3d/internal/sdf"
	"github.com/s3dgo/s3d/internal/solver"
	"github.com/s3dgo/s3d/internal/transport"
	"github.com/s3dgo/s3d/internal/turb"
)

// The layer probes of a traced run: every layer's public functions called
// from outside with fixed inputs, each call group under its own span. The
// layers reach internal/kernels only through these calls and with the
// default selection, so deleting a kernel backend cannot break a probe.

// probeSeed fixes the probe inputs: they are the same in every run, so a
// probe's number moves only when the layer or the host does.
const probeSeed = 20060911

// timeCalls calls fn once untimed, then repeatedly until it has nine timed
// calls, or at least three once the budget is spent, and returns the median
// seconds per call.
func timeCalls(budget time.Duration, fn func()) float64 {
	fn()
	var secs []float64
	start := time.Now()
	for len(secs) < 9 && (len(secs) < 3 || time.Since(start) < budget) {
		t := time.Now()
		fn()
		secs = append(secs, time.Since(t).Seconds())
	}
	return median(secs)
}

// probeBudget is the time a probe may spend collecting its nine calls; a
// smoke run settles for the minimum of three.
const probeBudget = 400 * time.Millisecond

func (rc *runCtx) budget() time.Duration {
	if rc.smoke {
		return 0
	}
	return probeBudget
}

// chemMechanism returns the internal mechanism a workload's solver-hook
// block uses; the root package's Mechanism does not expose it.
func chemMechanism(name string) (*chem.Mechanism, error) {
	switch name {
	case "h2":
		return chem.H2Air(), nil
	case "ch4":
		return chem.CH4Skeletal(), nil
	case "air2":
		return chem.Parse("air2", airMechanism)
	}
	return nil, fmt.Errorf("unknown mechanism %q", name)
}

// solverConfig maps the workload's root-API problem onto a solver.Config,
// field for field as the root package's own (unexported) Config.toSolver
// does; TestProbeBlockMatchesWorkload holds the two together.
func solverConfig(p *s3d.Problem, mech *chem.Mechanism, pool *par.Pool) *solver.Config {
	c := p.Config
	sc := &solver.Config{
		Mech:  mech,
		Trans: transport.MustNew(mech.Set),
		Grid: grid.New(grid.Spec{Nx: c.Grid.Nx, Ny: c.Grid.Ny, Nz: c.Grid.Nz,
			Lx: c.Grid.Lx, Ly: c.Grid.Ly, Lz: c.Grid.Lz, StretchY: c.Grid.StretchY, Beta: c.Grid.Beta}),
		PInf:           c.Pressure,
		FilterEvery:    c.FilterEvery,
		FilterStrength: c.FilterStrength,
		CFL:            c.CFL,
		ChemistryOff:   c.ChemistryOff,
		ConstLewis:     c.ConstLewis,
		Backend:        c.Backend,
		Precision:      c.Precision,
		Pool:           pool,
	}
	if sc.Backend == "" {
		sc.Backend = s3d.Backend()
	}
	if sc.Precision == "" {
		sc.Precision = s3d.Precision()
	}
	if c.OptimizedDiffFlux {
		sc.DiffFlux = solver.DiffFluxOptimized
	}
	for a := range c.BC {
		for s, bc := range c.BC[a] {
			sc.BC[a][s] = map[s3d.BC]solver.BCType{
				s3d.Periodic: solver.Periodic, s3d.Inflow: solver.InflowNSCBC, s3d.Outflow: solver.OutflowNSCBC}[bc]
		}
	}
	if c.Inflow != nil {
		sc.Inflow = solver.InflowFunc(c.Inflow)
	}
	return sc
}

// newBlock builds a serial solver block holding the problem's initial state.
func newBlock(p *s3d.Problem, mech *chem.Mechanism, pool *par.Pool) (*solver.Block, error) {
	blk, err := solver.NewSerial(solverConfig(p, mech, pool))
	if err != nil {
		return nil, err
	}
	blk.SetState(p.Initial, p.InitPressure)
	blk.RefreshPrimitives()
	return blk, nil
}

// probeLayers runs every layer probe and stores the per-layer metrics.
func (rc *runCtx) probeLayers(prob *s3d.Problem) error {
	parent := rc.rec.begin(rc.root, "bench.probes")
	defer rc.rec.end(parent)
	var firstErr error
	run := func(name string, fn func() error) {
		rc.rec.do(parent, name, func() {
			if err := fn(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("probe %s: %w", name, err)
			}
		})
	}
	work := filepath.Join(rc.workdir, "tmp")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	run("solver.hooks", func() error { return rc.probeSolver(prob) })
	run("deriv", rc.probeDeriv)
	run("par", rc.probePar)
	run("comm", func() error { return rc.probeComm(prob) })
	run("chem+thermo+transport", rc.probePointwise)
	run("reactor", rc.probeReactor)
	run("sdf", func() error { return rc.probeSDF(work) })
	run("jsonl+perf+turb", func() error { return rc.probeSmall(work) })
	return firstErr
}

// probeSolver times the solver.Block bench hooks on a block built from the
// workload's own configuration, on the default one-worker pool.
func (rc *runCtx) probeSolver(prob *s3d.Problem) error {
	mech, err := chemMechanism(rc.w.mech)
	if err != nil {
		return err
	}
	blk, err := newBlock(prob, mech, nil)
	if err != nil {
		return err
	}
	l := rc.layer
	gp := float64(rc.gridPoints())
	perGP := func(fn func()) float64 { return timeCalls(rc.budget(), fn) / gp * 1e6 }

	var buf bytes.Buffer
	var ioErr error
	l["solver.ckpt_save_ms"] = 1e3 * timeCalls(rc.budget(), func() {
		buf.Reset()
		if err := blk.SaveCheckpoint(&buf); err != nil {
			ioErr = err
		}
	})
	l["solver.ckpt_load_ms"] = 1e3 * timeCalls(rc.budget(), func() {
		if err := blk.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			ioErr = err
		}
	})
	for _, group := range []string{"conserved", "flux"} {
		floats := 0
		sec := timeCalls(rc.budget(), func() { floats = blk.PackHaloGroupOnly(group, 0) })
		l["solver.halo_pack_ns_per_float."+group] = sec / float64(floats) * 1e9
	}
	if rc.w.windows == 0 {
		return ioErr // a workload that never steps leaves the step hooks at 0
	}
	l["solver.acoustic_dt_us_per_gp"] = perGP(func() { sink += blk.AcousticDt() })
	l["solver.primitives_us_per_gp"] = perGP(blk.RefreshPrimitives)
	l["solver.rhs_us_per_gp"] = perGP(func() { blk.EvalRHS(0) })
	blk.PrepareDiffFluxInputs()
	l["solver.diffflux_us_per_gp"] = perGP(blk.DiffFluxKernelOnly)
	blk.PrepareAssembleInputs()
	l["solver.assemble_us_per_gp"] = perGP(blk.AssembleFluxesOnly)
	// The two hooks that write the conserved bank go last. Both barely move
	// a smooth state (a filter pass; a register update with dt = 1 ns).
	l["solver.filter_us_per_gp"] = perGP(blk.ApplyFilter)
	blk.EvalRHS(0)
	l["solver.rk_update_us_per_gp"] = perGP(func() { blk.RKUpdateBankOnly(1e-9) })
	return ioErr
}

// probeDeriv times the derivative and filter sweeps on a 48³ field with
// ghost closures (the interior stencil everywhere).
func (rc *runCtx) probeDeriv() error {
	const n = 48
	g := grid.New(grid.Spec{Nx: n, Ny: n, Nz: n, Lx: 1, Ly: 1, Lz: 1})
	f, d := grid.NewField3(g), grid.NewField3(g)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i) * 0.37)
	}
	perPt := func(fn func()) float64 { return timeCalls(rc.budget(), fn) / (n * n * n) * 1e9 }
	for _, ax := range []struct {
		name string
		a    grid.Axis
		met  []float64
	}{{"x", grid.X, g.MetX}, {"y", grid.Y, g.MetY}, {"z", grid.Z, g.MetZ}} {
		rc.layer["deriv.diff_ns_per_pt."+ax.name] = perPt(func() {
			deriv.Diff(d, f, ax.a, ax.met, deriv.UseGhosts, deriv.UseGhosts)
		})
	}
	rc.layer["deriv.filter_ns_per_pt.x"] = perPt(func() {
		deriv.Filter(d, f, grid.X, 1, deriv.UseGhosts, deriv.UseGhosts)
	})
	return nil
}

// probePar times the tile scheduler's fixed cost and, on the air-box
// workloads, what a second worker buys one RHS evaluation.
func (rc *runCtx) probePar() error {
	plan := par.NewPlan(par.Default())
	box := par.Interior(32, 32, 32)
	rc.layer["par.run_overhead_us"] = 1e6 * timeCalls(rc.budget(), func() {
		plan.Run("BENCH_EMPTY", box, func(par.Tile, int) {})
	})
	if rc.w.mech != "air2" {
		return nil
	}
	prob, err := airProblem(probeSeed, [3]int{32, 32, 32})
	if err != nil {
		return err
	}
	mech, err := chemMechanism("air2")
	if err != nil {
		return err
	}
	var sec [2]float64
	for i, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		blk, err := newBlock(prob, mech, pool)
		if err == nil {
			sec[i] = timeCalls(rc.budget(), func() { blk.EvalRHS(0) })
		}
		pool.Close()
		if err != nil {
			return err
		}
	}
	rc.layer["par.rhs_speedup_workers2"] = sec[0] / sec[1]
	return nil
}

// probeComm times the message layer on a two-rank world and, on the
// decomposed workload, counts what one window of its steps sends.
func (rc *runCtx) probeComm(prob *s3d.Problem) error {
	l := rc.layer
	pingpong := func(floats, trips int) (float64, error) {
		var oneWay float64
		err := comm.NewWorld(2).Run(func(c *comm.Comm) {
			buf := make([]float64, floats)
			peer := 1 - c.Rank()
			sec := timeCalls(0, func() { // zero budget: three timed batches, on both ranks alike
				for i := 0; i < trips; i++ {
					if c.Rank() == 0 {
						c.Send(peer, 1, buf)
						c.Recv(peer, 1, buf)
					} else {
						c.Recv(peer, 1, buf)
						c.Send(peer, 1, buf)
					}
				}
			})
			if c.Rank() == 0 {
				oneWay = sec / float64(trips) / 2 * 1e6
			}
		})
		return oneWay, err
	}
	var err error
	if l["comm.pingpong_us.8B"], err = pingpong(1, 2000); err != nil {
		return err
	}
	if l["comm.pingpong_us.512KiB"], err = pingpong(512<<10/8, 50); err != nil {
		return err
	}
	err = comm.NewWorld(2).Run(func(c *comm.Comm) {
		const calls = 2000
		v := []float64{1, 2, 3, 4}
		plain := timeCalls(0, func() {
			for i := 0; i < calls; i++ {
				c.Allreduce(comm.Max, v)
			}
		})
		var ordErr error
		ordered := timeCalls(0, func() {
			for i := 0; i < calls; i++ {
				if err := c.AllreduceOrdered(v, func(dst, src []float64) { copy(dst, src) }); err != nil {
					ordErr = err
				}
			}
		})
		if ordErr != nil {
			panic(ordErr)
		}
		if c.Rank() == 0 {
			l["comm.allreduce_us"] = plain / calls * 1e6
			l["comm.allreduce_ordered_us"] = ordered / calls * 1e6
		}
	})
	if err != nil || rc.w.name != "air_box3d_ranks2" {
		return err
	}
	mech, err := chemMechanism(rc.w.mech)
	if err != nil {
		return err
	}
	return solver.RunParallel(solverConfig(prob, mech, nil), [3]int{2, 1, 1}, func(blk *solver.Block) {
		blk.SetState(prob.Initial, prob.InitPressure)
		blk.RefreshPrimitives()
		dt := dtFactor * blk.GlobalDt()
		blk.Advance(window, dt) // warm-up: buffers sized, caches filled
		s0, t0 := blk.CommStats(), time.Now()
		blk.Advance(window, dt)
		s1, wall := blk.CommStats(), time.Since(t0).Seconds()
		if blk.Rank() == 0 {
			l["comm.msgs_per_step"] = float64(s1.MsgsSent-s0.MsgsSent) / window
			l["comm.kb_per_step"] = float64(s1.BytesSent-s0.BytesSent) / 1024 / window
			l["comm.wait_frac"] = (s1.WaitSec - s0.WaitSec) / wall
		}
	})
}

// stateTable is a fixed seeded set of thermochemical states in which every
// species is present: transport.Mixture skips zero mole fractions, so a
// table with absent species would time a shorter loop.
type stateTable struct {
	T, rho, e []float64
	Y, C      [][]float64
}

const tableStates = 4096

func newStateTable(m *chem.Mechanism) *stateTable {
	rng := rand.New(rand.NewSource(probeSeed))
	ns := m.NumSpecies()
	t := &stateTable{}
	for i := 0; i < tableStates; i++ {
		y := make([]float64, ns)
		var sum float64
		for n := range y {
			y[n] = 0.02 + rng.Float64()
			sum += y[n]
		}
		for n := range y {
			y[n] /= sum
		}
		T := 400 + 1800*rng.Float64()
		rho := m.Set.Density(101325, T, y)
		c := make([]float64, ns)
		m.Concentrations(rho, y, c)
		t.T, t.rho, t.e = append(t.T, T), append(t.rho, rho), append(t.e, m.Set.EMass(T, y))
		t.Y, t.C = append(t.Y, y), append(t.C, c)
	}
	return t
}

// probePointwise times the per-point physics calls over the state tables.
func (rc *runCtx) probePointwise() error {
	l := rc.layer
	perCall := func(fn func(i int)) float64 {
		return 1e9 / tableStates * timeCalls(rc.budget(), func() {
			for i := 0; i < tableStates; i++ {
				fn(i)
			}
		})
	}
	for _, name := range []string{"h2", "ch4", "air2"} {
		m, err := chemMechanism(name)
		if err != nil {
			return err
		}
		tab := newStateTable(m)
		tr, err := transport.New(m.Set)
		if err != nil {
			return err
		}
		props := transport.Props{Dmix: make([]float64, m.NumSpecies())}
		l["transport.mixture_ns_per_call."+name] = perCall(func(i int) {
			tr.Mixture(tab.T[i], 101325, tab.Y[i], &props)
		})
		if name == "air2" {
			continue // no reactions to rate
		}
		wdot := make([]float64, m.NumSpecies())
		l["chem.rates_ns_per_call."+name] = perCall(func(i int) { m.ProductionRates(tab.T[i], tab.C[i], wdot) })
		if name == "h2" {
			set := m.Set
			l["thermo.t_from_e_ns_per_call.h2"] = perCall(func(i int) {
				T, _ := set.TFromE(tab.e[i], tab.Y[i], tab.T[i]+40) // a step's worth of drift off the answer
				sink += T
			})
			l["thermo.cp_mass_ns_per_call.h2"] = perCall(func(i int) { sink += set.CpMass(tab.T[i], tab.Y[i]) })
		}
	}
	return nil
}

// probeReactor times one ignition-delay integration of a lean H2/air
// mixture at the lifted flame's coflow temperature.
func (rc *runCtx) probeReactor() error {
	m := chem.H2Air()
	y := make([]float64, m.NumSpecies())
	y[m.Set.Index("H2")], y[m.Set.Index("O2")], y[m.Set.Index("N2")] = 0.02, 0.228, 0.752
	var tau float64
	var err error
	rc.layer["reactor.ignition_delay_ms.h2"] = 1e3 * timeCalls(rc.budget(), func() {
		tau, _, err = reactor.IgnitionDelay(m, 1100, 101325, y, 2e-3)
	})
	if err == nil && math.IsNaN(tau) {
		err = fmt.Errorf("mixture did not ignite")
	}
	return err
}

// probeSDF times the self-describing format alone, in memory and through a
// file in the benchmark's work directory (no fsync: this is the page cache,
// a diagnostic, which is why no gated number rests on it).
func (rc *runCtx) probeSDF(work string) error {
	const n, nvars = 48, 9
	f := sdf.New()
	f.Attrs["step"] = "0"
	rng := rand.New(rand.NewSource(probeSeed))
	for v := 0; v < nvars; v++ {
		data := make([]float64, n*n*n)
		for i := range data {
			data[i] = rng.Float64()
		}
		if err := f.AddVar(fmt.Sprintf("v%d", v), []int{n, n, n}, data); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	enc := timeCalls(rc.budget(), func() { buf.Reset(); keep(f.Encode(&buf)) })
	mb := float64(buf.Len()) / 1e6
	dec := timeCalls(rc.budget(), func() { _, e := sdf.Decode(bytes.NewReader(buf.Bytes())); keep(e) })
	path := filepath.Join(work, "probe.sdf")
	wr := timeCalls(rc.budget(), func() { keep(f.WriteFile(path)) })
	rd := timeCalls(rc.budget(), func() { _, e := sdf.ReadFile(path); keep(e) })
	l := rc.layer
	l["sdf.encode_MBps"], l["sdf.decode_MBps"] = mb/enc, mb/dec
	l["sdf.file_write_MBps"], l["sdf.file_read_MBps"] = mb/wr, mb/rd
	return err
}

// probeSmall times three small fixed costs: one appended JSONL record, one
// region-timer Start/Stop pair, one synthetic turbulence field.
func (rc *runCtx) probeSmall(work string) error {
	type record struct {
		Step int       `json:"step"`
		Vals []float64 `json:"vals"`
	}
	store, err := jsonl.Create[record](filepath.Join(work, "probe.jsonl"))
	if err != nil {
		return err
	}
	rec := record{Step: 1, Vals: make([]float64, 32)}
	const appends = 200
	var appendErr error
	rc.layer["jsonl.append_us"] = 1e6 / appends * timeCalls(rc.budget(), func() {
		for i := 0; i < appends; i++ {
			if err := store.Append(rec); err != nil {
				appendErr = err
			}
		}
	})
	if err := store.Close(); err != nil && appendErr == nil {
		appendErr = err
	}

	timers := perf.NewTimers()
	const pairs = 100000
	rc.layer["perf.timer_pair_ns"] = 1e9 / pairs * timeCalls(rc.budget(), func() {
		for i := 0; i < pairs; i++ {
			timers.Start("BENCH")
			timers.Stop("BENCH")
		}
	})

	// The lifted jet's inflow spectrum (u' = 8 % of 160 m/s, L0 = slot width).
	rc.layer["turb.newfield_ms"] = 1e3 * timeCalls(rc.budget(), func() {
		f := turb.NewField(turb.Spectrum{Urms: 12.8, L0: 1.92e-3}, 160, probeSeed)
		u, _, _ := f.At(0, 0, 0)
		sink += u
	})
	return appendErr
}
