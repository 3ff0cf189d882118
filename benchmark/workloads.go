package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	s3d "github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/perf"
)

const (
	// window is the steps of one Advance call: exactly one filter
	// application at FilterEvery 5, so every window does the same work.
	window = 5
	// dtFactor scales the acoustic stable step, as the drivers in cmd/ do.
	dtFactor = 0.4
	// setups is how often a run builds its problem; setup_s is their median.
	// A smoke run sets up once.
	setups = 3
	// notApplicable is what a workload reports for an end-to-end metric it has
	// no part in. The driver wants every end-to-end metric from every run and
	// none of them 0; a constant can neither spread nor worsen, so it can never
	// raise a false alarm.
	notApplicable = 1.0
)

// airMechanism is the two-species inert mechanism of the air-box workloads.
const airMechanism = "SPECIES\nO2 N2\nEND\nREACTIONS\nEND"

// workload is one named set of inputs. Run length is a fixed count of
// operations derived from -seconds and roundSec alone, so it is identical
// on every commit: a faster program finishes sooner, it does not do more.
type workload struct {
	name string
	why  string
	// roundSec is the reference-host cost (issue 12's sizing runs, 2-core
	// Xeon 2.1 GHz) of one round: four windows, or four checkpoint cycles.
	roundSec float64
	grid     [3]int
	smoke    [3]int
	mech     string // mechanism of the solver-hook probe block: "h2" or "air2"
	bands    bands
	periodic bool // mass is conserved to round-off, so drift is checked
	windows  int  // windows a simulation advances per round; 0: it never steps (restart_io)
	// goldenAs is the workload whose golden entries this one is held to, when
	// not its own: at the golden seed the decomposed box must land on the
	// serial box's pinned reductions.
	goldenAs string
	// na names the end-to-end metrics this workload has no part in and
	// reports as notApplicable; every other one it measures.
	na      []string
	problem func(seed int64, g [3]int) (*s3d.Problem, error)
	run     func(rc *runCtx) error
}

// unarmedStepOnly: a workload that steps with no instrumentation layer armed
// and takes no checkpoint.
var unarmedStepOnly = []string{"armed_cpu_ratio", "ckpt_write_MBps", "ckpt_read_MBps"}

var workloads = []*workload{
	{
		name: "lifted_h2", roundSec: 4 * 96 * 72 * window * 30.5e-6,
		why:  "paper's lifted H2 jet, serial: transport, chemistry and thermo do most of the work, comm none",
		grid: [3]int{96, 72, 1}, smoke: [3]int{16, 12, 1}, mech: "h2", bands: liftedBands,
		problem: liftedProblem, run: runSerial, windows: 4, na: unarmedStepOnly,
	},
	{
		name: "lifted_h2_armed", roundSec: 4 * 64 * 48 * window * 29e-6,
		why:  "same jet at 64x48 with all six instrumentation layers armed every step, ABBA against an un-armed twin",
		grid: [3]int{64, 48, 1}, smoke: [3]int{16, 12, 1}, mech: "h2", bands: liftedBands,
		problem: liftedProblem, run: runArmed, windows: 2, na: []string{"ckpt_write_MBps", "ckpt_read_MBps"},
	},
	{
		name: "air_box3d", roundSec: 4 * 32 * 32 * 32 * window * 8.45e-6,
		why:  "32^3 periodic inert air box, serial: stencil and streaming layers outweigh pointwise physics, chemistry does nothing",
		grid: [3]int{32, 32, 32}, smoke: [3]int{12, 12, 12}, mech: "air2", bands: defaultBands, periodic: true,
		problem: airProblem, run: runSerial, windows: 4, na: unarmedStepOnly,
	},
	{
		// Same roundSec as air_box3d on purpose: the two runs must take the
		// same number of steps for their final states to be comparable.
		name: "air_box3d_ranks2", roundSec: 4 * 32 * 32 * 32 * window * 8.45e-6,
		why:  "the identical box over 2x1x1 ranks: the only workload where halo exchange, allreduce and pack/unpack do real work",
		grid: [3]int{32, 32, 32}, smoke: [3]int{12, 12, 12}, mech: "air2", bands: defaultBands, periodic: true,
		problem: airProblem, run: runRanks2, windows: 4, na: unarmedStepOnly, goldenAs: "air_box3d",
	},
	{
		name: "restart_io", roundSec: 4 * 0.125,
		why:  "48^3 H2 block saved and loaded through memory, checked bit for bit: checkpoint and sdf work, step layers none",
		grid: [3]int{48, 48, 48}, smoke: [3]int{12, 12, 12}, mech: "h2", bands: defaultBands,
		problem: restartProblem, run: runRestart, na: []string{"armed_cpu_ratio"},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runCtx carries one child run's inputs and collects its outputs.
type runCtx struct {
	w       *workload
	seed    int64
	seconds float64
	smoke   bool
	trace   bool
	workdir string    // scratch directory inside the checkout
	pace    *pacer    // reference spins around every timed operation
	rec     *recorder // nil when untraced
	root    int       // the run's root span
	golden  map[string]summary

	chk     checker
	e2e     map[string]float64
	layer   map[string]float64
	samples map[string]int // sample count behind a metric's median
	info    []string       // lines printed as information, not gated
	digest  string         // CRC-64 of the final conserved bank: information
}

func (rc *runCtx) dims() [3]int {
	if rc.smoke {
		return rc.w.smoke
	}
	return rc.w.grid
}

func (rc *runCtx) gridPoints() int {
	d := rc.dims()
	return d[0] * d[1] * d[2]
}

// rounds turns -seconds into the run's fixed count of rounds. A traced
// run takes half, leaving the rest of its time to the layer probes.
func (rc *runCtx) rounds() int {
	if rc.smoke {
		return 1
	}
	n := int(math.Round(rc.seconds / rc.w.roundSec))
	if rc.trace {
		n = (n + 1) / 2
	}
	return max(n, 1)
}

// finalSteps is the step count a run ends at when no window fails: the
// warm-up window and the measured ones. It is part of the golden key.
func (rc *runCtx) finalSteps() int {
	if rc.w.windows == 0 {
		return 0
	}
	return window * (1 + rc.w.windows*rc.rounds())
}

func (rc *runCtx) setups() int {
	if rc.smoke {
		return 1
	}
	return setups
}

func (rc *runCtx) notef(format string, args ...any) {
	rc.info = append(rc.info, fmt.Sprintf(format, args...))
}

// --- problems --------------------------------------------------------

// liftedProblem is the paper's §6 lifted jet; the seed drives the inflow
// turbulence.
func liftedProblem(seed int64, g [3]int) (*s3d.Problem, error) {
	return s3d.LiftedJetProblem(s3d.LiftedJetOptions{Nx: g[0], Ny: g[1], Nz: g[2], IgnitionKernel: true, Seed: seed})
}

// modes is a seeded sum of low-wavenumber Fourier modes, periodic over a
// cube of side l, with values in [-1, 1].
type modes struct {
	k     [][3]float64
	phase []float64
}

func newModes(rng *rand.Rand, n int, l float64) *modes {
	m := &modes{}
	for i := 0; i < n; i++ {
		var k [3]float64
		for a := range k {
			k[a] = 2 * math.Pi / l * float64(rng.Intn(5)-2) // wavenumbers −2…2: resolved at 12 points
		}
		if k == [3]float64{} {
			k[i%3] = 2 * math.Pi / l
		}
		m.k = append(m.k, k)
		m.phase = append(m.phase, 2*math.Pi*rng.Float64())
	}
	return m
}

func (m *modes) at(x, y, z float64) float64 {
	var s float64
	for i, k := range m.k {
		s += math.Sin(k[0]*x + k[1]*y + k[2]*z + m.phase[i])
	}
	return s / float64(len(m.k))
}

// airProblem is a periodic cube of inert air carrying a seeded multi-mode
// velocity, temperature and composition field. Velocities stay far below
// the sound speed, so the stable step, and with it the cost of a window,
// hardly depends on the seed.
func airProblem(seed int64, g [3]int) (*s3d.Problem, error) {
	mech, err := s3d.ParseMechanism("air2", airMechanism)
	if err != nil {
		return nil, err
	}
	const l = 8e-3
	rng := rand.New(rand.NewSource(seed))
	u, v, w, t, o2 := newModes(rng, 6, l), newModes(rng, 6, l), newModes(rng, 6, l), newModes(rng, 6, l), newModes(rng, 6, l)
	iO2, iN2 := mech.SpeciesIndex("O2"), mech.SpeciesIndex("N2")
	return &s3d.Problem{
		Config: s3d.Config{
			Mechanism:    mech,
			Grid:         s3d.GridSpec{Nx: g[0], Ny: g[1], Nz: g[2], Lx: l, Ly: l, Lz: l},
			Pressure:     101325,
			FilterEvery:  window,
			ChemistryOff: true,
		},
		Initial: func(x, y, z float64, s *s3d.State) {
			s.U, s.V, s.W = 12*u.at(x, y, z), 12*v.at(x, y, z), 12*w.at(x, y, z)
			s.T = 320 + 40*t.at(x, y, z)
			s.Y[iO2] = 0.233 + 0.03*o2.at(x, y, z)
			s.Y[iN2] = 1 - s.Y[iO2]
		},
	}, nil
}

// restartProblem is a periodic H2/air block whose nine species are all
// present everywhere, so the checkpoint carries no runs of zeros.
func restartProblem(seed int64, g [3]int) (*s3d.Problem, error) {
	mech := s3d.HydrogenAir()
	ns := mech.NumSpecies()
	const l = 12e-3
	rng := rand.New(rand.NewSource(seed))
	t, u := newModes(rng, 6, l), newModes(rng, 6, l)
	ys := make([]*modes, ns)
	for i := range ys {
		ys[i] = newModes(rng, 4, l)
	}
	base := make([]float64, ns)
	for i := range base {
		base[i] = 0.01
	}
	base[mech.SpeciesIndex("H2")], base[mech.SpeciesIndex("O2")], base[mech.SpeciesIndex("N2")] = 0.02, 0.22, 0.69
	return &s3d.Problem{
		Config: s3d.Config{
			Mechanism: mech,
			Grid:      s3d.GridSpec{Nx: g[0], Ny: g[1], Nz: g[2], Lx: l, Ly: l, Lz: l},
			Pressure:  101325,
		},
		Initial: func(x, y, z float64, s *s3d.State) {
			s.U, s.V, s.W = 5*u.at(x, y, z), 0, 0
			s.T = 900 + 200*t.at(x, y, z)
			var sum float64
			for i := range s.Y {
				s.Y[i] = base[i] * (1 + 0.3*ys[i].at(x, y, z))
				sum += s.Y[i]
			}
			for i := range s.Y {
				s.Y[i] /= sum
			}
		},
	}, nil
}

// --- the measured loop -----------------------------------------------

// guard runs fn and turns a panic (the solver's historical contract for an
// unrecoverable state) into an error, so it counts as a failed operation.
func guard(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// phase is the raw record of a measured stepping phase of one simulation.
type phase struct {
	wall, cpu []float64 // seconds per window, scaled to the quiet reference host
	raw       []float64 // wall seconds per window as the clock read them
	busy      float64   // raw wall seconds inside the timed operations
	stableDt  []float64 // raw seconds per StableDt refresh
	total     float64   // raw wall seconds of the phase: refreshes and loop, not the reference spins
	simTime   float64   // simulated seconds advanced
	steps     int
	// Traced runs only:
	regions   map[string]time.Duration // exclusive region time over the phase
	mallocs   uint64
	allocB    uint64
	gcPauseNs uint64
}

// add appends one sample, the timing of the given number of steps, as the
// cost of a window.
func (ph *phase) add(t timing, steps int) {
	perWindow := float64(window) / float64(steps)
	ph.wall, ph.cpu = append(ph.wall, t.normWall()*perWindow), append(ph.cpu, t.normCPU()*perWindow)
	ph.raw = append(ph.raw, t.wall*perWindow)
	ph.busy += t.wall
}

// phaseStart is what a traced phase reads before its first window.
type phaseStart struct {
	sim     *s3d.Simulation
	t0sim   float64
	regions *perf.Timers
	mem     runtime.MemStats
}

func (rc *runCtx) startPhase(sim *s3d.Simulation) phaseStart {
	ps := phaseStart{sim: sim, t0sim: sim.Time()}
	if rc.trace {
		ps.regions = sim.PerfTimers().Snapshot()
		runtime.ReadMemStats(&ps.mem)
	}
	return ps
}

// finish fills the phase's deltas: simulated time, and in a traced run the
// program's own always-on region timers and the allocator's counters.
func (rc *runCtx) finish(ps phaseStart, ph *phase) {
	ph.simTime = ps.sim.Time() - ps.t0sim
	if !rc.trace {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ph.mallocs, ph.allocB, ph.gcPauseNs = m.Mallocs-ps.mem.Mallocs, m.TotalAlloc-ps.mem.TotalAlloc, m.PauseTotalNs-ps.mem.PauseTotalNs
	ph.regions = map[string]time.Duration{}
	for _, r := range ps.sim.PerfTimers().Snapshot().Regions() {
		d := r.Exclusive
		if b := ps.regions.Region(r.Name); b != nil {
			d -= b.Exclusive
		}
		ph.regions[r.Name] = d
	}
}

// measure advances sim through the given number of windows, refreshing
// dt = dtFactor·stableDt() every second window, as the drivers do. Each
// window is one operation; the loop stops at the first failed one, because
// the state is gone.
func (rc *runCtx) measure(sim *s3d.Simulation, advance func(dt float64) error, stableDt func() float64, windows int) phase {
	var ph phase
	ps := rc.startPhase(sim)
	parent := rc.rec.begin(rc.root, "bench.measure")
	start, spun := time.Now(), rc.pace.spent
	var dt float64
	for w := 0; w < windows; w++ {
		if w%2 == 0 {
			t := time.Now()
			rc.rec.do(parent, "s3d.StableDt", func() { dt = dtFactor * stableDt() })
			ph.stableDt = append(ph.stableDt, time.Since(t).Seconds())
		}
		var err error
		ph.add(rc.pace.timed(func() {
			rc.rec.do(parent, "s3d.Advance", func() { err = advance(dt) })
		}), window)
		rc.chk.op(err == nil, "window %d: %v", w, err)
		if err != nil {
			break
		}
		ph.steps += window
	}
	ph.total = time.Since(start).Seconds() - (rc.pace.spent - spun)
	rc.rec.end(parent)
	rc.finish(ps, &ph)
	return ph
}

// msSeries prints seconds as milliseconds, for the information lines that
// let a reader see a run's drift and outliers, not only its median.
func msSeries(sec []float64) string {
	var b strings.Builder
	for _, s := range sec {
		fmt.Fprintf(&b, " %.1f", s*1e3)
	}
	return b.String()
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

// stepMetrics turns a phase into the step metrics.
func (rc *runCtx) stepMetrics(ph phase) {
	gp := float64(rc.gridPoints())
	perStep := func(sec float64) float64 { return sec / window / gp * 1e6 }
	rc.e2e["us_per_gp_step"] = perStep(median(ph.wall))
	rc.e2e["cpu_us_per_gp_step"] = perStep(median(ph.cpu))
	rc.samples["us_per_gp_step"], rc.samples["cpu_us_per_gp_step"] = len(ph.wall), len(ph.cpu)
	rc.notef("window wall ms as clocked, in order:%s", msSeries(ph.raw))
	rc.notef("window wall ms at the quiet reference host:%s", msSeries(ph.wall))
	if !rc.trace || ph.steps == 0 {
		return
	}
	l := rc.layer
	// The traced run's own ledger number: minus the untraced run's
	// us_per_gp_step at the same seed, it is the tracing overhead.
	l["s3d.us_per_gp_step_traced"] = rc.e2e["us_per_gp_step"]
	l["s3d.sim_us_per_wall_s"] = ph.simTime * 1e6 / ph.total
	l["s3d.stable_dt_ms"] = median(ph.stableDt) * 1e3
	l["s3d.loop_unattributed_frac"] = 1 - (ph.busy+sum(ph.stableDt))/ph.total
	l["s3d.allocs_per_step"] = float64(ph.mallocs) / float64(ph.steps)
	l["s3d.alloc_kb_per_step"] = float64(ph.allocB) / 1024 / float64(ph.steps)
	l["s3d.gc_pause_ms_total"] = float64(ph.gcPauseNs) / 1e6
	p90, _ := resolvedPercentile(ph.raw, 90) // 0 unless ten windows lie beyond it
	l["s3d.window_ms_p90"] = p90 * 1e3
	var attributed time.Duration
	for name, d := range ph.regions {
		attributed += d
		l["solver.region."+name+"_frac"] = d.Seconds() / ph.total
	}
	l["solver.region.attributed_frac"] = attributed.Seconds() / ph.total
}

// --- checkpoint cycles -----------------------------------------------

// ckptResult is the record of a run of save→load cycles.
type ckptResult struct {
	save, load, cpu []float64 // seconds per cycle, scaled to the quiet reference host
	bytes           int
}

// ckptGroup is how many cycles share one pair of reference spins: a cycle is
// far shorter than a window, so one spin per cycle would be half the run.
const ckptGroup = 8

// ckptCycles saves sim into a reused in-memory buffer and loads it back, n
// times. Each cycle is one operation; it passes when both calls succeed and
// the conserved bank's digest after the load equals the one before the first
// save. Disk is left out on purpose: file-backed medians moved 15 % from run
// to run on this host.
func (rc *runCtx) ckptCycles(sim *s3d.Simulation, n int) (ckptResult, error) {
	var res ckptResult
	snap, err := takeSnapshot(sim)
	if err != nil {
		return res, err
	}
	want := snap.digest()
	var buf bytes.Buffer
	parent := rc.rec.begin(rc.root, "bench.ckpt_cycles")
	defer rc.rec.end(parent)
	var before float64
	for i := 0; i < n; i++ {
		if i%ckptGroup == 0 {
			before = rc.pace.begin()
		}
		buf.Reset()
		var saveErr, loadErr error
		c0, t0 := cpuSeconds(), time.Now()
		rc.rec.do(parent, "s3d.SaveCheckpoint", func() { saveErr = sim.SaveCheckpoint(&buf) })
		t1 := time.Now()
		rc.rec.do(parent, "s3d.LoadCheckpoint", func() { loadErr = sim.LoadCheckpoint(bytes.NewReader(buf.Bytes())) })
		t2 := time.Now()
		res.cpu = append(res.cpu, cpuSeconds()-c0)
		res.save = append(res.save, t1.Sub(t0).Seconds())
		res.load = append(res.load, t2.Sub(t1).Seconds())
		res.bytes = buf.Len()
		after := "unreadable"
		if err := snap.fill(sim, [3]int{}); err == nil {
			after = snap.digest()
		}
		rc.chk.op(saveErr == nil && loadErr == nil && after == want,
			"checkpoint cycle %d: save %v, load %v, digest %s → %s", i, saveErr, loadErr, want, after)
		if (i+1)%ckptGroup == 0 || i == n-1 {
			f := rc.pace.factor(before)
			for j := i - i%ckptGroup; j <= i; j++ {
				res.save[j], res.load[j], res.cpu[j] = res.save[j]*f, res.load[j]*f, res.cpu[j]*f
			}
		}
	}
	return res, nil
}

// --- verification ----------------------------------------------------

// goldenKey names the pinned final state of this run's problem, grid and
// seed after the given number of steps.
func (rc *runCtx) goldenKey(steps int) string {
	name := rc.w.name
	if rc.w.goldenAs != "" {
		name = rc.w.goldenAs
	}
	d := rc.dims()
	return fmt.Sprintf("%s/%dx%dx%d/seed=%d/steps=%d", name, d[0], d[1], d[2], rc.seed, steps)
}

// pinned reports whether this run is one golden.json must have an entry
// for: the default seed at the contract's run length.
func (rc *runCtx) pinned() bool {
	return !rc.smoke && rc.seed == defaultSeed && rc.seconds == defaultSeconds
}

// verify checks a final state: finite, inside the bands, mass conserved
// where the boundaries allow it, and equal to the golden reductions. A run
// at another seed or length has no golden entry and skips that comparison;
// a pinned run without one fails, so that an edit to a roundSec or to
// run_seconds cannot switch the only check of the answers' values off.
func (rc *runCtx) verify(snap *snapshot, steps int, mass0 float64) {
	sm := snap.summarize()
	rc.chk.checkState(sm, rc.w.bands)
	if rc.w.periodic {
		drift := relDiff(sm.Mass, mass0)
		rc.chk.op(drift <= 1e-10, "mass drift %.3g exceeds 1e-10", drift)
		rc.notef("mass drift %.3g", drift)
	}
	key := rc.goldenKey(steps)
	switch {
	case rc.chk.checkGolden(rc.golden, key, sm):
		rc.notef("compared with golden %s, tolerance %g", key, goldenTol)
	case rc.pinned():
		rc.chk.op(false, "golden.json has no entry %s (regenerate it with -update-golden)", key)
	}
	out, _ := json.Marshal(sm)
	rc.notef("final state %s: %s", key, out)
	rc.digest = snap.digest()
}

// --- serial step workloads (lifted_h2, air_box3d) ---------------------

// setupSerial builds the problem and the simulation, takes the first
// stable step and runs the warm-up window: everything a user waits for
// before the first measured step.
func (rc *runCtx) setupSerial(parent int) (sim *s3d.Simulation, p *s3d.Problem, mass0 float64, err error) {
	rc.rec.do(parent, "s3d.Problem", func() { p, err = rc.w.problem(rc.seed, rc.dims()) })
	if err != nil {
		return nil, nil, 0, err
	}
	rc.rec.do(parent, "s3d.NewSimulation", func() { sim, err = p.NewSimulation() })
	if err != nil {
		return nil, nil, 0, err
	}
	if rc.w.periodic {
		snap, err := takeSnapshot(sim)
		if err != nil {
			return nil, nil, 0, err
		}
		mass0 = snap.summarize().Mass
	}
	var dt float64
	rc.rec.do(parent, "s3d.StableDt", func() { dt = dtFactor * sim.StableDt() })
	rc.rec.do(parent, "s3d.Advance", func() { err = guard(func() { sim.Advance(window, dt) }) })
	return sim, p, mass0, err
}

// settleHeap collects garbage and returns the freed memory to the operating
// system, so that what follows starts from the heap a fresh process would
// have. Without it the next simulation's arena lands either in the previous
// one's memory or in new memory, by the timing of the background scavenger,
// and peak RSS (175 or 248 MB on lifted_h2) and window cost came out bimodal.
func settleHeap() { debug.FreeOSMemory() }

// medianSetup runs build `setups` times and records the median duration as
// setup_s; the last build's products are the ones the run goes on with.
// release drops the previous build's products first, so that peak memory is
// one setup's and not two.
func (rc *runCtx) medianSetup(release func(), build func(parent int) error) error {
	var secs []float64
	for i := 0; i < rc.setups(); i++ {
		release()
		settleHeap()
		parent := rc.rec.begin(rc.root, "bench.setup")
		var err error
		secs = append(secs, rc.pace.timed(func() { err = build(parent) }).normWall())
		rc.rec.end(parent)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	rc.e2e["setup_s"] = median(secs)
	rc.samples["setup_s"] = len(secs)
	return nil
}

func runSerial(rc *runCtx) error {
	var sim *s3d.Simulation
	var prob *s3d.Problem
	var mass0 float64
	err := rc.medianSetup(func() { sim, prob = nil, nil }, func(parent int) (err error) {
		sim, prob, mass0, err = rc.setupSerial(parent)
		return err
	})
	if err != nil {
		return err
	}
	advance := func(dt float64) error { return guard(func() { sim.Advance(window, dt) }) }
	ph := rc.measure(sim, advance, sim.StableDt, rc.w.windows*rc.rounds())
	rc.stepMetrics(ph)
	snap, err := takeSnapshot(sim)
	if err != nil {
		return err
	}
	rc.verify(snap, window+ph.steps, mass0)
	if rc.trace {
		rc.gridMetrics(sim)
		return rc.probeLayers(prob)
	}
	return nil
}

// --- lifted_h2_armed --------------------------------------------------

// armed is the instrumented twin: all six layers at cadence 1.
type armed struct {
	sim   *s3d.Simulation
	probe *s3d.Probe
	trace countingWriter
	// The records the three subscribed layers emitted; tallied in traced
	// runs only, where the callbacks marshal each record to size it.
	insitu, cost, crit tally
}

// tally counts records and their JSON bytes.
type tally struct{ records, bytes int }

// mean is the bytes of an average record.
func (t tally) mean() float64 {
	if t.records == 0 {
		return 0
	}
	return float64(t.bytes) / float64(t.records)
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// advance takes steps through the telemetry probe with the watchdog's checks
// on, as cmd/liftedflame does when both are enabled.
func (a *armed) advance(steps int, dt float64) error {
	var err error
	if perr := guard(func() { err = a.probe.TryAdvance(steps, dt) }); perr != nil {
		return perr
	}
	return err
}

// arm enables the call-path profiler, the health watchdog, the standard
// in-situ analysis, cost maps, the critical-path analyzer and telemetry
// (trace to a counting io.Discard), in the order cmd/liftedflame uses.
func arm(sim *s3d.Simulation, p *s3d.Problem, countRecords bool) (*armed, error) {
	a := &armed{sim: sim}
	sim.EnableProfiling(s3d.NewProfiler(), "rank0")
	// Only the two species trip bands are widened, exactly as
	// BenchmarkHealthOverhead does for this under-resolved case.
	hc := s3d.HealthDefaults()
	hc.SpeciesSum = health.Above(0.1, 0.5)
	hc.SpeciesBounds = health.Range(-0.1, 1.1, -0.5, 1.5)
	sim.EnableHealth(s3d.HealthOptions{Config: &hc})
	size := func(t *tally, rec any) {
		if countRecords {
			b, _ := json.Marshal(rec)
			t.records, t.bytes = t.records+1, t.bytes+len(b)
		}
	}
	if _, err := sim.EnableAnalysis(p.StandardAnalysis()); err != nil {
		return nil, err
	}
	if err := sim.Subscribe(func(r s3d.AnalysisRecord) { size(&a.insitu, r) }); err != nil {
		return nil, err
	}
	if _, err := sim.EnableCostMaps(s3d.CostSpec{Every: 1}); err != nil {
		return nil, err
	}
	if err := sim.SubscribeCost(func(r s3d.CostRecord) { size(&a.cost, r) }); err != nil {
		return nil, err
	}
	if err := sim.EnableCritPath(s3d.NewCritPathAnalyzer(s3d.CritPathSpec{Every: 1})); err != nil {
		return nil, err
	}
	if err := sim.SubscribeCritPath(func(r s3d.CritPathRecord) { size(&a.crit, r) }); err != nil {
		return nil, err
	}
	var w io.Writer = &a.trace
	probe, err := sim.StartTelemetry(s3d.TelemetryOptions{Case: "benchmark", Trace: obs.NewTrace(w)})
	if err != nil {
		return nil, err
	}
	a.probe = probe
	return a, nil
}

func runArmed(rc *runCtx) error {
	var off *s3d.Simulation
	var prob *s3d.Problem
	var on *armed
	err := rc.medianSetup(func() { off, prob, on = nil, nil, nil }, func(parent int) error {
		var err error
		if off, prob, _, err = rc.setupSerial(parent); err != nil {
			return err
		}
		// The twin: the same problem (its closures are pure functions of
		// their arguments), armed before its first step.
		sim, err := prob.NewSimulation()
		if err != nil {
			return err
		}
		rc.rec.do(parent, "s3d.Enable", func() { on, err = arm(sim, prob, rc.trace) })
		if err != nil {
			return err
		}
		// Both twins follow one trajectory, so the un-armed twin's warm-up
		// step (taken from the same initial state) is the armed twin's too.
		var dt float64
		rc.rec.do(parent, "s3d.StableDt", func() { dt = dtFactor * sim.StableDt() })
		rc.rec.do(parent, "s3d.Probe.TryAdvance", func() { err = on.advance(window, dt) })
		return err
	})
	if err != nil {
		return err
	}

	// ABBA at the grain of one step: un-armed, armed, armed, un-armed, `window`
	// times a round, so each twin takes two windows a round under one dt taken
	// from the un-armed twin (the PR-8 benchCPUOverhead protocol). Both twins
	// take the same steps of the same trajectory, so the filter falls on both
	// sides alike. The ratio is taken from raw CPU seconds: the host drifts
	// little across the 0.4 s of a quad and what is left cancels in it, where
	// a reference factor per operation would add its own noise to a signal of
	// 2 %. The spins bracket the round instead and scale the armed twin's
	// cost for the step metrics. The phase record is the armed twin's.
	var ph phase
	var cost []float64 // raw CPU seconds of every step, both twins, in order
	var side []bool    // true where the step was the armed twin's
	var offWall float64
	ps := rc.startPhase(on.sim)
	traceBytes0 := on.trace.n
	parent := rc.rec.begin(rc.root, "bench.measure")
	start, spun := time.Now(), rc.pace.spent
rounds:
	for r, n := 0, rc.rounds(); r < n; r++ {
		var dt float64
		t := time.Now()
		rc.rec.do(parent, "s3d.StableDt", func() { dt = dtFactor * off.StableDt() })
		ph.stableDt = append(ph.stableDt, time.Since(t).Seconds())
		// StableDt refreshes the primitives, and each refresh re-seeds the
		// temperature Newton iteration; the armed twin must see the same
		// calls or the twins drift apart in the last bits.
		if dtFactor*on.sim.StableDt() != dt {
			rc.chk.op(false, "round %d: the twins disagree on the stable step", r)
			break
		}
		var armedCost timing
		before := rc.pace.begin()
		for q := 0; q < window; q++ {
			for i, armedSide := range []bool{false, true, true, false} {
				var err error
				tm := clocked(func() {
					if armedSide {
						rc.rec.do(parent, "s3d.Probe.TryAdvance", func() { err = on.advance(1, dt) })
					} else {
						rc.rec.do(parent, "s3d.Advance", func() { err = guard(func() { off.Advance(1, dt) }) })
					}
				})
				rc.chk.op(err == nil, "round %d quad %d step %d: %v", r, q, i, err)
				if err != nil {
					break rounds
				}
				cost, side = append(cost, tm.cpu), append(side, armedSide)
				if armedSide {
					armedCost.wall, armedCost.cpu = armedCost.wall+tm.wall, armedCost.cpu+tm.cpu
				} else {
					offWall += tm.wall
				}
			}
		}
		armedCost.factor = rc.pace.factor(before)
		ph.add(armedCost, 2*window)
		ph.steps += 2 * window
	}
	ph.total = time.Since(start).Seconds() - (rc.pace.spent - spun) - offWall
	rc.rec.end(parent)
	rc.finish(ps, &ph)
	rc.stepMetrics(ph)
	rc.e2e["armed_cpu_ratio"], rc.samples["armed_cpu_ratio"] = abbaRatio(cost, side)
	rc.notef("ABBA raw cpu ms per step (un-armed, armed, armed, un-armed per quad):%s", msSeries(cost))

	// Instrumentation must observe, never steer: the twins end bit-equal.
	snapOff, err := takeSnapshot(off)
	if err != nil {
		return err
	}
	snapOn, err := takeSnapshot(on.sim)
	if err != nil {
		return err
	}
	dOff, dOn := snapOff.digest(), snapOn.digest()
	rc.chk.op(dOff == dOn, "armed twin's state %s differs from the un-armed twin's %s", dOn, dOff)
	rc.verify(snapOff, window+ph.steps, 0)
	closeErr := on.probe.Close("benchmark done")
	rc.chk.op(closeErr == nil, "telemetry close: %v", closeErr)

	if rc.trace {
		if ph.steps > 0 {
			rc.layer["obs.trace_bytes_per_step"] = float64(on.trace.n-traceBytes0) / float64(ph.steps)
		}
		rc.layer["insitu.record_bytes"] = on.insitu.mean()
		rc.layer["cost.record_bytes"] = on.cost.mean()
		rc.layer["critpath.record_bytes"] = on.crit.mean()
		rc.gridMetrics(on.sim)
		return rc.probeLayers(prob)
	}
	return nil
}

// --- air_box3d_ranks2 -------------------------------------------------

func runRanks2(rc *runCtx) error {
	dims := rc.dims()
	windows := rc.w.windows * rc.rounds()
	var (
		prob        *s3d.Problem
		ph          phase
		alloc       sync.Once
		first, last *snapshot // state before the warm-up and after the last window
		rankErr     [2]error
		setupSecs   []float64
	)
	// The last setup runs on into the measured phase inside RunDecomposed, so
	// the lead rank stops the setup clock itself instead of medianSetup.
	for i := 0; i < rc.setups(); i++ {
		final := i == rc.setups()-1
		settleHeap()
		setup := rc.rec.begin(rc.root, "bench.setup")
		before, t0 := rc.pace.begin(), time.Now()
		var err error
		rc.rec.do(setup, "s3d.Problem", func() { prob, err = rc.w.problem(rc.seed, dims) })
		if err != nil {
			return err
		}
		err = s3d.RunDecomposed(prob.Config, [3]int{2, 1, 1}, func(r *s3d.RankSim) {
			// The lead rank records spans and operations; the other mirrors
			// its collective calls one for one.
			lead := r.Rank == 0
			var rec *recorder
			if lead {
				rec = rc.rec
			}
			rec.do(setup, "s3d.SetInitial", func() { r.SetInitial(prob.Initial, prob.InitPressure) })
			if final {
				alloc.Do(func() {
					first = newSnapshot(conservedNames(r.Simulation), dims)
					last = newSnapshot(first.names, dims)
				})
				rankErr[r.Rank] = first.fill(r.Simulation, r.Offset)
			}
			var dt float64
			rec.do(setup, "s3d.StableDtGlobal", func() { dt = dtFactor * r.StableDtGlobal() })
			rec.do(setup, "s3d.Advance", func() { r.Advance(window, dt) })
			if lead {
				sec := time.Since(t0).Seconds()
				setupSecs = append(setupSecs, sec*rc.pace.factor(before))
				rec.end(setup)
			}
			if !final {
				return
			}
			// A rank that recovered from a panic would leave its peer blocked
			// in the halo exchange, so windows run unguarded here: a panic
			// aborts the world and fails the whole run.
			if lead {
				advance := func(dt float64) error { r.Advance(window, dt); return nil }
				ph = rc.measure(r.Simulation, advance, r.StableDtGlobal, windows)
			} else {
				for w := 0; w < windows; w++ {
					if w%2 == 0 {
						dt = dtFactor * r.StableDtGlobal()
					}
					r.Advance(window, dt)
				}
			}
			if err := last.fill(r.Simulation, r.Offset); err != nil {
				rankErr[r.Rank] = err
			}
			if lead && rc.trace {
				rc.gridMetrics(r.Simulation) // the lead's block: half the box plus its ghosts
			}
		})
		if err != nil {
			return err
		}
	}
	for _, err := range rankErr {
		if err != nil {
			return err
		}
	}
	rc.e2e["setup_s"], rc.samples["setup_s"] = median(setupSecs), len(setupSecs)
	rc.stepMetrics(ph)
	rc.verify(last, window+ph.steps, first.summarize().Mass)
	if rc.trace {
		return rc.probeLayers(prob)
	}
	return nil
}

// --- restart_io -------------------------------------------------------

func runRestart(rc *runCtx) error {
	var sim *s3d.Simulation
	var prob *s3d.Problem
	err := rc.medianSetup(func() { sim, prob = nil, nil }, func(parent int) (err error) {
		rc.rec.do(parent, "s3d.Problem", func() { prob, err = rc.w.problem(rc.seed, rc.dims()) })
		if err != nil {
			return err
		}
		rc.rec.do(parent, "s3d.NewSimulation", func() { sim, err = prob.NewSimulation() })
		return err
	})
	if err != nil {
		return err
	}
	res, err := rc.ckptCycles(sim, 4*rc.rounds())
	if err != nil {
		return err
	}
	mb := float64(res.bytes) / 1e6
	rc.e2e["ckpt_write_MBps"] = mb / median(res.save)
	rc.e2e["ckpt_read_MBps"] = mb / median(res.load)
	rc.samples["ckpt_write_MBps"], rc.samples["ckpt_read_MBps"] = len(res.save), len(res.load)
	rc.notef("checkpoint %.2f MB, %d cycles", mb, len(res.save))
	// The two step metrics are times, and the driver refuses a time that
	// reads the same on every run, so they cannot carry the not-applicable
	// constant: this workload's operation, one save→load cycle, stands in
	// for the step.
	gp := float64(rc.gridPoints())
	wall := make([]float64, len(res.save))
	for i := range wall {
		wall[i] = res.save[i] + res.load[i]
	}
	rc.e2e["us_per_gp_step"] = median(wall) / gp * 1e6
	rc.e2e["cpu_us_per_gp_step"] = median(res.cpu) / gp * 1e6
	rc.samples["us_per_gp_step"], rc.samples["cpu_us_per_gp_step"] = len(wall), len(res.cpu)
	rc.notef("cycle save ms, in order:%s", msSeries(res.save))
	rc.notef("cycle load ms, in order:%s", msSeries(res.load))

	// The cycles above load what they just saved, which a loader that did
	// nothing would pass. So once: save, overwrite the state with another
	// seed's, and require the load to bring the saved bits back.
	snap, err := takeSnapshot(sim)
	if err != nil {
		return err
	}
	saved := snap.digest()
	var buf bytes.Buffer
	saveErr := sim.SaveCheckpoint(&buf)
	other, err := rc.w.problem(rc.seed+1, rc.dims())
	if err != nil {
		return err
	}
	sim.SetInitial(other.Initial, other.InitPressure)
	if err := snap.fill(sim, [3]int{}); err != nil {
		return err
	}
	overwritten := snap.digest()
	loadErr := sim.LoadCheckpoint(&buf)
	if err := snap.fill(sim, [3]int{}); err != nil {
		return err
	}
	restored := snap.digest()
	rc.chk.op(saveErr == nil && loadErr == nil && overwritten != saved && restored == saved,
		"restore over a foreign state: save %v, load %v, digests saved %s overwritten %s restored %s",
		saveErr, loadErr, saved, overwritten, restored)
	rc.verify(snap, 0, 0)

	if rc.trace {
		rc.layer["s3d.us_per_gp_step_traced"] = rc.e2e["us_per_gp_step"]
		p90, _ := resolvedPercentile(wall, 90)
		rc.layer["s3d.window_ms_p90"] = p90 * 1e3
		rc.gridMetrics(sim)
		return rc.probeLayers(prob)
	}
	return nil
}

// gridMetrics reports the field registry's size; exact, computed from
// Simulation.Fields() and the ghost depth.
func (rc *runCtx) gridMetrics(sim *s3d.Simulation) {
	doc := sim.FieldsDocument()
	points := 1
	for _, n := range doc.Grid {
		points *= n + 2*doc.Ghost // ghost layers on every axis, degenerate ones too
	}
	var bytes, fields int
	for _, f := range doc.Fields {
		if !f.Derived {
			fields++
			bytes += points * f.Width
		}
	}
	rc.layer["grid.fields"] = float64(fields)
	rc.layer["grid.arena_mb"] = float64(bytes) / 1e6
}
