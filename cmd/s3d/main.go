// Command s3d is the general DNS driver: it runs one of the built-in
// problems (liftedjet, bunsen-a/b/c, or a periodic inert box) for a number
// of steps, optionally over a multi-rank domain decomposition, periodically
// reporting min/max monitoring quantities and writing SDF checkpoints.
//
// Observability (see README.md "Observability"): -trace writes one JSONL
// record per solver step, -monitor serves the live metrics over HTTP,
// -perf-report prints the figure-2-style per-region timer breakdown
// (rank-aggregated via Snapshot/Merge in decomposed runs), and -profile
// records the call-path profiler and writes its artifacts — a Chrome
// trace_event timeline, the inclusive/exclusive call-path report and the
// measured-vs-modelled roofline table — into the given directory.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/cost"
	"github.com/s3dgo/s3d/internal/critpath"
	"github.com/s3dgo/s3d/internal/insitu"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/pario"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
	"github.com/s3dgo/s3d/internal/sdf"
)

func main() {
	// Tests drive main() more than once in-process; a fresh FlagSet keeps
	// the registrations from colliding.
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	problem := flag.String("problem", "liftedjet", "liftedjet | bunsen-a | bunsen-b | bunsen-c | box")
	nx := flag.Int("nx", 72, "streamwise grid points")
	ny := flag.Int("ny", 54, "transverse grid points")
	nz := flag.Int("nz", 1, "spanwise grid points")
	steps := flag.Int("steps", 100, "time steps")
	ranks := flag.String("ranks", "", "decomposition as PXxPYxPZ (empty = serial)")
	ckptEvery := flag.Int("checkpoint", 0, "write an SDF checkpoint every N steps (0: off)")
	resume := flag.String("resume", "", "restart file to resume from (bit-exact continuation)")
	outDir := flag.String("out", "out_s3d", "output directory")
	tracePath := flag.String("trace", "", "write a JSONL step trace to this file")
	monitorAddr := flag.String("monitor", "", "serve live metrics over HTTP on this address (e.g. :8080)")
	perfReport := flag.Bool("perf-report", false, "print the per-region timer breakdown at exit")
	profileDir := flag.String("profile", "", "record the call-path profiler and write trace.json/callpath/roofline artifacts to this directory")
	workers := flag.Int("workers", 0, "kernel worker-pool size, shared across in-process ranks (0: all CPUs)")
	healthOn := flag.Bool("health", false, "arm the run-health watchdog: physics invariants per step, structured abort with a post-mortem bundle instead of a panic")
	flightRec := flag.String("flightrec", "", "flight-recorder bundle directory (default <out>/health when -health)")
	injectNaN := flag.Int("inject-nan", 0, "plant a NaN in the conserved energy at the start of step N (watchdog test hook; implies -health)")
	analysisPath := flag.String("analysis", "", "enable the in-situ science-reduction pipeline and append its records (JSONL) to this file")
	analysisEvery := flag.Int("analysis-every", 1, "analysis reduction cadence in steps")
	costPath := flag.String("cost", "", "enable the spatial cost-attribution sampler and append its records (JSONL) to this file")
	costEvery := flag.Int("cost-every", 1, "cost reduction cadence in steps")
	critPath := flag.String("critpath", "", "enable the cross-rank wait-state & critical-path analyzer and append its records (JSONL) to this file; a Chrome-trace overlay lands next to it as critpath_trace.json")
	critEvery := flag.Int("critpath-every", 1, "critical-path analysis cadence in steps")
	straggle := flag.Duration("straggle", 0, "slow one rank's chemistry by this much per RK stage (the highest rank in decomposed runs; critpath/cost validation hook)")
	lbOn := flag.Bool("lb", false, "enable dynamic load balancing: cost-weighted tile planning plus cross-rank chemistry work-sharing in decomposed runs (bitwise identical to the unbalanced run)")
	lbEvery := flag.Int("lb-every", 10, "load-balance re-plan cadence in steps")
	flag.Parse()

	if *injectNaN > 0 {
		*healthOn = true
	}
	if *healthOn && *flightRec == "" {
		*flightRec = filepath.Join(*outDir, "health")
	}
	s3d.SetWorkers(*workers)
	prob := buildProblem(*problem, *nx, *ny, *nz)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	var tr *obs.Trace
	if *tracePath != "" {
		var err error
		if tr, err = obs.CreateTrace(*tracePath); err != nil {
			log.Fatal(err)
		}
		defer tr.Close()
	}
	telemetryOn := tr != nil || *monitorAddr != "" || *perfReport

	if *ranks != "" {
		runDecomposed(prob, *ranks, *steps, tr, *monitorAddr, *perfReport, *profileDir,
			*healthOn, *flightRec, *injectNaN, *analysisPath, *analysisEvery, *costPath, *costEvery,
			*critPath, *critEvery, *straggle, *lbOn, *lbEvery)
		return
	}
	sim, err := prob.NewSimulation()
	if err != nil {
		log.Fatal(err)
	}
	var profiler *prof.Profiler
	if *profileDir != "" {
		profiler = s3d.NewProfiler()
		sim.EnableProfiling(profiler, "rank0")
	}
	// Before StartTelemetry, so the probe mounts /health and the gauges.
	if *healthOn {
		sim.EnableHealth(s3d.HealthOptions{BundleDir: *flightRec, EmergencyCheckpoint: true})
		if *injectNaN > 0 {
			sim.InjectNaN(*injectNaN)
		}
	}
	// Likewise the analysis pipeline: enabled before StartTelemetry so the
	// probe mounts /analysis and the analysis_* gauges.
	if *analysisPath != "" {
		store := enableAnalysis(sim, prob, *analysisPath, *analysisEvery)
		defer closeAnalysisStore(store, *analysisPath)
	}
	// And the cost sampler: enabled before StartTelemetry so the probe
	// mounts /cost and the cost_* gauges.
	if *costPath != "" {
		store := enableCost(sim, *costPath, *costEvery)
		defer closeCostStore(store, *costPath)
	}
	// The load balancer folds the sampler's records into weight profiles
	// (installing the sampler itself when -cost is off); balanced runs stay
	// bitwise identical to unbalanced ones.
	if *lbOn {
		if err := sim.EnableLoadBalance(s3d.LoadBalanceSpec{Every: *lbEvery}); err != nil {
			log.Fatal(err)
		}
	}
	// And the critpath analyzer, same ordering rule; serial runs still get
	// per-step blame (no message edges, but the step window and regions).
	if *critPath != "" {
		critA := s3d.NewCritPathAnalyzer(s3d.CritPathSpec{Every: *critEvery})
		store := enableCritPath(sim, critA, *critPath)
		defer closeCritPathStore(store, *critPath)
		defer writeCritPathOverlay(sim.WriteCritPathTrace, *critPath)
	}
	if *straggle > 0 {
		sim.InjectStraggler(*straggle)
	}
	if *resume != "" {
		in, err := os.Open(*resume)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.LoadCheckpoint(in); err != nil {
			log.Fatal(err)
		}
		in.Close()
		fmt.Printf("resumed from %s at step %d, t = %.4g s\n", *resume, sim.Step(), sim.Time())
	}
	// Checkpoint bytes are routed through the §5.1 caching layer when
	// telemetry is on, so the trace carries genuine pario counters.
	ckpt := &checkpointer{outDir: *outDir, throughPario: telemetryOn || profiler != nil}
	if profiler != nil {
		// Checkpoint I/O runs on the goroutine driving the simulation, so
		// its PARIO_* spans ride on the rank's own track.
		ckpt.ptrack = sim.ProfTrack()
	}
	var probe *s3d.Probe
	if telemetryOn {
		if probe, err = sim.StartTelemetry(s3d.TelemetryOptions{
			Case:        *problem,
			Config:      map[string]string{"steps": fmt.Sprint(*steps)},
			Trace:       tr,
			MonitorAddr: *monitorAddr,
			Pario:       ckpt.stats,
		}); err != nil {
			log.Fatal(err)
		}
		if addr := probe.MonitorAddr(); addr != "" {
			fmt.Printf("live monitor on http://%s/status\n", addr)
		}
		if profiler != nil {
			probe.MountProfile(profiler, sim.ProfileShape(), s3d.ProfileMachines())
		}
	}
	dt := 0.4 * sim.StableDt()
	fmt.Printf("problem=%s grid=%dx%dx%d dt=%.3g\n", *problem, *nx, *ny, *nz, dt)
	report := *steps / 10
	if report == 0 {
		report = 1
	}
	advance := func(n int) error {
		switch {
		case probe != nil && *healthOn:
			return probe.TryAdvance(n, dt)
		case probe != nil:
			probe.Advance(n, dt)
		case *healthOn:
			return sim.TryAdvance(n, dt)
		default:
			sim.Advance(n, dt)
		}
		return nil
	}
	for sim.Step() < *steps {
		n := report
		if sim.Step()+n > *steps {
			n = *steps - sim.Step()
		}
		if err := advance(n); err != nil {
			fmt.Printf("health abort: %v\n", err)
			fmt.Printf("post-mortem bundle in %s\n", *flightRec)
			if probe != nil {
				if cerr := probe.Close(fmt.Sprintf("health abort: %v", err)); cerr != nil {
					log.Fatal(cerr)
				}
			}
			return
		}
		tlo, thi, _ := sim.MinMax("T")
		plo, phi, _ := sim.MinMax("p")
		fmt.Printf("step %5d t=%.4g  T=[%.0f,%.0f]  p=[%.0f,%.0f]\n",
			sim.Step(), sim.Time(), tlo, thi, plo, phi)
		if *ckptEvery > 0 && sim.Step()%*ckptEvery == 0 {
			writeAndRecord(ckpt, sim, probe)
		}
	}
	writeAndRecord(ckpt, sim, probe)
	if probe != nil {
		if err := probe.Close("completed"); err != nil {
			log.Fatal(err)
		}
	}
	if *perfReport {
		fmt.Printf("\nper-region timer breakdown (figure-2 style):\n%s", sim.PerfTimers().Report())
		if s3d.Workers() > 1 {
			fmt.Printf("\nworker-pool busy time per kernel (%d workers):\n%s",
				s3d.Workers(), sim.PoolPerfTimers().Report())
		}
	}
	if profiler != nil {
		if err := sim.ExportProfile(*profileDir, profiler, s3d.ProfileMachines()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote profile artifacts to %s (trace.json, callpath.txt, callpath.csv, roofline.txt)\n", *profileDir)
	}
}

// enableAnalysis turns on the problem's standard science-reduction set and
// streams every record into a JSONL store at path.
func enableAnalysis(sim *s3d.Simulation, prob *s3d.Problem, path string, every int) *insitu.Store {
	spec := prob.StandardAnalysis()
	spec.Every = every
	if _, err := sim.EnableAnalysis(spec); err != nil {
		log.Fatal(err)
	}
	store, err := s3d.NewAnalysisStore(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.Subscribe(store.Sink()); err != nil {
		log.Fatal(err)
	}
	return store
}

// closeAnalysisStore flushes the store and reports any dropped appends.
func closeAnalysisStore(store *insitu.Store, path string) {
	if err := store.Err(); err != nil {
		fmt.Printf("analysis store %s dropped records: %v\n", path, err)
	}
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote analysis records to %s\n", path)
}

// enableCost turns on the spatial cost-attribution sampler and streams
// every deterministic record into a JSONL store at path.
func enableCost(sim *s3d.Simulation, path string, every int) *cost.Store {
	if _, err := sim.EnableCostMaps(s3d.CostSpec{Every: every}); err != nil {
		log.Fatal(err)
	}
	store, err := s3d.NewCostStore(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.SubscribeCost(store.Sink()); err != nil {
		log.Fatal(err)
	}
	return store
}

// closeCostStore flushes the store and reports any dropped appends.
func closeCostStore(store *cost.Store, path string) {
	if err := store.Err(); err != nil {
		fmt.Printf("cost store %s dropped records: %v\n", path, err)
	}
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote cost records to %s\n", path)
}

// enableCritPath installs the shared wait-state analyzer on sim and streams
// every analyzed record into a JSONL store at path.
func enableCritPath(sim *s3d.Simulation, a *s3d.CritPathAnalyzer, path string) *critpath.Store {
	if err := sim.EnableCritPath(a); err != nil {
		log.Fatal(err)
	}
	store, err := s3d.NewCritPathStore(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.SubscribeCritPath(store.Sink()); err != nil {
		log.Fatal(err)
	}
	return store
}

// closeCritPathStore flushes the store and reports any dropped appends.
func closeCritPathStore(store *critpath.Store, path string) {
	if err := store.Err(); err != nil {
		fmt.Printf("critpath store %s dropped records: %v\n", path, err)
	}
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote critpath records to %s\n", path)
}

// writeCritPathOverlay exports the Chrome-trace timeline with the
// critical-path overlay lane next to the JSONL store.
func writeCritPathOverlay(write func(io.Writer) error, jsonlPath string) {
	out := filepath.Join(filepath.Dir(jsonlPath), "critpath_trace.json")
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote critical-path Chrome trace to %s\n", out)
}

func writeAndRecord(ckpt *checkpointer, sim *s3d.Simulation, probe *s3d.Probe) {
	paths, err := ckpt.write(sim)
	if err != nil {
		log.Fatal(err)
	}
	if probe != nil {
		for _, p := range paths {
			probe.Checkpoint(p)
		}
	}
}

func buildProblem(name string, nx, ny, nz int) *s3d.Problem {
	switch {
	case name == "liftedjet":
		p, err := s3d.LiftedJetProblem(s3d.LiftedJetOptions{Nx: nx, Ny: ny, Nz: nz, IgnitionKernel: true})
		if err != nil {
			log.Fatal(err)
		}
		return p
	case strings.HasPrefix(name, "bunsen-"):
		id := byte(strings.ToUpper(strings.TrimPrefix(name, "bunsen-"))[0])
		p, err := s3d.BunsenProblem(s3d.BunsenOptions{Case: id, Nx: nx, Ny: ny, Nz: nz, VelocityScale: 0.5})
		if err != nil {
			log.Fatal(err)
		}
		return p
	case name == "box":
		mech := s3d.HydrogenAir()
		yAir := make([]float64, mech.NumSpecies())
		yAir[mech.SpeciesIndex("O2")] = 0.233
		yAir[mech.SpeciesIndex("N2")] = 0.767
		cfg := s3d.Config{
			Mechanism:    mech,
			Grid:         s3d.GridSpec{Nx: nx, Ny: ny, Nz: nz, Lx: 0.01, Ly: 0.01, Lz: 0.01},
			Pressure:     101325,
			ChemistryOff: true,
			FilterEvery:  10,
		}
		return &s3d.Problem{
			Config: cfg,
			Initial: func(x, y, z float64, s *s3d.State) {
				s.T = 300
				copy(s.Y, yAir)
			},
		}
	default:
		log.Fatalf("unknown problem %q", name)
		return nil
	}
}

func runDecomposed(prob *s3d.Problem, ranks string, steps int, tr *obs.Trace, monitorAddr string, perfReport bool, profileDir string,
	healthOn bool, flightRec string, injectNaN int, analysisPath string, analysisEvery int, costPath string, costEvery int,
	critPath string, critEvery int, straggle time.Duration, lbOn bool, lbEvery int) {
	var dims [3]int
	if n, err := fmt.Sscanf(strings.ToLower(ranks), "%dx%dx%d", &dims[0], &dims[1], &dims[2]); n != 3 || err != nil {
		log.Fatalf("bad -ranks %q (want e.g. 2x2x1)", ranks)
	}
	fmt.Printf("decomposed run on %v ranks\n", dims)
	telemetryOn := tr != nil || monitorAddr != ""
	var profiler *prof.Profiler
	var machines []perf.Machine
	if profileDir != "" {
		profiler = s3d.NewProfiler()
		machines = s3d.ProfileMachines()
	}
	// The critpath analyzer is shared by every rank (it is the cross-rank
	// deposit barrier), so it is created here, outside the rank closure —
	// the same pattern as the shared profiler.
	var critA *s3d.CritPathAnalyzer
	if critPath != "" {
		critA = s3d.NewCritPathAnalyzer(s3d.CritPathSpec{Every: critEvery})
	}
	// Rank 0 carries the trace and monitor; every rank contributes its
	// timer snapshot to the aggregate report and its own profiler track.
	var mu sync.Mutex
	agg := perf.NewTimers()
	var poolAgg *perf.Timers
	var shape prof.RunShape
	nRanks := dims[0] * dims[1] * dims[2]
	err := s3d.RunDecomposed(prob.Config, dims, func(r *s3d.RankSim) {
		if profiler != nil {
			r.EnableProfiling(profiler, fmt.Sprintf("rank%d", r.Rank))
			if r.Rank == 0 {
				mu.Lock()
				shape = r.ProfileShape()
				mu.Unlock()
			}
		}
		r.SetInitial(prob.Initial, prob.InitPressure)
		// Every rank must arm at the same point: the armed step loop adds
		// two collectives that have to match across ranks.
		if healthOn {
			r.EnableHealth(s3d.HealthOptions{BundleDir: flightRec, EmergencyCheckpoint: true})
			if injectNaN > 0 && r.Rank == nRanks-1 {
				r.InjectNaN(injectNaN)
			}
		}
		// Analysis too is collective: every rank enables the identical
		// spec; only rank 0 subscribes the store (records agree bitwise
		// across ranks, so one copy suffices).
		if analysisPath != "" {
			spec := prob.StandardAnalysis()
			spec.Every = analysisEvery
			if _, err := r.EnableAnalysis(spec); err != nil {
				panic(err)
			}
			if r.Rank == 0 {
				store, err := s3d.NewAnalysisStore(analysisPath)
				if err != nil {
					panic(err)
				}
				defer closeAnalysisStore(store, analysisPath)
				if err := r.Subscribe(store.Sink()); err != nil {
					panic(err)
				}
			}
		}
		// The cost sampler is collective for the same reason: every rank
		// enables the identical cadence; only rank 0 subscribes the store
		// (the ordered fold makes every rank's record bitwise identical).
		if costPath != "" {
			if _, err := r.EnableCostMaps(s3d.CostSpec{Every: costEvery}); err != nil {
				panic(err)
			}
			if r.Rank == 0 {
				store, err := s3d.NewCostStore(costPath)
				if err != nil {
					panic(err)
				}
				defer closeCostStore(store, costPath)
				if err := r.SubscribeCost(store.Sink()); err != nil {
					panic(err)
				}
			}
		}
		// The critpath analyzer is a collective too: every rank installs the
		// same instance; only rank 0 subscribes the store (the barrier
		// publishes exactly one record per analyzed step).
		if critA != nil {
			if err := r.EnableCritPath(critA); err != nil {
				panic(err)
			}
			if r.Rank == 0 {
				store, err := s3d.NewCritPathStore(critPath)
				if err != nil {
					panic(err)
				}
				defer closeCritPathStore(store, critPath)
				if err := r.SubscribeCritPath(store.Sink()); err != nil {
					panic(err)
				}
			}
		}
		// The load balancer is collective in effect — every rank folds the
		// identical record into identical plans — so every rank enables the
		// identical spec.
		if lbOn {
			if err := r.EnableLoadBalance(s3d.LoadBalanceSpec{Every: lbEvery}); err != nil {
				panic(err)
			}
		}
		// The straggler hook slows the highest rank, so the analyzer (and
		// the cost imbalance analytics) have a known culprit to find.
		if straggle > 0 && r.Rank == nRanks-1 {
			r.InjectStraggler(straggle)
		}
		dt := 0.4 * r.StableDtGlobal()
		var stepErr error
		if r.Rank == 0 && telemetryOn {
			probe, err := r.StartTelemetry(s3d.TelemetryOptions{
				Case:        "decomposed",
				Config:      map[string]string{"ranks": ranks, "steps": fmt.Sprint(steps)},
				Trace:       tr,
				MonitorAddr: monitorAddr,
				Status:      os.Stdout,
			})
			if err != nil {
				panic(err)
			}
			if profiler != nil {
				probe.MountProfile(profiler, r.ProfileShape(), machines)
			}
			exit := "completed"
			if healthOn {
				stepErr = probe.TryAdvance(steps, dt)
				if stepErr != nil {
					exit = fmt.Sprintf("health abort: %v", stepErr)
				}
			} else {
				probe.Advance(steps, dt)
			}
			if err := probe.Close(exit); err != nil {
				panic(err)
			}
		} else if healthOn {
			stepErr = r.TryAdvance(steps, dt)
		} else {
			r.Advance(steps, dt)
		}
		if stepErr != nil {
			fmt.Printf("rank %d health abort: %v\n", r.Rank, stepErr)
			return
		}
		lo, hi, _ := r.MinMax("T")
		fmt.Printf("rank %d offset %v: T=[%.0f,%.0f]\n", r.Rank, r.Offset, lo, hi)
		if lbOn {
			exp, imp := r.LoadBalanceStats()
			fmt.Printf("rank %d load balance: exported %d imported %d cells\n", r.Rank, exp, imp)
		}
		if perfReport {
			mu.Lock()
			agg.Merge(r.PerfTimers().Snapshot())
			if poolAgg == nil {
				// The pool is process-wide, so one snapshot (taken after the
				// ranks finish stepping) covers every rank's tiles.
				poolAgg = r.PoolPerfTimers()
			}
			mu.Unlock()
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if perfReport {
		fmt.Printf("\nper-region timer breakdown aggregated over %d ranks:\n%s", nRanks, agg.Report())
		if s3d.Workers() > 1 && poolAgg != nil {
			fmt.Printf("\nworker-pool busy time per kernel (%d workers shared by %d ranks):\n%s",
				s3d.Workers(), nRanks, poolAgg.Report())
		}
	}
	if profiler != nil {
		if err := prof.Export(profileDir, profiler, shape, machines); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote profile artifacts to %s (trace.json, callpath.txt, callpath.csv, roofline.txt)\n", profileDir)
	}
	if critA != nil {
		writeCritPathOverlay(critA.WriteChromeTrace, critPath)
	}
}

// checkpointer writes restart + analysis files, optionally routing the
// bytes through the pario caching layer so runs exercise (and report on)
// the §5.1 protocol.
type checkpointer struct {
	outDir       string
	throughPario bool
	ptrack       *prof.Track // when non-nil, pario client ops record spans here

	mu    sync.Mutex
	pstat obs.ParioStats
}

// stats returns the accumulated pario counters (Probe's Pario source).
func (c *checkpointer) stats() obs.ParioStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pstat
}

func (c *checkpointer) write(sim *s3d.Simulation) ([]string, error) {
	// A true restart file (full conserved state, bit-exact resume)...
	rst := filepath.Join(c.outDir, fmt.Sprintf("restart-%06d.sdf", sim.Step()))
	var buf bytes.Buffer
	if err := sim.SaveCheckpoint(&buf); err != nil {
		return nil, err
	}
	if err := c.writeFile(rst, buf.Bytes()); err != nil {
		return nil, err
	}
	// ...plus an analysis file with the derived fields the workflow plots:
	// the registry's primitive scalars, streamed row-by-row from the field
	// arena (no per-variable copies).
	f := sdf.New()
	f.Attrs["step"] = fmt.Sprint(sim.Step())
	f.Attrs["time"] = fmt.Sprint(sim.Time())
	for _, name := range sim.AnalysisFields() {
		rows, dims, err := sim.FieldRows(name)
		if err != nil {
			return nil, err
		}
		if err := f.AddVarFunc(name, dims[:], rows); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(c.outDir, fmt.Sprintf("analysis-%06d.sdf", sim.Step()))
	var abuf bytes.Buffer
	if err := f.Encode(&abuf); err != nil {
		return nil, err
	}
	if err := c.writeFile(path, abuf.Bytes()); err != nil {
		return nil, err
	}
	fmt.Println("wrote", rst, "and", path)
	return []string{rst, path}, nil
}

// writeFile lands data on disk, through the caching layer when enabled.
func (c *checkpointer) writeFile(path string, data []byte) error {
	if !c.throughPario || len(data) == 0 {
		return os.WriteFile(path, data, 0o644)
	}
	file := pario.NewSharedFile(int64(len(data)))
	var st obs.ParioStats
	err := comm.NewWorld(1).Run(func(cm *comm.Comm) {
		cl := pario.NewCacheClient(cm, file, pario.CacheConfig{PageBytes: 64 << 10})
		if c.ptrack != nil {
			cl.SetProfiler(c.ptrack)
		}
		const chunk = 8 << 10
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			if err := cl.Write(int64(off), data[off:end]); err != nil {
				panic(err)
			}
		}
		st = cl.Stats()
		cl.Close()
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.pstat.CacheAccesses += st.CacheAccesses
	c.pstat.CacheMisses += st.CacheMisses
	c.pstat.CacheEvictions += st.CacheEvictions
	c.pstat.RemoteForwards += st.RemoteForwards
	c.pstat.CacheHitRate = c.pstat.HitRate()
	c.mu.Unlock()
	return os.WriteFile(path, file.Bytes(), 0o644)
}
