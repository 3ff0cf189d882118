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
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/pario"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
	"github.com/s3dgo/s3d/internal/sdf"
)

// options is the command line: the run settings shared with the other
// drivers (s3d.RunOptions) plus what only this driver has.
type options struct {
	s3d.RunOptions
	problem    string
	nx, ny, nz int
	steps      int
	ranks      string
	ckptEvery  int
	resume     string
	outDir     string
	perfReport bool
	injectNaN  int
	straggle   time.Duration
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	o.BindFlags(fs)
	fs.StringVar(&o.problem, "problem", "liftedjet", "liftedjet | bunsen-a | bunsen-b | bunsen-c | box")
	fs.IntVar(&o.nx, "nx", 72, "streamwise grid points")
	fs.IntVar(&o.ny, "ny", 54, "transverse grid points")
	fs.IntVar(&o.nz, "nz", 1, "spanwise grid points")
	fs.IntVar(&o.steps, "steps", 100, "time steps")
	fs.StringVar(&o.ranks, "ranks", "", "decomposition as PXxPYxPZ (empty = serial)")
	fs.IntVar(&o.ckptEvery, "checkpoint", 0, "write an SDF checkpoint every N steps (0: off; serial runs only)")
	fs.StringVar(&o.resume, "resume", "", "restart file to resume from (bit-exact continuation; serial runs only)")
	fs.StringVar(&o.outDir, "out", "out_s3d", "output directory")
	fs.BoolVar(&o.perfReport, "perf-report", false, "print the per-region timer breakdown at exit")
	fs.IntVar(&o.injectNaN, "inject-nan", 0, "plant a NaN in the conserved energy at the start of step N (watchdog test hook; implies -health)")
	fs.DurationVar(&o.straggle, "straggle", 0, "slow one rank's chemistry by this much per RK stage (the highest rank in decomposed runs; critpath/cost validation hook)")
	return o
}

func main() {
	// Tests drive main() more than once in-process, so the flags live on a
	// FlagSet of their own.
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	o := bindFlags(fs)
	fs.Parse(os.Args[1:])

	if o.injectNaN > 0 {
		o.Health = true
	}
	dims, err := o.decomposition()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	run, err := o.Open(o.outDir, "")
	if err != nil {
		log.Fatal(err)
	}
	prob := buildProblem(o.problem, o.nx, o.ny, o.nz)
	if o.ranks != "" {
		runDecomposed(prob, o, dims, run)
		return
	}
	sim, err := prob.NewSimulation()
	if err != nil {
		log.Fatal(err)
	}
	if o.resume != "" {
		in, err := os.Open(o.resume)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.LoadCheckpoint(in); err != nil {
			log.Fatal(err)
		}
		in.Close()
		fmt.Printf("resumed from %s at step %d, t = %.4g s\n", o.resume, sim.Step(), sim.Time())
	}
	// Checkpoint bytes are routed through the §5.1 caching layer when the
	// run is observed, so the trace carries genuine pario counters.
	ckpt := &checkpointer{outDir: o.outDir, throughPario: o.Trace != "" || o.Monitor != "" || o.Profile != ""}
	h, err := run.Arm(sim, prob, s3d.TelemetryOptions{
		Case:   o.problem,
		Config: map[string]string{"steps": fmt.Sprint(o.steps)},
		Pario:  ckpt.stats,
	})
	if err != nil {
		log.Fatal(err)
	}
	if o.Profile != "" {
		// Checkpoint I/O runs on the goroutine driving the simulation, so
		// its PARIO_* spans ride on the rank's own track.
		ckpt.ptrack = sim.ProfTrack()
	}
	if o.injectNaN > 0 {
		sim.InjectNaN(o.injectNaN)
	}
	if o.straggle > 0 {
		sim.InjectStraggler(o.straggle)
	}
	dt := 0.4 * sim.StableDt()
	fmt.Printf("problem=%s grid=%dx%dx%d dt=%.3g\n", o.problem, o.nx, o.ny, o.nz, dt)
	report := o.steps / 10
	if report == 0 {
		report = 1
	}
	exit := "completed"
	for sim.Step() < o.steps {
		n := report
		if sim.Step()+n > o.steps {
			n = o.steps - sim.Step()
		}
		if err := h.Advance(n, dt); err != nil {
			fmt.Printf("health abort: %v\n", err)
			fmt.Printf("post-mortem bundle in %s\n", run.BundleDir())
			exit = fmt.Sprintf("health abort: %v", err)
			break
		}
		tlo, thi, _ := sim.MinMax("T")
		plo, phi, _ := sim.MinMax("p")
		fmt.Printf("step %5d t=%.4g  T=[%.0f,%.0f]  p=[%.0f,%.0f]\n",
			sim.Step(), sim.Time(), tlo, thi, plo, phi)
		if o.ckptEvery > 0 && sim.Step()%o.ckptEvery == 0 {
			writeAndRecord(ckpt, sim, h)
		}
	}
	aborted := exit != "completed"
	if !aborted {
		writeAndRecord(ckpt, sim, h)
	}
	if err := errors.Join(h.Close(exit), run.Close()); err != nil {
		log.Fatal(err)
	}
	if o.perfReport && !aborted {
		fmt.Printf("\nper-region timer breakdown (figure-2 style):\n%s", sim.PerfTimers().Report())
		if s3d.Workers() > 1 {
			fmt.Printf("\nworker-pool busy time per kernel (%d workers):\n%s",
				s3d.Workers(), sim.PoolPerfTimers().Report())
		}
	}
}

// decomposition parses -ranks (zero dims when serial) and rejects the flags
// a decomposed run would silently ignore: runDecomposed writes no restart
// files and always starts from the initial condition.
func (o *options) decomposition() (dims [3]int, err error) {
	if o.ranks == "" {
		return dims, nil
	}
	if n, err := fmt.Sscanf(strings.ToLower(o.ranks), "%dx%dx%d", &dims[0], &dims[1], &dims[2]); n != 3 || err != nil {
		return dims, fmt.Errorf("bad -ranks %q (want e.g. 2x2x1)", o.ranks)
	}
	if o.ckptEvery > 0 {
		return dims, errors.New("-checkpoint is not supported with -ranks: decomposed runs write no restart files")
	}
	if o.resume != "" {
		return dims, errors.New("-resume is not supported with -ranks: decomposed runs start from the initial condition")
	}
	return dims, nil
}

func writeAndRecord(ckpt *checkpointer, sim *s3d.Simulation, h *s3d.Armed) {
	paths, err := ckpt.write(sim)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range paths {
		h.Checkpoint(p)
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

func runDecomposed(prob *s3d.Problem, o *options, dims [3]int, run *s3d.Session) {
	fmt.Printf("decomposed run on %v ranks\n", dims)
	// Every rank contributes its timer snapshot to the aggregate report.
	var mu sync.Mutex
	agg := perf.NewTimers()
	var poolAgg *perf.Timers
	nRanks := dims[0] * dims[1] * dims[2]
	err := s3d.RunDecomposed(prob.Config, dims, func(r *s3d.RankSim) {
		r.SetInitial(prob.Initial, prob.InitPressure)
		// Every rank arms at the same point; rank 0 carries the trace, the
		// monitor and the stores.
		h, err := run.Arm(r.Simulation, prob, s3d.TelemetryOptions{
			Case:   "decomposed",
			Config: map[string]string{"ranks": o.ranks, "steps": fmt.Sprint(o.steps)},
			Status: os.Stdout,
		})
		if err != nil {
			panic(err)
		}
		// The test hooks act on the highest rank, so the watchdog, the
		// analyzer and the cost imbalance analytics have a known culprit.
		if r.Rank == nRanks-1 {
			if o.injectNaN > 0 {
				r.InjectNaN(o.injectNaN)
			}
			if o.straggle > 0 {
				r.InjectStraggler(o.straggle)
			}
		}
		dt := 0.4 * r.StableDtGlobal()
		exit := "completed"
		stepErr := h.Advance(o.steps, dt)
		if stepErr != nil {
			exit = fmt.Sprintf("health abort: %v", stepErr)
		}
		if err := h.Close(exit); err != nil {
			panic(err)
		}
		if stepErr != nil {
			fmt.Printf("rank %d health abort: %v\n", r.Rank, stepErr)
			return
		}
		lo, hi, _ := r.MinMax("T")
		fmt.Printf("rank %d offset %v: T=[%.0f,%.0f]\n", r.Rank, r.Offset, lo, hi)
		if o.perfReport {
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
	if o.perfReport {
		fmt.Printf("\nper-region timer breakdown aggregated over %d ranks:\n%s", nRanks, agg.Report())
		if s3d.Workers() > 1 && poolAgg != nil {
			fmt.Printf("\nworker-pool busy time per kernel (%d workers shared by %d ranks):\n%s",
				s3d.Workers(), nRanks, poolAgg.Report())
		}
	}
	if err := run.Close(); err != nil {
		log.Fatal(err)
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
