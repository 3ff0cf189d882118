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
	"github.com/s3dgo/s3d/internal/perf"
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
	fs.StringVar(&o.ranks, "ranks", "", "process grid as PXxPYxPZ (empty = 1x1x1, the serial run)")
	fs.IntVar(&o.ckptEvery, "checkpoint", 0, "write an SDF checkpoint every N steps (0: off; one-rank runs only)")
	fs.StringVar(&o.resume, "resume", "", "restart file to resume from: step, time and step size continue, the state up to round-off (one-rank runs only)")
	fs.StringVar(&o.outDir, "out", "out_s3d", "output directory")
	fs.BoolVar(&o.perfReport, "perf-report", false, "print the per-region timer breakdown at exit")
	fs.IntVar(&o.injectNaN, "inject-nan", 0, "plant a NaN in the conserved energy at the start of step N (watchdog test hook; implies -health)")
	fs.DurationVar(&o.straggle, "straggle", 0, "slow one rank's chemistry by this much per RK stage (the highest rank in decomposed runs; critpath validation hook)")
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
	session, err := o.Open(o.outDir, "")
	if err != nil {
		log.Fatal(err)
	}
	if err := run(buildProblem(o.problem, o.nx, o.ny, o.nz), o, dims, session); err != nil {
		log.Fatal(err)
	}
}

// decomposition parses -ranks (empty is 1x1x1) and rejects the flags a run
// over more than one rank cannot honour yet: restart files are one per rank
// and nothing reads them back onto a decomposition.
func (o *options) decomposition() (dims [3]int, err error) {
	dims = [3]int{1, 1, 1}
	if o.ranks != "" {
		if n, err := fmt.Sscanf(strings.ToLower(o.ranks), "%dx%dx%d", &dims[0], &dims[1], &dims[2]); n != 3 || err != nil {
			return dims, fmt.Errorf("bad -ranks %q (want e.g. 2x2x1)", o.ranks)
		}
	}
	if dims[0]*dims[1]*dims[2] > 1 {
		if o.ckptEvery > 0 {
			return dims, errors.New("-checkpoint is not supported with -ranks: decomposed runs write no periodic restart files")
		}
		if o.resume != "" {
			return dims, errors.New("-resume is not supported with -ranks: decomposed runs start from the initial condition")
		}
	}
	return dims, nil
}

// run steps every rank of the dims process grid — the one rank of a serial
// run included: each arms the session's layers and runs in tenths of the
// run (Armed.Run), reporting after each tenth and writing its restart files
// every -checkpoint steps and at the end. What the ranks report is merged
// here, in the driver: each progress line is printed by the last rank to
// reach it, the timer breakdown after all have finished. A rank-local
// failure panics; RunDecomposed aborts the other ranks and returns it as
// the run's error, after the session's artifacts have landed like on every
// other way out.
func run(prob *s3d.Problem, o *options, dims [3]int, session *s3d.Session) error {
	nRanks := dims[0] * dims[1] * dims[2]
	grid := fmt.Sprintf("%dx%dx%d", dims[0], dims[1], dims[2])
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	progress := progressLines{ranks: nRanks, at: map[int]*extrema{}}
	var mu sync.Mutex // guards the two below
	agg := perf.NewTimers()
	aborted := false
	err := s3d.RunDecomposed(prob.Config, dims, func(r *s3d.RankSim) {
		sim := r.Simulation
		sim.SetInitial(prob.Initial, prob.InitPressure)
		if o.resume != "" {
			in, err := os.Open(o.resume)
			must(err)
			must(sim.LoadCheckpoint(in))
			in.Close()
			fmt.Printf("resumed from %s at step %d, t = %.4g s\n", o.resume, sim.Step(), sim.Time())
		}
		ckptDir := o.outDir
		if nRanks > 1 {
			// One restart file per rank, as the original S3D wrote them
			// (paper §5), laid out like the health bundle's rank<N>/.
			ckptDir = filepath.Join(o.outDir, fmt.Sprintf("rank%d", r.Rank))
			must(os.MkdirAll(ckptDir, 0o755))
		}
		// Every rank arms at the same point; rank 0 carries the trace and
		// the monitor.
		h, err := session.Arm(sim, prob, s3d.TelemetryOptions{
			Case:   o.problem,
			Config: map[string]string{"ranks": grid, "steps": fmt.Sprint(o.steps)},
		})
		must(err)
		// The test hooks act on the highest rank, so the watchdog and the
		// analyzer have a known culprit.
		if r.Rank == nRanks-1 {
			if o.injectNaN > 0 {
				sim.InjectNaN(o.injectNaN)
			}
			if o.straggle > 0 {
				sim.InjectStraggler(o.straggle)
			}
		}
		if r.Rank == 0 {
			fmt.Printf("problem=%s grid=%dx%dx%d ranks=%s\n", o.problem, o.nx, o.ny, o.nz, grid)
		}
		completed, err := h.Run(o.steps, o.steps/10, func() error {
			var e extrema
			e.tlo, e.thi, _ = sim.MinMax("T")
			e.plo, e.phi, _ = sim.MinMax("p")
			progress.report(sim.Step(), sim.Time(), e)
			if step := sim.Step(); step == o.steps || o.ckptEvery > 0 && step%o.ckptEvery == 0 {
				return writeCheckpoint(ckptDir, sim, h)
			}
			return nil
		})
		must(err)
		mu.Lock()
		defer mu.Unlock()
		aborted = !completed // a health abort stops every rank at the same step
		agg.Merge(sim.PerfTimers().Snapshot())
	})
	// The session closes on a rank error too: what the run recorded up to
	// there — the trace's tail, the overlay, the profile — explains it.
	if err := errors.Join(err, session.Close()); err != nil {
		return err
	}
	if o.perfReport && !aborted {
		fmt.Printf("\nper-region timer breakdown (figure-2 style, summed over %d ranks):\n%s", nRanks, agg.Report())
	}
	return nil
}

// extrema is one rank's share of a progress line.
type extrema struct {
	tlo, thi, plo, phi float64
	seen               int // ranks merged in so far
}

// progressLines merges the ranks' extrema at each report point, keyed by
// step; the rank that completes a point prints its line. Every rank reports
// its points in step order, so they complete — and print — in step order.
type progressLines struct {
	mu    sync.Mutex
	ranks int
	at    map[int]*extrema
}

func (p *progressLines) report(step int, t float64, e extrema) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.at[step]
	if m == nil {
		m = &e
		p.at[step] = m
	} else {
		m.tlo, m.thi = min(m.tlo, e.tlo), max(m.thi, e.thi)
		m.plo, m.phi = min(m.plo, e.plo), max(m.phi, e.phi)
	}
	if m.seen++; m.seen < p.ranks {
		return
	}
	delete(p.at, step)
	fmt.Printf("step %5d t=%.4g  T=[%.0f,%.0f]  p=[%.0f,%.0f]\n", step, t, m.tlo, m.thi, m.plo, m.phi)
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
		p, err := s3d.BunsenProblem(s3d.BunsenOptions{Case: id, Nx: nx, Ny: ny, Nz: nz})
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

// writeCheckpoint streams the current step's restart + analysis files into
// dir — each appears whole or not at all (sdf.WriteAtomic) — and names them
// in the trace.
func writeCheckpoint(dir string, sim *s3d.Simulation, h *s3d.Armed) error {
	// A true restart file (the full conserved state, for -resume)...
	rst := filepath.Join(dir, fmt.Sprintf("restart-%06d.sdf", sim.Step()))
	if err := sdf.WriteAtomic(rst, sim.SaveCheckpoint); err != nil {
		return err
	}
	h.Checkpoint(rst)
	// ...plus an analysis file with the derived fields the workflow plots:
	// the registry's primitive scalars, streamed row-by-row from the field
	// arena (no per-variable copies).
	f := sdf.New()
	f.Attrs["step"] = fmt.Sprint(sim.Step())
	f.Attrs["time"] = fmt.Sprint(sim.Time())
	for _, name := range sim.AnalysisFields() {
		rows, dims, err := sim.FieldRows(name)
		if err != nil {
			return err
		}
		if err := f.AddVarFunc(name, dims[:], rows); err != nil {
			return err
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("analysis-%06d.sdf", sim.Step()))
	if err := f.WriteFile(path); err != nil {
		return err
	}
	h.Checkpoint(path)
	fmt.Println("wrote", rst, "and", path)
	return nil
}
