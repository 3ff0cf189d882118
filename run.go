package s3d

// Run wiring: the one place a driver's shared flags become an instrumented
// run. RunOptions holds the settings every driver shares and BindFlags
// registers them; Open creates what is shared across ranks or must outlive
// a simulation; Arm turns the layers on for one simulation in the one
// order that works; the returned handle steps it through the one loop,
// Simulation.TryAdvance; Close (handle, then session) lands every artifact
// — on success, on a health abort and on a rank error alike.
// See README.md, "Observability stack".

import (
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"strings"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
	"github.com/s3dgo/s3d/internal/sdf"
)

// RunOptions is the run configuration shared by cmd/s3d, cmd/liftedflame
// and cmd/bunsen: one field per shared flag. Empty paths, false switches and
// zero cadences leave the corresponding layer off.
type RunOptions struct {
	Trace     string // JSONL run trace file: steps and every layer's records
	Monitor   string // live HTTP monitor address
	Profile   string // call-path profiler artifact directory
	Health    bool   // arm the run-health watchdog
	FlightRec string // post-mortem bundle directory (default <out>/health)

	// Layer cadences in steps (0: off); the records land in the trace.
	Analysis int
	Cost     int
	CritPath int

	Workers int // kernel worker-pool size (0: all CPUs)
}

// BindFlags registers the shared flags on fs.
func (o *RunOptions) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Trace, "trace", "", "write the JSONL run trace (steps, checkpoints and every armed layer's records) to this file")
	fs.StringVar(&o.Monitor, "monitor", "", "serve live metrics over HTTP on this address (e.g. :8080)")
	fs.StringVar(&o.Profile, "profile", "", "record the call-path profiler and write trace.json/callpath/roofline artifacts to this directory")
	fs.BoolVar(&o.Health, "health", false, "arm the run-health watchdog: physics invariants per step, structured abort with a post-mortem bundle instead of a panic")
	fs.StringVar(&o.FlightRec, "flightrec", "", "flight-recorder bundle directory (default <out>/health when -health)")
	fs.IntVar(&o.Analysis, "analysis", 0, "run the in-situ science-reduction pipeline every N steps (0: off); its records land in the -trace file")
	fs.IntVar(&o.Cost, "cost", 0, "run the spatial cost-attribution sampler every N steps (0: off); its records land in the -trace file")
	fs.IntVar(&o.CritPath, "critpath", 0, "run the wait-state & critical-path analyzer every N steps (0: off); its records land in the -trace file and a Chrome-trace overlay in <out>/critpath_trace.json")
	fs.IntVar(&o.Workers, "workers", 0, "kernel worker-pool size, shared across in-process ranks (0: all CPUs)")
}

// Session is an opened run: the resources shared by every rank of a
// decomposed run, or that must outlive the simulation they instrument —
// the trace file, the profiler and the one critpath analyzer.
type Session struct {
	opt      RunOptions // paths resolved and scoped
	overlay  string     // critpath_trace.json path ("" without -critpath)
	trace    *obs.Trace
	profiler *prof.Profiler
	machines []perf.Machine
	critA    *CritPathAnalyzer
	shape    prof.RunShape // rank 0's workload, for the roofline (set by its Arm)
}

// Open sizes the worker pool (so call it before building a simulation),
// resolves the bundle directory to <out>/health when -health gave none,
// and creates the run-wide resources. A non-empty scope names one run of
// several sharing a command line (cmd/bunsen's case letter): it is
// inserted before every file's extension (trace.jsonl → trace.A.jsonl) and
// appended to every directory as case<scope>.
func (o RunOptions) Open(out, scope string) (*Session, error) {
	SetWorkers(o.Workers)
	if o.Health && o.FlightRec == "" {
		o.FlightRec = filepath.Join(out, "health")
	}
	s := &Session{}
	if o.CritPath > 0 {
		s.overlay = filepath.Join(out, "critpath_trace.json")
	}
	if scope != "" {
		for _, file := range []*string{&o.Trace, &s.overlay} {
			if ext := filepath.Ext(*file); *file != "" {
				*file = strings.TrimSuffix(*file, ext) + "." + scope + ext
			}
		}
		for _, dir := range []*string{&o.Profile, &o.FlightRec} {
			if *dir != "" {
				*dir = filepath.Join(*dir, "case"+scope)
			}
		}
	}
	s.opt = o
	if o.Trace != "" {
		var err error
		if s.trace, err = obs.CreateTrace(o.Trace); err != nil {
			return nil, err
		}
	}
	if o.Profile != "" {
		s.profiler = NewProfiler()
		s.machines = ProfileMachines()
	}
	if o.CritPath > 0 {
		// One analyzer for every rank: it is the cross-rank deposit barrier.
		s.critA = NewCritPathAnalyzer(CritPathSpec{Every: o.CritPath})
	}
	return s, nil
}

// BundleDir returns the directory a health abort's post-mortem bundle lands
// in; decomposed ranks write rank<N>/ subdirectories of it.
func (s *Session) BundleDir() string { return s.opt.FlightRec }

// Armed is one simulation with the session's layers turned on. Rank 0's
// carries the telemetry probe (with -trace or -monitor).
type Armed struct{ sim *Simulation }

// Arm enables the session's layers on sim and returns the handle that
// steps it. prob supplies the standard analysis set; opt carries what only
// the driver knows (Case, Config) — Arm fills in the trace
// and the monitor address. Call it after the initial (or resumed) state is
// set and before the first step. This is the single statement of the
// enable order, and the reasons for it:
//
//  1. profiling, so every later layer's regions land on the rank's track
//     (and the critpath analyzer blames the run's profiler, not a private
//     one);
//  2. health, analysis, cost: an armed watchdog adds two small collectives
//     to every step and a due analysis step one ordered fold, so a
//     decomposed run must enable the identical spec on every rank (a cost
//     record is its rank's own window and needs no collective);
//  3. the critpath analyzer — the same instance on every rank, because a
//     due step ends in its deposit barrier;
//  4. telemetry last: StartTelemetry mounts gauges and the /health
//     /analysis /cost /critpath endpoints for exactly the layers it finds
//     installed, names them in the run_start manifest and sends their
//     records to the trace — a layer enabled after it is invisible to the
//     monitor and the trace.
//
// Every rank of a decomposed run must call Arm at the same point with the
// same session. Rank 0 alone starts telemetry, so the trace holds rank 0's
// layer records: the ordered fold makes every rank's analysis record
// bitwise identical, the critpath barrier publishes once per step, and a
// cost record is rank 0's window.
func (s *Session) Arm(sim *Simulation, prob *Problem, opt TelemetryOptions) (*Armed, error) {
	o := s.opt
	rank := sim.blk.Rank()
	if s.profiler != nil {
		sim.EnableProfiling(s.profiler, fmt.Sprintf("rank%d", rank))
		if rank == 0 {
			s.shape = sim.ProfileShape()
		}
	}
	if o.Health {
		sim.EnableHealth(HealthOptions{BundleDir: o.FlightRec, EmergencyCheckpoint: true})
	}
	if o.Analysis > 0 {
		spec := prob.StandardAnalysis()
		spec.Every = o.Analysis
		if _, err := sim.EnableAnalysis(spec); err != nil {
			return nil, err
		}
	}
	if o.Cost > 0 {
		if _, err := sim.EnableCostMaps(CostSpec{Every: o.Cost}); err != nil {
			return nil, err
		}
	}
	if s.critA != nil {
		if err := sim.EnableCritPath(s.critA); err != nil {
			return nil, err
		}
	}
	if rank == 0 && (s.trace != nil || o.Monitor != "") {
		opt.Trace, opt.MonitorAddr = s.trace, o.Monitor
		probe, err := sim.StartTelemetry(opt)
		if err != nil {
			return nil, err
		}
		if addr := probe.MonitorAddr(); addr != "" {
			fmt.Printf("live monitor on http://%s/status\n", addr)
		}
		if s.profiler != nil {
			probe.MountProfile(s.profiler, sim.ProfileShape(), s.machines)
		}
	}
	return &Armed{sim}, nil
}

// Advance integrates n steps of size dt. It returns the *health.Violation
// the moment an armed watchdog trips FATAL, after the post-mortem bundle is
// written; without -health it never returns an error.
func (a *Armed) Advance(n int, dt float64) error { return a.sim.TryAdvance(n, dt) }

// Checkpoint records a restart file just written in the trace.
func (a *Armed) Checkpoint(path string) {
	if p := a.sim.probe; p != nil {
		p.Checkpoint(path)
	}
}

// Close ends this simulation's telemetry: the run_done record carrying
// exit ("completed", or the abort reason) and the monitor shutdown. Call it
// on every path out of the step loop, then Session.Close.
func (a *Armed) Close(exit string) error {
	if p := a.sim.probe; p != nil {
		return p.Close(exit)
	}
	return nil
}

// Close lands the session's artifacts once every rank has stopped
// stepping, after a clean run and a health abort alike: it closes the trace,
// writes the critical-path Chrome-trace overlay and exports the profile.
// Every step is attempted; the errors are joined.
func (s *Session) Close() error {
	var err error
	if s.trace != nil {
		err = s.trace.Close()
	}
	if s.critA != nil {
		if werr := sdf.WriteAtomic(s.overlay, s.critA.WriteChromeTrace); werr != nil {
			err = errors.Join(err, werr)
		} else {
			fmt.Printf("wrote critical-path Chrome trace to %s\n", s.overlay)
		}
	}
	if s.profiler != nil {
		if perr := prof.Export(s.opt.Profile, s.profiler, s.shape, s.machines); perr != nil {
			err = errors.Join(err, perr)
		} else {
			fmt.Printf("wrote profile artifacts to %s (trace.json, callpath.txt, callpath.csv, roofline.txt)\n", s.opt.Profile)
		}
	}
	return err
}
