package s3d

// Telemetry: the public face of the observability layer (internal/obs).
// A Probe attaches to a Simulation and, for every solver step its one
// stepping loop (Simulation.TryAdvance) takes, emits one structured
// StepEvent — step index, dt, CFL, per-RK-stage wall times,
// temperature/pressure extrema, total-mass drift, heat-release integral
// and the communication counters — to a JSONL trace, a live HTTP monitor,
// or both — and sets every solver.* and comm.* metric from that record.
// The trace is the run's one record stream: the analysis, cost and
// critpath records of a due step land in it just before the step's record.
// The solver measures, the probe publishes: the probe samples only what the
// solver already computed (see internal/solver/telemetry.go), so tracing
// stays within a few percent of an uninstrumented run.

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/vexp"
)

// TelemetryOptions configures a Probe. Every sink is optional; a Probe
// with no sinks still builds each step's record, retrievable via LastStep.
type TelemetryOptions struct {
	// Case names the run in the run_start record (default "s3d").
	Case string
	// Config is merged into the run_start manifest on top of the
	// simulation's own configuration summary.
	Config map[string]string

	// Trace receives one JSONL record per step, the run-lifecycle records
	// and the records of every layer installed before StartTelemetry. The
	// caller owns its lifetime; Probe.Close flushes but never closes it.
	Trace *obs.Trace
	// MonitorAddr, when non-empty, starts an HTTP monitor on the address
	// (":0" selects an ephemeral port; see Probe.MonitorAddr) serving
	// /metrics, /status and /healthz live.
	MonitorAddr string
}

// cflRefreshEvery is the cadence, in steps, at which the acoustic stability
// limit behind the reported CFL is re-evaluated (the sweep costs a full
// sound-speed pass).
const cflRefreshEvery = 20

// stepWallBuckets bounds the solver.step_wall_sec histogram: 100 µs … 30 s.
var stepWallBuckets = []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 30}

// Probe threads per-step observability through a Simulation.
// It is owned by the goroutine driving the simulation; only the metrics
// registry and the monitor it exposes are safe for concurrent readers.
type Probe struct {
	sim *Simulation
	opt TelemetryOptions
	reg *obs.Registry
	mon *obs.Monitor

	mass0      float64 // interior mass at attach time (drift reference)
	acousticDt float64 // most recently evaluated stable dt
	cflNumber  float64
	start      time.Time
	last       obs.StepEvent
	// detached (set by Close, or by a StartTelemetry replacing the probe)
	// stops layer records, published on any rank's goroutine, reaching the trace.
	detached atomic.Bool
}

// StartTelemetry attaches a Probe to the simulation, emits the run_start
// record and (when configured) starts the live monitor. From here on every
// step the simulation takes — through sim.Advance, sim.TryAdvance or the
// probe's own — emits one step record, preceded by the records the step's
// installed layers published; a simulation carries one probe, so a second
// StartTelemetry replaces the first. Call Close when the run finishes to
// emit run_done and detach.
func (s *Simulation) StartTelemetry(opt TelemetryOptions) (*Probe, error) {
	if opt.Case == "" {
		opt.Case = "s3d"
	}
	p := &Probe{
		sim:       s,
		opt:       opt,
		reg:       obs.NewRegistry(),
		cflNumber: s.cfg.CFL,
		start:     time.Now(),
	}
	if p.cflNumber <= 0 {
		p.cflNumber = 0.8 // the solver's default acoustic CFL number
	}
	s.blk.EnableTelemetry()
	// The execution layer's gauges and counters: pool utilization
	// (par.workers, par.workers_busy, par.tiles_pending) and the per-kernel
	// tile counts (par.tiles_total, par.tiles.<kernel>).
	s.blk.Plan().Pool().AttachMetrics(p.reg)
	s.blk.Plan().AttachMetrics(p.reg)
	p.mass0 = s.blk.TotalMass()
	p.acousticDt = s.blk.AcousticDt()

	if opt.MonitorAddr != "" {
		mon, err := obs.StartMonitor(opt.MonitorAddr, p.reg)
		if err != nil {
			return nil, err
		}
		p.mon = mon
		// The registry-backed field inventory: names, roles, halo groups
		// and checkpoint membership of every solver field, live.
		p.mon.Handle("/fields", s.fieldsHandler())
	}
	manifest := s.configManifest()
	// Every layer installed before StartTelemetry joins the observability
	// surface — its gauges in /metrics(.prom), its live document on the
	// monitor, its records in the trace under its name as the kind — and is
	// named in the manifest ("health", "<layer>_every"), so the trace alone
	// says what the run was armed with.
	for _, l := range s.installedLayers() {
		l.mount.AttachMetrics(p.reg)
		if p.mon != nil {
			p.mon.Handle("/"+l.name, l.mount.Handler())
		}
		if tr, kind := opt.Trace, l.name; tr != nil && l.records != nil {
			l.records(func(rec any) {
				if !p.detached.Load() {
					tr.Layer(kind, rec)
				}
			})
		}
		if l.every > 0 {
			manifest[l.name+"_every"] = fmt.Sprint(l.every)
		} else {
			manifest[l.name] = "on"
		}
	}
	for k, v := range opt.Config {
		manifest[k] = v
	}
	info := obs.NewRunInfo(opt.Case, manifest)
	info.Workers = s.blk.Plan().Workers()
	if opt.Trace != nil {
		opt.Trace.RunStartInfo(info)
	}
	if p.mon != nil {
		p.mon.SetRun(info)
	}
	if s.probe != nil {
		s.probe.detached.Store(true)
	}
	s.probe = p
	return p, nil
}

// MonitorAddr returns the bound monitor address, or "" when no monitor
// was requested.
func (p *Probe) MonitorAddr() string {
	if p.mon == nil {
		return ""
	}
	return p.mon.Addr()
}

// LastStep returns the most recently emitted step event.
func (p *Probe) LastStep() obs.StepEvent { return p.last }

// Advance is Simulation.Advance on the probed simulation.
func (p *Probe) Advance(n int, dt float64) { p.sim.Advance(n, dt) }

// TryAdvance is Simulation.TryAdvance on the probed simulation: the one
// stepping loop, which emits a step record through the attached probe
// whichever of the two it was entered by.
func (p *Probe) TryAdvance(n int, dt float64) error { return p.sim.TryAdvance(n, dt) }

// observe assembles and dispatches the record for the step just taken, and
// sets the step's metrics from it. wall is the step's one clock: the span
// TryAdvance timed, end-of-step layers included.
func (p *Probe) observe(dt, wall float64) {
	blk := p.sim.blk
	if (blk.Step-1)%cflRefreshEvery == 0 {
		p.acousticDt = blk.AcousticDt()
	}
	tMin, tMax := blk.MinMaxT()
	pMin, pMax := blk.MinMaxP()
	ev := obs.StepEvent{
		Step:         blk.Step,
		Time:         obs.F(blk.Time),
		Dt:           obs.F(dt),
		CFL:          obs.F(p.cflNumber * dt / p.acousticDt),
		WallSec:      wall,
		StageWallSec: append([]float64(nil), blk.StageWall...),
		TMin:         obs.F(tMin),
		TMax:         obs.F(tMax),
		PMin:         obs.F(pMin),
		PMax:         obs.F(pMax),
		MassDrift:    obs.F((blk.TotalMass() - p.mass0) / p.mass0),
		HeatRelease:  obs.F(blk.HeatRelease()),
		Comm:         blk.CommStats(),
	}
	if w := blk.Watchdog(); w != nil && w.Armed() {
		hs := w.ObsStatus()
		ev.Health = &hs
	}
	p.last = ev

	r := p.reg
	r.Counter("solver.steps").Inc()
	r.Histogram("solver.step_wall_sec", stepWallBuckets).Observe(ev.WallSec)
	r.Gauge("solver.dt").Set(float64(ev.Dt))
	r.Gauge("solver.sim_time").Set(float64(ev.Time))
	r.Gauge("solver.cfl").Set(float64(ev.CFL))
	r.Gauge("solver.t_min").Set(float64(ev.TMin))
	r.Gauge("solver.t_max").Set(float64(ev.TMax))
	r.Gauge("solver.heat_release_w").Set(float64(ev.HeatRelease))
	r.Gauge("solver.mass_drift").Set(float64(ev.MassDrift))
	r.Gauge("comm.bytes_sent").Set(float64(ev.Comm.BytesSent))
	r.Gauge("comm.wait_sec").Set(ev.Comm.WaitSec)
	// Per-neighbor blocked time, maintained by comm.Wait whether or not the
	// critpath analyzer is armed: who this rank habitually waits on.
	for peer, ns := range blk.CommWaitByPeer() {
		if ns > 0 {
			r.Gauge(fmt.Sprintf("comm.wait_ns.%d", peer)).Set(float64(ns))
		}
	}

	if p.opt.Trace != nil {
		p.opt.Trace.Step(ev)
	}
	if p.mon != nil {
		p.mon.Observe(ev)
	}
}

// Checkpoint emits a checkpoint record for a restart file just written.
func (p *Probe) Checkpoint(path string) {
	if p.opt.Trace != nil {
		p.opt.Trace.Checkpoint(p.sim.blk.Step, path)
	}
}

// Close detaches the probe from the simulation, emits the run_done record
// (with the final metrics snapshot and a figure-2-style perf report) and
// shuts the monitor down. The trace is left open for the caller.
func (p *Probe) Close(exitMessage string) error {
	p.detached.Store(true)
	if p.sim.probe == p {
		p.sim.probe = nil
	}
	if p.opt.Trace != nil {
		p.opt.Trace.RunDone(obs.RunSummary{
			Steps:       p.sim.blk.Step,
			SimTime:     p.sim.blk.Time,
			WallSec:     time.Since(p.start).Seconds(),
			Metrics:     p.reg.Snapshot(),
			PerfReport:  p.sim.blk.Timers.Report(),
			ExitMessage: exitMessage,
		})
		if err := p.opt.Trace.Flush(); err != nil {
			return err
		}
	}
	if p.mon != nil {
		return p.mon.Close()
	}
	return nil
}

// PerfTimers returns the simulation's per-region timer set (the TAU-style
// breakdown of paper figure 2). For cross-rank aggregation take Snapshot
// on each rank and Merge into a fresh aggregator-owned Timers.
func (s *Simulation) PerfTimers() *perf.Timers { return s.blk.Timers }

// layer is one installed instrumentation layer as StartTelemetry sees it:
// the name of its endpoint, manifest key and trace record kind, its cadence
// (0: per step, no cadence of its own), its mount points and, for a layer
// with records of its own, how to subscribe to them.
type layer struct {
	name  string
	every int
	mount interface {
		AttachMetrics(*obs.Registry)
		Handler() http.Handler
	}
	records func(func(any))
}

// installedLayers lists the layers enabled on the block, in mount order.
func (s *Simulation) installedLayers() []layer {
	var ls []layer
	if w := s.blk.Watchdog(); w != nil {
		ls = append(ls, layer{"health", 0, w, nil})
	}
	if ap := s.blk.Analysis(); ap != nil {
		ls = append(ls, layer{obs.KindAnalysis, ap.Every(), ap, records(&ap.Lane)})
	}
	if cc := s.blk.Cost(); cc != nil {
		ls = append(ls, layer{obs.KindCost, cc.Every(), cc, records(&cc.Lane)})
	}
	if cp := s.blk.CritPath(); cp != nil {
		ls = append(ls, layer{obs.KindCritPath, cp.Every(), cp, records(&cp.Lane)})
	}
	return ls
}

// records subscribes to a layer's lane with its record type erased.
func records[R any](l *obs.Lane[R]) func(func(any)) {
	return func(fn func(any)) { l.Subscribe(func(r R) { fn(r) }) }
}

// readLayer loads one layer's records from a run trace, under ReadTrace's
// corrupt-tail contract.
func readLayer[T any](path, kind string) ([]T, error) {
	recs, err := obs.ReadTraceFile(path)
	if err != nil {
		return nil, err
	}
	return obs.Payloads[T](recs, kind)
}

// configManifest flattens the simulation configuration for run_start,
// including the call-path profiler when installed (the layers with
// endpoints are added where StartTelemetry mounts them).
func (s *Simulation) configManifest() map[string]string {
	c := s.cfg
	m := map[string]string{
		"mechanism":    c.Mechanism.chem.Name,
		"grid":         fmt.Sprintf("%dx%dx%d", c.Grid.Nx, c.Grid.Ny, c.Grid.Nz),
		"extent_m":     fmt.Sprintf("%gx%gx%g", c.Grid.Lx, c.Grid.Ly, c.Grid.Lz),
		"pressure_pa":  fmt.Sprintf("%g", c.Pressure),
		"filter_every": fmt.Sprintf("%d", c.FilterEvery),
		"cfl":          fmt.Sprintf("%g", c.CFL),
		// which exponential kernel the pointwise physics ran on in this
		// process: "avx2" or "scalar" (the same bits either way)
		"vexp": vexp.Kernel(),
	}
	if c.ChemistryOff {
		m["chemistry"] = "off"
	}
	if c.Grid.StretchY {
		m["stretch_y"] = "on"
	}
	// A critpath analyzer on an unprofiled run records blame spans on a track
	// of its own; that is not the call-path profiler being on.
	if t, cp := s.blk.ProfTrack(), s.blk.CritPath(); t != nil && (cp == nil || !cp.Internal(t)) {
		m["profile"] = "on"
	}
	return m
}
