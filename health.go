package s3d

// Run health: the public face of the physics-aware watchdog
// (internal/health). EnableHealth arms per-step invariant checks —
// NaN/Inf scan, density/temperature/pressure bands, mass-fraction bounds
// and sum-to-one drift, acoustic and diffusive CFL numbers, global
// mass/energy conservation drift — with WARN/FATAL thresholds and
// hysteresis, plus a ring-buffer flight recorder. TryAdvance then returns
// a structured *health.Violation (naming rank, step, cell and quantity)
// instead of panicking when a run goes bad, after writing a post-mortem
// bundle (flight.jsonl + violation.json + emergency checkpoint). See
// README.md, "Run health & flight recorder".

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/sdf"
)

// HealthOptions configures EnableHealth.
type HealthOptions struct {
	// Config is the rule engine: per-check WARN/FATAL bands and the
	// hysteresis counts. nil selects health.Defaults(). Runs with open
	// (NSCBC) boundaries exchange mass and energy with the far field, so
	// tighten the drift bands only for periodic ones (roundoff-conserved).
	Config *health.Config

	// BundleDir receives the post-mortem bundle when a check trips
	// ("" disables the dump). Decomposed ranks write into per-rank
	// subdirectories rank0/, rank1/, ….
	BundleDir string

	// EmergencyCheckpoint also writes emergency-<step>.sdf (a regular
	// restart file, readable by LoadCheckpoint) into the bundle.
	EmergencyCheckpoint bool
}

// HealthDefaults returns the default rule set, for callers that want to
// adjust a band or two before EnableHealth.
func HealthDefaults() health.Config { return health.Defaults() }

// EnableHealth installs and arms the run-health watchdog, and returns it
// for direct inspection (Status, Recorder, Handler). Session.Arm states
// where it belongs in the enable order.
func (s *Simulation) EnableHealth(opt HealthOptions) *health.Watchdog {
	cfg := health.Defaults()
	if opt.Config != nil {
		cfg = *opt.Config
	}
	w := health.New(cfg, s.blk.Rank())
	s.blk.InstallWatchdog(w)
	s.healthOpt = &opt
	w.Arm()
	return w
}

// Watchdog returns the installed health watchdog (nil before EnableHealth).
func (s *Simulation) Watchdog() *health.Watchdog { return s.blk.Watchdog() }

// TryAdvance integrates n steps of size dt: the one loop that steps a
// Simulation (Advance, Probe.TryAdvance and Armed.Advance end here). An
// attached telemetry probe emits every step's record, the fatal step's
// included. It returns a *health.Violation (as error) the moment the armed
// watchdog trips FATAL, after writing the post-mortem bundle configured in
// HealthOptions. In decomposed runs every rank returns from the same step:
// the faulting rank's violation names the cell, the others return a
// "remote" violation naming the culprit rank. Without EnableHealth it never
// returns an error (unrecoverable states panic inside the step).
func (s *Simulation) TryAdvance(n int, dt float64) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := s.blk.StepChecked(dt)
		if s.probe != nil {
			s.probe.observe(dt, time.Since(t0).Seconds())
		}
		if err != nil {
			s.dumpPostMortem()
			return err
		}
	}
	s.blk.RefreshPrimitives()
	return nil
}

// InjectNaN plants a NaN in the conserved energy at the center of this
// block at the start of the given step — the test hook behind the health
// smoke tests and the -inject-nan driver flag.
func (s *Simulation) InjectNaN(step int) {
	nx, ny, nz := s.Dims()
	s.blk.InjectNaNAt(step, nx/2, ny/2, nz/2)
}

// dumpPostMortem writes the flight-recorder bundle and the emergency
// checkpoint for this rank. Best-effort: a failing dump must not mask the
// violation, so I/O errors go to stderr.
func (s *Simulation) dumpPostMortem() {
	opt := s.healthOpt
	w := s.blk.Watchdog()
	if opt == nil || w == nil || opt.BundleDir == "" {
		return
	}
	dir := opt.BundleDir
	if s.blk.Ranks() > 1 {
		dir = filepath.Join(dir, fmt.Sprintf("rank%d", s.blk.Rank()))
	}
	if err := w.Dump(dir); err != nil {
		fmt.Fprintf(os.Stderr, "s3d: health bundle dump failed: %v\n", err)
		return
	}
	if !opt.EmergencyCheckpoint {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("emergency-%06d.sdf", s.blk.Step))
	if err := sdf.WriteAtomic(path, s.blk.SaveCheckpoint); err != nil {
		fmt.Fprintf(os.Stderr, "s3d: emergency checkpoint failed: %v\n", err)
	}
}
