package s3d

// Profiling: the public face of the call-path profiler (internal/prof).
// A Profiler collects TAU/HPCToolkit-style spans from the solver's hot
// regions, the communication layer (so blocked time is attributed to the
// call path that blocked) and the worker pool, and exports a Chrome
// trace_event timeline, an inclusive/exclusive call-path report with
// cross-rank imbalance statistics, and a measured-vs-modelled roofline
// table (paper §4, figure 2). Enable it per simulation with
// EnableProfiling; Session.Close exports the artifacts (prof.Export) and
// Probe.MountProfile serves them live.

import (
	"net/http"

	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
)

// NewProfiler returns an enabled call-path profiler. One profiler serves
// all simulations (ranks) of a run; give each its own track name via
// EnableProfiling.
func NewProfiler() *prof.Profiler { return prof.New() }

// EnableProfiling attaches the simulation to the profiler: a new rank
// track named trackName (e.g. "rank0") records the solver's region spans
// and the communication layer's wait spans, and the shared worker pool
// gets per-worker tracks. Call before stepping; spans accumulate until
// the profiler is exported.
func (s *Simulation) EnableProfiling(p *prof.Profiler, trackName string) {
	s.blk.EnableProfiling(p.NewTrack(prof.GroupRank, trackName))
	s.blk.Plan().Pool().AttachProfiler(p)
}

// ProfTrack returns the rank track EnableProfiling created (nil before).
// Code driven by the goroutine that steps the simulation opens its spans
// here, so they join this rank's call paths instead of polluting the
// cross-rank statistics with an extra always-idle "rank".
func (s *Simulation) ProfTrack() *prof.Track { return s.blk.ProfTrack() }

// ProfileShape describes this simulation's per-rank workload for the
// roofline analysis (interior points per rank and species count).
func (s *Simulation) ProfileShape() prof.RunShape {
	nx, ny, nz := s.Dims()
	return prof.RunShape{
		PointsPerRank: nx * ny * nz,
		NumSpecies:    s.mech.NumSpecies(),
	}
}

// ProfileMachines returns the machine models the roofline compares
// attained kernel performance against: the paper's Cray XT3 and XT4
// nodes plus a model of this host calibrated with flop-rate and
// memory-bandwidth microbenchmarks (~tens of ms).
func ProfileMachines() []perf.Machine {
	return []perf.Machine{perf.XT3, perf.XT4, prof.CalibrateHost()}
}

// MountProfile serves the profiler's artifacts live from the probe's
// HTTP monitor under /profile/ (trace.json, callpath.txt, callpath.csv,
// roofline.txt). No-op when the probe runs without a monitor.
func (p *Probe) MountProfile(pr *prof.Profiler, shape prof.RunShape, machines []perf.Machine) {
	if p.mon == nil {
		return
	}
	p.mon.Handle("/profile/", http.StripPrefix("/profile", prof.Handler(pr, shape, machines)))
}
