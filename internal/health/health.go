// Package health implements the run-health watchdog: per-step physics
// invariant checks with WARN/FATAL thresholds and hysteresis, a ring-buffer
// flight recorder of recent diagnostics, and structured Violation errors
// that replace the solver's hard panics (paper §6: multi-week runs on
// thousands of cores cannot be babysat — the system itself must detect
// that a simulation is going bad and react, as the Kepler workflow does).
//
// The package is deliberately low in the dependency order: it knows
// nothing about grids, solvers or communicators. The solver fills a
// Sample per step from data its kernels already touch, folds it over the
// ranks in the step's one ordered collective and hands the run's sample to
// Watchdog.Evaluate on every rank: identical samples and identical
// hysteresis state give every rank the same verdict, so agreeing on an
// abort needs no message of its own.
package health

import (
	"fmt"
	"math"

	"github.com/s3dgo/s3d/internal/obs"
)

// F is a float64 that survives JSON round-trips even when non-finite: a
// flight recorder's whole job is to capture runs where NaN and ±Inf appear.
// It is the trace's own type, so a sample and a step record encode alike.
type F = obs.F

// Level grades a check result.
type Level int

// Check levels, ordered so the worst level of a set is its max.
const (
	OK Level = iota
	Warn
	Fatal
)

// String renders the level for JSON status documents and log lines.
func (l Level) String() string {
	switch l {
	case Warn:
		return "warn"
	case Fatal:
		return "fatal"
	}
	return "ok"
}

// Violation is a structured fatal health error: which check tripped,
// where (rank + global cell), when (step) and on what value. It replaces
// the solver's bare panics so a failing run terminates with a post-mortem
// instead of a one-line message.
type Violation struct {
	Check    string `json:"check"`
	Rank     int    `json:"rank"`
	Step     int    `json:"step"`
	Cell     [3]int `json:"cell"`
	Quantity string `json:"quantity,omitempty"`
	Value    F      `json:"value"`
	Message  string `json:"message,omitempty"`
}

// Error renders the violation; *Violation implements error so it can
// propagate out of the step loop through ordinary returns.
func (v *Violation) Error() string {
	s := fmt.Sprintf("health: %s violation on rank %d at step %d, cell (%d,%d,%d)",
		v.Check, v.Rank, v.Step, v.Cell[0], v.Cell[1], v.Cell[2])
	if v.Quantity != "" {
		s += fmt.Sprintf(": %s = %g", v.Quantity, float64(v.Value))
	}
	if v.Message != "" {
		s += " (" + v.Message + ")"
	}
	return s
}

// Remote builds the fault a rank hands Evaluate when a peer's kernels
// recorded a fault this step: the fault's message stays on the peer, so
// this rank blames the peer by rank.
func Remote(rank, step int) *Violation {
	return &Violation{
		Check: "remote", Rank: rank, Step: step,
		Message: fmt.Sprintf("aborted by rank %d", rank),
	}
}

// Band is one check's thresholds: values outside [WarnLo, WarnHi] grade
// WARN, outside [FatalLo, FatalHi] grade FATAL. Use ±Inf (or the Above /
// Below / Range constructors) to disable a side. The zero Band disables
// the check entirely.
type Band struct {
	WarnLo, WarnHi   float64
	FatalLo, FatalHi float64
}

// Range builds a two-sided band.
func Range(warnLo, warnHi, fatalLo, fatalHi float64) Band {
	return Band{WarnLo: warnLo, WarnHi: warnHi, FatalLo: fatalLo, FatalHi: fatalHi}
}

// Above builds a high-side band: values above warn grade WARN, above
// fatal grade FATAL.
func Above(warn, fatal float64) Band {
	return Band{WarnLo: math.Inf(-1), WarnHi: warn, FatalLo: math.Inf(-1), FatalHi: fatal}
}

// Below builds a low-side band.
func Below(warn, fatal float64) Band {
	return Band{WarnLo: warn, WarnHi: math.Inf(1), FatalLo: fatal, FatalHi: math.Inf(1)}
}

// Enabled reports whether the band checks anything.
func (b Band) Enabled() bool { return b != Band{} }

// Classify grades a value against the band. NaN grades OK — non-finite
// data is the dedicated nan check's job, and NaN must not silently
// satisfy or violate a threshold comparison.
func (b Band) Classify(v float64) Level {
	if !b.Enabled() || math.IsNaN(v) {
		return OK
	}
	if v < b.FatalLo || v > b.FatalHi {
		return Fatal
	}
	if v < b.WarnLo || v > b.WarnHi {
		return Warn
	}
	return OK
}

// Config is the rule engine's bands, one per physics check; a zero Band
// disables its check. Start from Defaults() and adjust bands per problem.
type Config struct {
	// Density, Temperature and Pressure band the primitive-state extrema
	// (kg/m³, K, Pa).
	Density     Band
	Temperature Band
	Pressure    Band

	// SpeciesBounds bands the mass-fraction extrema as recovered from the
	// conserved state before any clipping (so the excursions the solver's
	// primitive recovery silently clips are still observed).
	SpeciesBounds Band
	// SpeciesSum bands the per-cell clipped mass fraction — the sum-to-one
	// drift that the recovery's clip-and-renormalise would otherwise hide.
	SpeciesSum Band

	// CFLAcoustic bands dt·(|u|+|v|+|w|+c)/Δx_min; CFLDiffusive bands the
	// explicit-diffusion stability number 2·d·dt·D_max/Δx_min².
	CFLAcoustic  Band
	CFLDiffusive Band

	// MassDrift and EnergyDrift band |relative drift| of the volume-
	// integrated conserved mass and total energy against their values when
	// the watchdog armed. Open (NSCBC) boundaries legitimately exchange
	// mass and energy with the far field, so the defaults are loose; a
	// periodic box conserves both to roundoff, and Above(1e-10, 1e-9) stays
	// silent on a healthy one.
	MassDrift   Band
	EnergyDrift Band
}

// The settings every rule set shares.
const (
	// AcousticGamma estimates the sound speed in the acoustic-CFL check as
	// √(γ·p/ρ) without a per-cell thermodynamic evaluation.
	AcousticGamma = 1.4

	// SliceResolution caps the per-axis resolution of the field slices the
	// flight recorder keeps.
	SliceResolution = 32

	// Hysteresis: a check must grade bad for warnAfter (fatalAfter)
	// consecutive steps before it trips WARN (FATAL), and good for
	// clearAfter consecutive steps before a WARN clears. FATAL is sticky.
	warnAfter  = 3
	fatalAfter = 1
	clearAfter = 5

	// recorderFrames is the flight-recorder depth in steps.
	recorderFrames = 16
)

// Defaults returns the production rule set: bands wide enough that any
// healthy reacting case stays silent, tight enough that a run going bad
// trips within a few steps of the first unphysical state.
func Defaults() Config {
	return Config{
		Density:     Range(1e-3, 50, 1e-5, 500),
		Temperature: Range(150, 3500, 50, 6000),
		Pressure:    Range(1e3, 1e7, 1e2, 1e8),
		// The 8th-order scheme legitimately under/overshoots mass fractions
		// by a few tenths of a percent near sharp fronts before the filter
		// acts, so the bands start beyond that.
		SpeciesBounds: Range(-5e-3, 1+5e-3, -5e-2, 1+5e-2),
		SpeciesSum:    Above(5e-3, 5e-2),
		CFLAcoustic:   Above(1.0, 2.0),
		CFLDiffusive:  Above(1.0, 2.0),
		MassDrift:     Above(0.05, 0.5),
		EnergyDrift:   Above(0.05, 0.5),
	}
}
