package health

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/s3dgo/s3d/internal/obs"
)

// Extremum is a field extremum together with the global cell that
// attains it and the rank that owns the cell — the paper's min/max
// monitoring quantities, but locatable.
type Extremum struct {
	V    F      `json:"v"`
	Cell [3]int `json:"cell"`
	Rank int    `json:"rank"`
}

// Sample is one step's worth of physics diagnostics, filled by the solver
// from data its kernels already touch (one fused interior sweep) and folded
// over the ranks of a decomposed run before Evaluate, so it describes the
// whole run. All extrema carry global cell indices and the owning rank;
// Mass and Energy are the volume integrals of the conserved density and
// total energy.
type Sample struct {
	Step int `json:"step"`
	Time F   `json:"time"`
	Dt   F   `json:"dt"`

	// Non-finite conserved values: count plus the first offending cell,
	// the rank that owns it and the conserved quantity found there.
	NaNCount    int    `json:"nan_count"`
	NaNCell     [3]int `json:"nan_cell"`
	NaNRank     int    `json:"nan_rank"`
	NaNQuantity string `json:"nan_quantity,omitempty"`

	RhoMin Extremum `json:"rho_min"`
	RhoMax Extremum `json:"rho_max"`
	TMin   Extremum `json:"t_min"`
	TMax   Extremum `json:"t_max"`
	PMin   Extremum `json:"p_min"`
	PMax   Extremum `json:"p_max"`
	// YMin/YMax are mass-fraction extrema recovered from the conserved
	// state before clipping; YClip is the largest per-cell clipped mass
	// fraction (the hidden sum-to-one drift).
	YMin  Extremum `json:"y_min"`
	YMax  Extremum `json:"y_max"`
	YClip Extremum `json:"y_clip"`

	// CFLAcoustic carries the cell of the fastest signal; CFLDiffusive
	// the cell of the stiffest diffusivity.
	CFLAcoustic  Extremum `json:"cfl_acoustic"`
	CFLDiffusive Extremum `json:"cfl_diffusive"`

	Mass   F `json:"mass"`
	Energy F `json:"energy"`
	// Drifts are relative to the reference the watchdog captured on its
	// first Evaluate (filled by Evaluate, not the solver).
	MassDrift   F `json:"mass_drift"`
	EnergyDrift F `json:"energy_drift"`
}

// CheckStatus is one check's state in a status document or frame.
type CheckStatus struct {
	Level string `json:"level"`
	Value F      `json:"value"`
	Cell  [3]int `json:"cell"`
	// BadSteps / GoodSteps are the hysteresis counters: consecutive steps
	// the raw grade has been bad (≥ warn) or clean.
	BadSteps  int `json:"bad_steps,omitempty"`
	GoodSteps int `json:"good_steps,omitempty"`
}

// Status is the live health document served at /health.
type Status struct {
	Level     string                 `json:"level"`
	Step      int                    `json:"step"`
	Time      F                      `json:"time"`
	Checks    map[string]CheckStatus `json:"checks"`
	Violation *Violation             `json:"violation,omitempty"`
}

// checkNames fixes the evaluation (and reporting) order of the rule set.
var checkNames = []string{
	"nan", "density", "temperature", "pressure",
	"species_bounds", "species_sum",
	"cfl_acoustic", "cfl_diffusive",
	"mass_drift", "energy_drift",
}

// checkState is one rule's hysteresis state.
type checkState struct {
	level Level // tripped level (post-hysteresis)
	bad   int   // consecutive steps graded ≥ Warn
	fatal int   // consecutive steps graded Fatal
	good  int   // consecutive clean steps
	last  CheckStatus
}

// Watchdog evaluates the rule engine over per-step samples, keeps the
// flight recorder, and exposes the live status. It has a single owner
// (the goroutine stepping the block); Status, Handler and the metric
// gauges are safe for concurrent readers. Armed costs one atomic load —
// the entire per-step price when the watchdog is disarmed.
type Watchdog struct {
	cfg   Config
	armed atomic.Bool

	slice func() Slice // optional coarse-slice source for the recorder

	mu        sync.Mutex
	states    map[string]*checkState
	rec       *Recorder
	refMass   float64
	refEnergy float64
	refSet    bool
	status    Status
	violation *Violation

	reg *obs.Registry // nil-safe metric sink
}

// New builds a watchdog. Arm it to start evaluating.
func New(cfg Config) *Watchdog {
	w := &Watchdog{
		cfg:    cfg,
		states: make(map[string]*checkState, len(checkNames)),
		rec:    &Recorder{frames: make([]Frame, recorderFrames)},
		status: Status{Level: OK.String(), Checks: map[string]CheckStatus{}},
	}
	for _, name := range checkNames {
		w.states[name] = &checkState{}
	}
	return w
}

// Config returns the normalized rule set.
func (w *Watchdog) Config() Config { return w.cfg }

// Arm starts evaluation. Armed is the one atomic load the solver pays per
// step when health checking is off.
func (w *Watchdog) Arm()        { w.armed.Store(true) }
func (w *Watchdog) Armed() bool { return w.armed.Load() }

// AttachMetrics directs the health gauges (health.status, health.nan_cells,
// health.check.<name>) at a registry; they appear in /metrics and
// /metrics.prom as health_status etc.
func (w *Watchdog) AttachMetrics(reg *obs.Registry) {
	w.mu.Lock()
	w.reg = reg
	w.mu.Unlock()
}

// SetSliceSource installs the callback that captures the coarse field
// slice stored in each flight-recorder frame (the solver wires this to a
// downsampled temperature mid-plane; health itself knows no grids).
func (w *Watchdog) SetSliceSource(fn func() Slice) { w.slice = fn }

// Recorder exposes the flight recorder (tests, post-mortem dumps).
func (w *Watchdog) Recorder() *Recorder { return w.rec }

// rules returns the ordered (name, value, cell, band) tuples for a sample.
// Two-sided field checks grade both extrema and report the worse one.
func (w *Watchdog) rules(s *Sample) []ruleEval {
	c := &w.cfg
	return []ruleEval{
		nanRule(s),
		pairRule("density", s.RhoMin, s.RhoMax, c.Density),
		pairRule("temperature", s.TMin, s.TMax, c.Temperature),
		pairRule("pressure", s.PMin, s.PMax, c.Pressure),
		pairRule("species_bounds", s.YMin, s.YMax, c.SpeciesBounds),
		singleRule("species_sum", s.YClip, c.SpeciesSum),
		singleRule("cfl_acoustic", s.CFLAcoustic, c.CFLAcoustic),
		singleRule("cfl_diffusive", s.CFLDiffusive, c.CFLDiffusive),
		singleRule("mass_drift", absRule(s.MassDrift), c.MassDrift),
		singleRule("energy_drift", absRule(s.EnergyDrift), c.EnergyDrift),
	}
}

// ruleEval is one check graded against one step.
type ruleEval struct {
	name  string
	value F
	cell  [3]int
	rank  int
	raw   Level
}

func singleRule(name string, e Extremum, b Band) ruleEval {
	return ruleEval{name: name, value: e.V, cell: e.Cell, rank: e.Rank, raw: b.Classify(float64(e.V))}
}

// absRule grades a drift: a whole-run integral has no cell, so it names
// rank 0, as a serial run does.
func absRule(v F) Extremum { return Extremum{V: F(math.Abs(float64(v)))} }

func pairRule(name string, lo, hi Extremum, b Band) ruleEval {
	llo, lhi := b.Classify(float64(lo.V)), b.Classify(float64(hi.V))
	worst := lo
	lvl := llo
	if lhi > llo {
		worst, lvl = hi, lhi
	}
	return ruleEval{name: name, value: worst.V, cell: worst.Cell, rank: worst.Rank, raw: lvl}
}

func nanRule(s *Sample) ruleEval {
	r := ruleEval{name: "nan", value: F(s.NaNCount), cell: s.NaNCell, rank: s.NaNRank}
	if s.NaNCount > 0 {
		r.raw = Fatal
	}
	return r
}

// Evaluate grades one step's sample through the rule engine, records a
// flight-recorder frame, updates the live status and gauges, and returns
// the violation to abort on (nil for a healthy step). A rule violation
// names the rank the sample names, so every rank grading the run's sample
// returns the same one. fault, when non-nil, is a violation the solver's
// kernels recorded mid-step (a would-be panic) — on the faulting rank the
// kernel's own, on its peers Remote — it is always fatal and takes
// precedence over rule trips as the reported cause. Owner-goroutine only.
func (w *Watchdog) Evaluate(s *Sample, fault *Violation) *Violation {
	if !w.refSet {
		w.refMass, w.refEnergy = float64(s.Mass), float64(s.Energy)
		w.refSet = true
	}
	if w.refMass != 0 {
		s.MassDrift = F((float64(s.Mass) - w.refMass) / w.refMass)
	}
	if w.refEnergy != 0 {
		s.EnergyDrift = F((float64(s.Energy) - w.refEnergy) / w.refEnergy)
	}

	w.mu.Lock()
	defer w.mu.Unlock()

	var viol *Violation
	level := OK
	checks := make(map[string]CheckStatus, len(checkNames))
	for _, r := range w.rules(s) {
		st := w.states[r.name]
		w.advanceState(st, r.raw)
		cs := CheckStatus{
			Level: st.level.String(), Value: r.value, Cell: r.cell,
			BadSteps: st.bad, GoodSteps: st.good,
		}
		st.last = cs
		checks[r.name] = cs
		if st.level > level {
			level = st.level
		}
		if st.level == Fatal && viol == nil {
			viol = &Violation{
				Check: r.name, Rank: r.rank, Step: s.Step,
				Cell: r.cell, Quantity: quantityOf(r.name), Value: r.value,
			}
		}
	}
	if fault != nil {
		level = Fatal
		viol = fault
	}
	if w.violation == nil {
		w.violation = viol // first fatal cause is sticky
	} else {
		viol = w.violation
	}
	if level < Fatal && w.violation != nil {
		level = Fatal // fatal state never clears
	}
	if level < Fatal {
		viol = nil
	}

	frame := Frame{
		Step: s.Step, Time: s.Time, Dt: s.Dt,
		Sample: *s, Checks: checks, Level: level.String(),
	}
	if w.slice != nil {
		sl := w.slice()
		frame.Slice = &sl
	}
	w.rec.Add(frame)

	w.status = Status{
		Level: level.String(), Step: s.Step, Time: s.Time,
		Checks: checks, Violation: w.violation,
	}
	w.setGauges(s, level)
	return viol
}

// advanceState applies the hysteresis machine to one check.
func (w *Watchdog) advanceState(st *checkState, raw Level) {
	if st.level == Fatal {
		return // sticky
	}
	if raw >= Warn {
		st.bad++
		st.good = 0
	} else {
		st.good++
		st.bad = 0
	}
	if raw == Fatal {
		st.fatal++
	} else {
		st.fatal = 0
	}
	switch {
	case st.fatal >= fatalAfter:
		st.level = Fatal
	case st.bad >= warnAfter && st.level < Warn:
		st.level = Warn
	case st.level == Warn && st.good >= clearAfter:
		st.level = OK
	}
}

// setGauges publishes the step's health to the metrics registry (called
// under w.mu).
func (w *Watchdog) setGauges(s *Sample, level Level) {
	reg := w.reg
	if reg == nil {
		return
	}
	reg.Gauge("health.status").Set(float64(level))
	reg.Gauge("health.nan_cells").Set(float64(s.NaNCount))
	for name, cs := range w.status.Checks {
		lvl := OK
		switch cs.Level {
		case "warn":
			lvl = Warn
		case "fatal":
			lvl = Fatal
		}
		reg.Gauge("health.check." + name).Set(float64(lvl))
	}
}

// quantityOf names the physical quantity behind a check for Violation.
func quantityOf(check string) string {
	switch check {
	case "density":
		return "rho"
	case "temperature":
		return "T"
	case "pressure":
		return "p"
	case "species_bounds":
		return "Y"
	case "species_sum":
		return "sum(Y)-1"
	case "cfl_acoustic", "cfl_diffusive":
		return "CFL"
	case "mass_drift":
		return "mass"
	case "energy_drift":
		return "energy"
	case "nan":
		return "nan_cells"
	}
	return check
}

// Status returns a copy of the live health document (concurrency-safe).
func (w *Watchdog) Status() Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.status
	checks := make(map[string]CheckStatus, len(st.Checks))
	for k, v := range st.Checks {
		checks[k] = v
	}
	st.Checks = checks
	return st
}

// ObsStatus condenses the status into the trace wire type.
func (w *Watchdog) ObsStatus() obs.HealthStatus {
	st := w.Status()
	hs := obs.HealthStatus{Level: st.Level}
	for _, name := range checkNames {
		if cs, ok := st.Checks[name]; ok && cs.Level != "ok" {
			hs.Tripped = append(hs.Tripped, name)
		}
	}
	return hs
}

// Handler serves the live status as JSON: 200 while ok/warn, 503 once
// fatal (so external probes see a failing run without parsing the body).
func (w *Watchdog) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		st := w.Status()
		rw.Header().Set("Content-Type", "application/json")
		if st.Level == Fatal.String() {
			rw.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
}
