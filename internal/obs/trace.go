package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"

	"github.com/s3dgo/s3d/internal/jsonl"
)

// The structured run trace: one JSON object per line (JSONL), the one record
// stream a run writes. Every record carries a "kind" discriminator; exactly
// one of the kind-specific payload fields is populated — a layer record's
// Payload is the layer's own json.Marshal encoding, so obs imports none of
// the layers. The schema is documented field-by-field in README.md
// ("Observability") and round-tripped by the obs tests.

// Record kinds.
const (
	KindRunStart   = "run_start"
	KindStep       = "step"
	KindCheckpoint = "checkpoint"
	KindRunDone    = "run_done"

	// The layer kinds: a due step's records precede its step record, in this
	// order, each keyed by the step id its payload carries.
	KindAnalysis = "analysis"
	KindCost     = "cost"
	KindCritPath = "critpath"
)

// CommStats is the communication-layer slice of a step record: cumulative
// per-rank message counts and blocked time, as accounted by internal/comm.
type CommStats struct {
	BytesSent int64 `json:"bytes_sent"`
	MsgsSent  int64 `json:"msgs_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	MsgsRecv  int64 `json:"msgs_recv"`
	// WaitSec is time blocked in point-to-point Wait, the sum of the
	// per-peer waits; CollSec is time blocked in collectives
	// (Allreduce/AllreduceOrdered/Barrier).
	WaitSec    float64 `json:"wait_sec"`
	CollSec    float64 `json:"coll_sec"`
	Allreduces int64   `json:"allreduces"`
	Barriers   int64   `json:"barriers"`
}

// StepEvent is the per-solver-step record (one per StepOnce). Its physics
// values are F: the step that killed a run with a NaN still encodes, its
// non-finite values as strings.
type StepEvent struct {
	Step int `json:"step"`
	Time F   `json:"time"` // physical time after the step (s)
	Dt   F   `json:"dt"`   // step size (s)
	// CFL is dt relative to the most recently evaluated acoustic limit
	// (dt·CFLnumber/acousticDt); the limit is refreshed every 20 steps, not
	// every step, to keep tracing off the hot path.
	CFL F `json:"cfl"`
	// WallSec is the wall time of the whole step; StageWallSec is the wall
	// time of each RK stage (RHS evaluation + 2N update), len = 6 for the
	// production RK46-NL integrator.
	WallSec      float64   `json:"wall_sec"`
	StageWallSec []float64 `json:"stage_wall_sec"`
	// Physics monitors, sampled at the final RK stage evaluation over the
	// emitting rank's block: in a decomposed run these are rank 0's, not the
	// global extrema (those are in the health sample and cmd/s3d's progress
	// lines).
	TMin F `json:"t_min"`
	TMax F `json:"t_max"`
	PMin F `json:"p_min"`
	PMax F `json:"p_max"`
	// MassDrift is (M(t) − M(0)) / M(0) over the block interior.
	MassDrift F `json:"mass_drift"`
	// HeatRelease is the volume integral of −Σ ω̇ᵢhᵢ over the interior (W),
	// accumulated during the final RK stage's chemistry evaluation.
	HeatRelease F `json:"heat_release"`

	// Comm is the emitting rank's cumulative counters; the last step record
	// of a run carries its totals.
	Comm CommStats `json:"comm"`

	// Health is the watchdog's verdict for the step (nil when no watchdog
	// is armed). obs defines only the wire type; the rule engine lives in
	// internal/health, which imports obs (not the other way round).
	Health *HealthStatus `json:"health,omitempty"`
}

// HealthStatus is the per-step health slice of a step record: the overall
// level ("ok" | "warn" | "fatal") and the names of any tripped checks.
type HealthStatus struct {
	Level   string   `json:"level"`
	Tripped []string `json:"tripped,omitempty"`
}

// RunInfo is the run_start payload: enough to identify what ran and how.
type RunInfo struct {
	Case      string            `json:"case"`
	GoVersion string            `json:"go_version"`
	Revision  string            `json:"revision,omitempty"`
	Modified  bool              `json:"modified,omitempty"` // VCS tree had local edits
	NumCPU    int               `json:"num_cpu"`
	Workers   int               `json:"workers,omitempty"` // kernel worker-pool size
	Config    map[string]string `json:"config"`            // flattened config manifest
}

// CheckpointEvent is the checkpoint payload.
type CheckpointEvent struct {
	Step int    `json:"step"`
	Path string `json:"path"`
}

// RunSummary is the run_done payload.
type RunSummary struct {
	Steps       int      `json:"steps"`
	SimTime     float64  `json:"sim_time"`
	WallSec     float64  `json:"wall_sec"`
	Metrics     Snapshot `json:"metrics"`
	PerfReport  string   `json:"perf_report,omitempty"`
	ExitMessage string   `json:"exit_message,omitempty"`
}

// Record is the JSONL envelope.
type Record struct {
	Kind       string           `json:"kind"`
	Run        *RunInfo         `json:"run,omitempty"`
	StepData   *StepEvent       `json:"step,omitempty"`
	Checkpoint *CheckpointEvent `json:"checkpoint,omitempty"`
	Done       *RunSummary      `json:"done,omitempty"`
	Payload    json.RawMessage  `json:"payload,omitempty"` // a layer record (see Payloads)
}

// Trace writes the JSONL stream through a jsonl.Store, so a record is on
// its way to the sink when the emitting call returns and a killed run keeps
// every step it completed. A failed write or encoding never takes the run
// down; the first one is returned by Flush and Close. Methods are safe for
// concurrent use.
type Trace struct {
	st  *jsonl.Store[any] // a Record or a layerRecord per line
	mu  sync.Mutex
	err error // the first failed write or encoding
}

// layerRecord is a layer record as Layer writes it: the bytes of
// Record{Kind: kind, Payload: json.Marshal(rec)}, with the payload encoded
// in place, so a record costs the run no copy of its payload.
type layerRecord struct {
	Kind    string `json:"kind"`
	Payload any    `json:"payload"`
}

// NewTrace wraps a writer. The caller owns w's lifetime.
func NewTrace(w io.Writer) *Trace { return &Trace{st: jsonl.New[any](w)} }

// CreateTrace creates (truncates) a trace file; Close closes it.
func CreateTrace(path string) (*Trace, error) {
	st, err := jsonl.Create[any](path)
	if err != nil {
		return nil, err
	}
	return &Trace{st: st}, nil
}

// emit appends one record, keeping the first failure.
func (t *Trace) emit(r any) {
	err := t.st.Append(r)
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// RunStartInfo emits the run_start record from a RunInfo built by
// NewRunInfo, on which the caller stamps what NewRunInfo cannot know, like
// the worker-pool size (obs cannot import the execution layer, which
// imports obs).
func (t *Trace) RunStartInfo(info *RunInfo) { t.emit(Record{Kind: KindRunStart, Run: info}) }

// Step emits one step record.
func (t *Trace) Step(ev StepEvent) { t.emit(Record{Kind: KindStep, StepData: &ev}) }

// Checkpoint emits a checkpoint record.
func (t *Trace) Checkpoint(step int, path string) {
	t.emit(Record{Kind: KindCheckpoint, Checkpoint: &CheckpointEvent{Step: step, Path: path}})
}

// RunDone emits the run_done record.
func (t *Trace) RunDone(sum RunSummary) { t.emit(Record{Kind: KindRunDone, Done: &sum}) }

// Layer emits one layer record of the given kind; its payload is
// json.Marshal(rec).
func (t *Trace) Layer(kind string, rec any) { t.emit(layerRecord{kind, rec}) }

// Flush reports the first write failure so far; there is nothing to drain,
// every record went to the sink as it was emitted.
func (t *Trace) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close closes the sink when Trace owns it. It returns the first error
// encountered over the trace's lifetime.
func (t *Trace) Close() error {
	cerr := t.st.Close()
	if err := t.Flush(); err != nil {
		return err
	}
	return cerr
}

// NewRunInfo fills a RunInfo from the build environment.
func NewRunInfo(caseName string, config map[string]string) *RunInfo {
	info := &RunInfo{
		Case:      caseName,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Config:    config,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.Revision = s.Value
			case "vcs.modified":
				info.Modified = s.Value == "true"
			}
		}
	}
	return info
}

// ReadTrace parses a JSONL trace stream, tolerating a corrupt tail: a run
// killed mid-write leaves a truncated final line, and the valid prefix must
// still summarise. Unparseable lines with no valid record after them (the
// truncated-tail case, including an over-long final fragment) are dropped
// silently and the prefix is returned with a nil error. An unparseable line
// *followed by* valid records means mid-stream corruption: the valid prefix
// before the damage is returned along with an error naming the line.
func ReadTrace(r io.Reader) ([]Record, error) {
	return jsonl.ReadFrom[Record]("obs: trace line ", r)
}

// Payloads decodes the payload of every record of one layer kind, in trace
// order. On a payload that does not decode it returns those before it and
// the error.
func Payloads[T any](recs []Record, kind string) ([]T, error) {
	var out []T
	for i, r := range recs {
		if r.Kind != kind {
			continue
		}
		var v T
		if err := json.Unmarshal(r.Payload, &v); err != nil {
			return out, fmt.Errorf("obs: record %d (%s): %w", i+1, kind, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ReadTraceFile parses a trace.jsonl from disk.
func ReadTraceFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// TraceSummary condenses a trace for dashboards: the aggregate the
// workflow layer surfaces next to the min/max plots.
type TraceSummary struct {
	Case        string  `json:"case"`
	Steps       int     `json:"steps"`
	SimTime     float64 `json:"sim_time"`
	WallSec     float64 `json:"wall_sec"`
	MeanStepSec float64 `json:"mean_step_sec"`
	TMax        float64 `json:"t_max"`
	CommBytes   int64   `json:"comm_bytes"`
	Checkpoints int     `json:"checkpoints"`
	Done        bool    `json:"done"`
	// Health is the final step's watchdog level ("" when the run carried
	// no watchdog); HealthTripped lists every check that was warn/fatal on
	// any step — the dashboard's health lane.
	Health        string   `json:"health,omitempty"`
	HealthTripped []string `json:"health_tripped,omitempty"`
}

// Summarize reduces parsed records to a TraceSummary.
func Summarize(recs []Record) TraceSummary {
	var s TraceSummary
	var stepWall float64
	tripped := map[string]bool{}
	for _, r := range recs {
		switch r.Kind {
		case KindRunStart:
			if r.Run != nil {
				s.Case = r.Run.Case
			}
		case KindStep:
			if ev := r.StepData; ev != nil {
				s.Steps++
				s.SimTime = float64(ev.Time)
				stepWall += ev.WallSec
				if tMax := float64(ev.TMax); tMax > s.TMax {
					s.TMax = tMax
				}
				// Comm counters in step records are cumulative; the last
				// record carries the totals.
				s.CommBytes = ev.Comm.BytesSent
				if ev.Health != nil {
					s.Health = ev.Health.Level
					for _, name := range ev.Health.Tripped {
						if !tripped[name] {
							tripped[name] = true
							s.HealthTripped = append(s.HealthTripped, name)
						}
					}
				}
			}
		case KindCheckpoint:
			s.Checkpoints++
		case KindRunDone:
			s.Done = true
			if r.Done != nil {
				s.WallSec = r.Done.WallSec
			}
		}
	}
	if s.WallSec == 0 {
		s.WallSec = stepWall
	}
	if s.Steps > 0 {
		s.MeanStepSec = stepWall / float64(s.Steps)
	}
	return s
}
