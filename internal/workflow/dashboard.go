package workflow

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/s3dgo/s3d/internal/cost"
	"github.com/s3dgo/s3d/internal/critpath"
	"github.com/s3dgo/s3d/internal/insitu"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/sdf"
	"github.com/s3dgo/s3d/internal/viz"
)

// The web dashboard of paper §9 (figures 17–18): interactive monitoring of
// simulation min/max time traces, and a jobs view across machines. The
// browser/AJAX/MySQL stack is replaced by static artefacts — per-variable
// PNG trace plots (the gnuplot step) and a JSON status document — produced
// from the same pipeline outputs.

// Job is one entry of the figure-18 jobs view.
type Job struct {
	ID      string `json:"id"`
	Machine string `json:"machine"`
	Name    string `json:"name"`
	State   string `json:"state"`
	Cores   int    `json:"cores"`
}

// DashboardStatus is the JSON document backing the dashboard page.
type DashboardStatus struct {
	Jobs      []Job             `json:"jobs"`
	Variables []string          `json:"variables"`
	Images    map[string]string `json:"images"` // variable → plot path
	Notes     map[string]string `json:"notes"`  // user annotations (§9)

	// Telemetry summarises the run's trace (dashboard/trace.jsonl, written
	// by a driver's -trace flag) when one is present: step count, simulated
	// time, mean wall time per step and communication volume. Nil when no
	// trace has been copied in. The health, analysis, balance and critpath
	// lanes below are read from the same trace.
	Telemetry *obs.TraceSummary `json:"telemetry,omitempty"`

	// Health is the run-health lane: the watchdog's verdict for the traced
	// run, next to the min/max plots. Nil when the trace carried no
	// watchdog records (run without -health).
	Health *HealthLane `json:"health,omitempty"`

	// Fields is the run's field inventory (dashboard/fields.json, the
	// solver-registry /fields document dropped in by the production
	// driver): every field's name, role, halo group and checkpoint
	// membership. Nil when no inventory has been copied in.
	Fields *FieldsLane `json:"fields,omitempty"`

	// Analysis is the in-situ science lane (the trace's analysis records):
	// what was reduced, how often, and the final record's scalar
	// statistics. Nil when the trace carries none.
	Analysis *AnalysisLane `json:"analysis,omitempty"`

	// Balance is the load-imbalance lane (the trace's cost records): the
	// final record's measured per-kernel tile imbalance and region seconds.
	// Nil when the trace carries none.
	Balance *BalanceLane `json:"balance,omitempty"`

	// CritPath is the wait-state lane (the trace's critpath records): which
	// rank the critical path ran through, the dominant wait class, and the
	// blamed region of the final record. Nil when the trace carries none.
	CritPath *CritPathLane `json:"critpath,omitempty"`
}

// FieldEntry mirrors one entry of the fields.json inventory — the field
// registry metadata the solver publishes (see the root package's
// FieldInfo and the monitor's /fields endpoint).
type FieldEntry struct {
	Name       string `json:"name"`
	Role       string `json:"role"`
	Species    string `json:"species,omitempty"`
	HaloGroup  string `json:"halo_group,omitempty"`
	Checkpoint string `json:"checkpoint,omitempty"`
	Derived    bool   `json:"derived,omitempty"`
}

// FieldsLane is the dashboard's registry view: the producing run's grid,
// the full inventory, and the checkpoint subset in on-disk order (the
// restart-file ABI an operator checks before morphing or archiving).
type FieldsLane struct {
	Grid         [3]int         `json:"grid"`
	Count        int            `json:"count"`
	Fields       []FieldEntry   `json:"fields"`
	Checkpointed []string       `json:"checkpointed,omitempty"`
	RoleCounts   map[string]int `json:"role_counts,omitempty"`
}

// readFieldsLane parses fields.json into the dashboard lane.
func readFieldsLane(path string) (*FieldsLane, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Grid   [3]int       `json:"grid"`
		Count  int          `json:"count"`
		Fields []FieldEntry `json:"fields"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("workflow: %s: %v", path, err)
	}
	lane := &FieldsLane{
		Grid:       doc.Grid,
		Count:      doc.Count,
		Fields:     doc.Fields,
		RoleCounts: map[string]int{},
	}
	for _, f := range doc.Fields {
		lane.RoleCounts[f.Role]++
		if f.Checkpoint != "" {
			lane.Checkpointed = append(lane.Checkpointed, f.Checkpoint)
		}
	}
	return lane, nil
}

// AnalysisLane surfaces the in-situ science-reduction pipeline on the
// dashboard page: the record count and span, the product inventory, and
// the final record's scalar statistics — the "is the flame doing what we
// expect" glance without loading every record.
type AnalysisLane struct {
	Records   int      `json:"records"`
	FirstStep int      `json:"first_step"`
	LastStep  int      `json:"last_step"`
	LastTime  float64  `json:"last_time"`
	Products  []string `json:"products,omitempty"`
	// Scalars flattens the final record's scalar statistics as
	// "<product>.<name>" → value (e.g. "T_favre.mean", "heat_release.watts").
	Scalars map[string]float64 `json:"scalars,omitempty"`
}

// analysisLane builds the lane from the trace's analysis records; nil when
// there are none.
func analysisLane(recs []insitu.Record) *AnalysisLane {
	if len(recs) == 0 {
		return nil
	}
	last := recs[len(recs)-1]
	lane := &AnalysisLane{
		Records:   len(recs),
		FirstStep: recs[0].Step,
		LastStep:  last.Step,
		LastTime:  last.Time,
		Scalars:   map[string]float64{},
	}
	for _, pr := range last.Products {
		lane.Products = append(lane.Products, pr.Name)
		for k, v := range pr.Scalars {
			lane.Scalars[pr.Name+"."+k] = v
		}
	}
	return lane
}

// BalanceKernel is one kernel's row in the balance lane.
type BalanceKernel struct {
	Kernel    string  `json:"kernel"`
	Imbalance float64 `json:"imbalance"` // max/mean unit seconds
	RegionS   float64 `json:"region_s"`  // exclusive region seconds of the window
}

// BalanceLane surfaces the spatial cost sampler on the dashboard page: the
// measured per-kernel tile imbalance and region seconds of the final record
// — the "where did the step's time go, and were the tiles even" glance.
type BalanceLane struct {
	Records  int             `json:"records"`
	LastStep int             `json:"last_step"`
	Kernels  []BalanceKernel `json:"kernels,omitempty"`
	// WorstKernel is the kernel with the highest unit imbalance.
	WorstKernel string `json:"worst_kernel,omitempty"`
}

// balanceLane builds the lane from the trace's cost records; nil when there
// are none.
func balanceLane(recs []cost.Record) *BalanceLane {
	if len(recs) == 0 {
		return nil
	}
	last := recs[len(recs)-1]
	lane := &BalanceLane{Records: len(recs), LastStep: last.Step}
	worst := 0.0
	for _, k := range last.Kernels {
		lane.Kernels = append(lane.Kernels, BalanceKernel{
			Kernel: k.Kernel, Imbalance: k.Imbalance, RegionS: k.RegionS,
		})
		if k.Imbalance > worst {
			worst = k.Imbalance
			lane.WorstKernel = k.Kernel
		}
	}
	return lane
}

// CritPathLane surfaces the cross-rank wait-state and critical-path
// analyzer on the dashboard page: the final record's verdict sentence, the
// rank the critical path ran through and its share, the dominant wait
// class, the fraction of aggregate step time lost blocked, and the most
// blamed call-path region — the "which rank is making steps slow, and in
// which kernel" glance.
type CritPathLane struct {
	Records      int     `json:"records"`
	LastStep     int     `json:"last_step"`
	CritRank     int     `json:"crit_rank"`
	CritShare    float64 `json:"crit_share"`
	DominantWait string  `json:"dominant_wait"`
	LostFrac     float64 `json:"lost_frac"`
	BlamedRegion string  `json:"blamed_region,omitempty"`
	Verdict      string  `json:"verdict"`
	// MeanLostFrac averages the lost fraction over every record — one bad
	// step vs a chronically imbalanced run.
	MeanLostFrac float64 `json:"mean_lost_frac"`
}

// critPathLane builds the lane from the trace's critpath records; nil when
// there are none.
func critPathLane(recs []critpath.Record) *CritPathLane {
	if len(recs) == 0 {
		return nil
	}
	last := recs[len(recs)-1]
	lane := &CritPathLane{
		Records:      len(recs),
		LastStep:     last.Step,
		CritRank:     last.CritRank,
		CritShare:    last.CritShare,
		DominantWait: last.DominantWait,
		LostFrac:     last.LostFrac,
		Verdict:      last.Verdict,
	}
	if len(last.Blame) > 0 {
		lane.BlamedRegion = last.Blame[0].Path
	}
	for _, r := range recs {
		lane.MeanLostFrac += r.LostFrac
	}
	lane.MeanLostFrac /= float64(len(recs))
	return lane
}

// HealthLane surfaces the run-health watchdog on the dashboard page: the
// final level, every check that tripped on any step, and the non-ok
// timeline, so an operator sees a run going bad — and when it started going
// bad — without opening the post-mortem bundle.
type HealthLane struct {
	Level   string   `json:"level"`             // final step's watchdog level
	Tripped []string `json:"tripped,omitempty"` // checks warn/fatal on any step
	// Steps/Levels are the non-ok timeline: the step numbers the watchdog
	// graded warn or fatal, with the matching level per entry.
	Steps  []int    `json:"steps,omitempty"`
	Levels []string `json:"levels,omitempty"`
	// FirstBadStep is the first non-ok step (0 when the run stayed clean).
	FirstBadStep int `json:"first_bad_step,omitempty"`
}

// healthLane builds the lane from parsed trace records; nil when no step
// record carries a watchdog verdict.
func healthLane(recs []obs.Record, sum obs.TraceSummary) *HealthLane {
	lane := &HealthLane{Level: sum.Health, Tripped: sum.HealthTripped}
	seen := false
	for _, r := range recs {
		if r.Kind != obs.KindStep || r.StepData == nil || r.StepData.Health == nil {
			continue
		}
		seen = true
		if h := r.StepData.Health; h.Level != "ok" {
			if lane.FirstBadStep == 0 {
				lane.FirstBadStep = r.StepData.Step
			}
			lane.Steps = append(lane.Steps, r.StepData.Step)
			lane.Levels = append(lane.Levels, h.Level)
		}
	}
	if !seen {
		return nil
	}
	return lane
}

// minmaxRow is one parsed dashboard table row: step, variable, min, max.
type minmaxRow struct {
	step     float64
	variable string
	lo, hi   float64
}

// parseMinMaxCSV reads the table PlotMinMax appends to.
func parseMinMaxCSV(path string) ([]minmaxRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []minmaxRow
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("workflow: %s:%d: want 4 fields, got %d", path, lineNo+1, len(parts))
		}
		step, err1 := strconv.ParseFloat(parts[0], 64)
		lo, err2 := strconv.ParseFloat(parts[2], 64)
		hi, err3 := strconv.ParseFloat(parts[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("workflow: %s:%d: bad numbers", path, lineNo+1)
		}
		rows = append(rows, minmaxRow{step, parts[1], lo, hi})
	}
	return rows, nil
}

// BuildDashboard renders the figure-17 min/max trace plots (one PNG per
// variable, min and max series) and writes the figure-18 status JSON.
// It returns the status document.
func BuildDashboard(c *Cluster, jobs []Job) (*DashboardStatus, error) {
	rows, err := parseMinMaxCSV(filepath.Join(c.Dashboard, "minmax.csv"))
	if err != nil {
		return nil, err
	}
	byVar := map[string][]minmaxRow{}
	for _, r := range rows {
		byVar[r.variable] = append(byVar[r.variable], r)
	}
	status := &DashboardStatus{
		Jobs:   jobs,
		Images: map[string]string{},
		Notes:  map[string]string{},
	}
	for name := range byVar {
		status.Variables = append(status.Variables, name)
	}
	sort.Strings(status.Variables)

	// The run trace dropped next to the CSV enriches the page with solver
	// telemetry and the health, analysis, balance and critpath lanes, all
	// read from its one record stream; its absence is not an error.
	if recs, err := obs.ReadTraceFile(filepath.Join(c.Dashboard, "trace.jsonl")); err == nil {
		sum := obs.Summarize(recs)
		status.Telemetry = &sum
		status.Health = healthLane(recs, sum)
		// A payload that does not decode ends its lane at the records before it.
		a, _ := obs.Payloads[insitu.Record](recs, obs.KindAnalysis)
		status.Analysis = analysisLane(a)
		b, _ := obs.Payloads[cost.Record](recs, obs.KindCost)
		status.Balance = balanceLane(b)
		cp, _ := obs.Payloads[critpath.Record](recs, obs.KindCritPath)
		status.CritPath = critPathLane(cp)
	}

	// Likewise the field inventory: the producer drops the registry's
	// /fields document next to the CSV; its absence is not an error.
	if lane, err := readFieldsLane(filepath.Join(c.Dashboard, "fields.json")); err == nil {
		status.Fields = lane
	}

	for _, name := range status.Variables {
		vr := byVar[name]
		sort.Slice(vr, func(i, j int) bool { return vr[i].step < vr[j].step })
		x := make([]float64, len(vr))
		lo := make([]float64, len(vr))
		hi := make([]float64, len(vr))
		for i, r := range vr {
			x[i], lo[i], hi[i] = r.step, r.lo, r.hi
		}
		if len(x) < 2 {
			continue // a single checkpoint cannot plot a trace yet
		}
		lp := &viz.LinePlot{
			Title: name,
			X:     x,
			Series: map[string][]float64{
				"min": lo,
				"max": hi,
			},
		}
		img, err := lp.Render()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(c.Dashboard, "trace_"+sanitize(name)+".png")
		if err := sdf.WriteAtomic(path, func(w io.Writer) error { return viz.WritePNG(w, img) }); err != nil {
			return nil, err
		}
		status.Images[name] = path
	}

	if err := writeStatus(c, status); err != nil {
		return nil, err
	}
	return status, nil
}

// writeStatus lands status.json — the one file a browser polls while the
// workflow rewrites it — whole or not at all (sdf.WriteAtomic): a reader
// sees the previous document or the new one, never a truncated one.
func writeStatus(c *Cluster, status *DashboardStatus) error {
	out, err := json.MarshalIndent(status, "", "  ")
	if err != nil {
		return err
	}
	return sdf.WriteAtomic(filepath.Join(c.Dashboard, "status.json"), func(w io.Writer) error {
		_, err := w.Write(out)
		return err
	})
}

// Annotate records a user note against a dashboard image ("we are allowing
// the users to annotate each image", §9), merged into status.json.
func Annotate(c *Cluster, variable, note string) error {
	path := filepath.Join(c.Dashboard, "status.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var status DashboardStatus
	if err := json.Unmarshal(data, &status); err != nil {
		return err
	}
	if status.Notes == nil {
		status.Notes = map[string]string{}
	}
	status.Notes[variable] = note
	return writeStatus(c, &status)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}
