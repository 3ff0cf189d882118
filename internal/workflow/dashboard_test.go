package workflow

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/cost"
	"github.com/s3dgo/s3d/internal/critpath"
	"github.com/s3dgo/s3d/internal/obs"
)

func seedMinMax(t *testing.T, c *Cluster) {
	t.Helper()
	rows := "1,T,300,2000\n2,T,300,2100\n3,T,301,2150\n1,Y_OH,0,0.001\n2,Y_OH,0,0.002\n3,Y_OH,0,0.004\n"
	if err := os.WriteFile(filepath.Join(c.Dashboard, "minmax.csv"), []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDashboard(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	jobs := []Job{
		{ID: "123", Machine: "jaguar", Name: "s3d-lifted", State: "R", Cores: 10000},
		{ID: "77", Machine: "ewok", Name: "morph", State: "Q", Cores: 16},
	}
	status, err := BuildDashboard(c, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Variables) != 2 || status.Variables[0] != "T" || status.Variables[1] != "Y_OH" {
		t.Fatalf("variables = %v", status.Variables)
	}
	for _, v := range status.Variables {
		img := status.Images[v]
		if img == "" {
			t.Fatalf("no image for %s", v)
		}
		if _, err := os.Stat(img); err != nil {
			t.Fatalf("image missing: %v", err)
		}
	}
	// status.json round-trips.
	data, err := os.ReadFile(filepath.Join(c.Dashboard, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got DashboardStatus
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 2 || got.Jobs[0].Machine != "jaguar" {
		t.Fatalf("jobs lost: %+v", got.Jobs)
	}
}

func TestDashboardTelemetrySummary(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	// A step line as written while records still carried a "pario" object:
	// the dashboard keeps reading such traces.
	trace := `{"kind":"run_start","time_unix":1,"run":{"case":"liftedflame","config":{"grid":"32x24x1"}}}
{"kind":"step","step":{"step":1,"time":1e-7,"dt":1e-7,"cfl":0.4,"wall_sec":0.5,"stage_wall_sec":[0.1],"t_min":300,"t_max":2100,"p_min":101000,"p_max":102000,"mass_drift":0,"heat_release":1e5,"comm":{"bytes_sent":4096,"msgs_sent":8,"bytes_recv":4096,"msgs_recv":8,"wait_sec":0.01,"coll_sec":0,"allreduces":1,"barriers":0},"pario":{"cache_accesses":10,"cache_misses":2,"cache_evictions":0,"remote_forwards":0,"cache_hit_rate":0.8,"wb_queue_bytes":0,"wb_flushes":0,"wb_flush_sec":0}}}
{"kind":"checkpoint","time_unix":2,"checkpoint":{"step":1,"path":"restart-000001.sdf"}}
{"kind":"run_done","done":{"steps":1,"sim_time":1e-7,"wall_sec":0.6,"exit_message":"completed"}}
`
	if err := os.WriteFile(filepath.Join(c.Dashboard, "trace.jsonl"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	status, err := BuildDashboard(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status.Telemetry == nil {
		t.Fatal("trace.jsonl present but Telemetry nil")
	}
	if status.Telemetry.Case != "liftedflame" || status.Telemetry.Steps != 1 ||
		status.Telemetry.CommBytes != 4096 ||
		status.Telemetry.Checkpoints != 1 || !status.Telemetry.Done {
		t.Fatalf("bad summary: %+v", status.Telemetry)
	}
	// The summary survives the status.json round trip.
	data, err := os.ReadFile(filepath.Join(c.Dashboard, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got DashboardStatus
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Telemetry == nil || got.Telemetry.TMax != 2100 {
		t.Fatalf("telemetry lost in status.json: %+v", got.Telemetry)
	}
	// The trace carried no watchdog records, so there is no health lane.
	if got.Health != nil {
		t.Fatalf("no watchdog in trace, yet Health = %+v", got.Health)
	}
}

// TestDashboardHealthLane feeds a trace from a run that tripped the
// watchdog and checks that the lane names the verdict, the tripped checks
// and the step the run started going bad.
func TestDashboardHealthLane(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	step := func(n int, health string) string {
		return `{"kind":"step","step":{"step":` + strconv.Itoa(n) +
			`,"time":1e-7,"dt":1e-7,"cfl":0.4,"wall_sec":0.5,"stage_wall_sec":[0.1],` +
			`"t_min":300,"t_max":2100,"p_min":101000,"p_max":102000,"mass_drift":0,` +
			`"heat_release":0,"comm":{},"pario":{}` + health + `}}` + "\n"
	}
	trace := `{"kind":"run_start","time_unix":1,"run":{"case":"liftedflame","config":{}}}` + "\n" +
		step(1, `,"health":{"level":"ok"}`) +
		step(2, `,"health":{"level":"warn","tripped":["species_sum"]}`) +
		step(3, `,"health":{"level":"fatal","tripped":["species_sum","temperature"]}`)
	if err := os.WriteFile(filepath.Join(c.Dashboard, "trace.jsonl"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	status, err := BuildDashboard(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status.Health == nil {
		t.Fatal("watchdog trace present but Health lane nil")
	}
	if status.Health.Level != "fatal" {
		t.Fatalf("lane level = %q, want fatal", status.Health.Level)
	}
	if status.Health.FirstBadStep != 2 {
		t.Fatalf("first bad step = %d, want 2", status.Health.FirstBadStep)
	}
	if len(status.Health.Steps) != 2 || status.Health.Steps[0] != 2 || status.Health.Steps[1] != 3 ||
		status.Health.Levels[0] != "warn" || status.Health.Levels[1] != "fatal" {
		t.Fatalf("non-ok timeline wrong: steps=%v levels=%v", status.Health.Steps, status.Health.Levels)
	}
	want := map[string]bool{"species_sum": true, "temperature": true}
	for _, name := range status.Health.Tripped {
		delete(want, name)
	}
	if len(want) != 0 {
		t.Fatalf("tripped checks missing %v (got %v)", want, status.Health.Tripped)
	}

	// The lane survives the status.json round trip.
	data, err := os.ReadFile(filepath.Join(c.Dashboard, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got DashboardStatus
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Health == nil || got.Health.Level != "fatal" || got.Health.FirstBadStep != 2 {
		t.Fatalf("health lane lost in status.json: %+v", got.Health)
	}
}

func TestDashboardFieldsLane(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	// A trimmed /fields document as the production driver drops it.
	doc := `{"grid":[16,12,1],"ghost":5,"count":4,"fields":[
{"name":"Q_rho","role":"conserved","halo_group":"conserved","checkpoint":"rho"},
{"name":"T","role":"primitive","checkpoint":"T_guess"},
{"name":"Y_OH","role":"primitive","species":"OH"},
{"name":"hrr","role":"derived","derived":true}]}`
	if err := os.WriteFile(filepath.Join(c.Dashboard, "fields.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	status, err := BuildDashboard(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	lane := status.Fields
	if lane == nil {
		t.Fatal("fields.json present but Fields nil")
	}
	if lane.Grid != [3]int{16, 12, 1} || lane.Count != 4 || len(lane.Fields) != 4 {
		t.Fatalf("lane shape wrong: %+v", lane)
	}
	if len(lane.Checkpointed) != 2 || lane.Checkpointed[0] != "rho" || lane.Checkpointed[1] != "T_guess" {
		t.Fatalf("checkpoint subset %v (order is the on-disk ABI)", lane.Checkpointed)
	}
	if lane.RoleCounts["primitive"] != 2 || lane.RoleCounts["conserved"] != 1 {
		t.Fatalf("role counts %v", lane.RoleCounts)
	}
	if lane.Fields[2].Species != "OH" {
		t.Fatalf("species metadata lost: %+v", lane.Fields[2])
	}
	// The lane survives the status.json round trip.
	data, _ := os.ReadFile(filepath.Join(c.Dashboard, "status.json"))
	var got DashboardStatus
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Fields == nil || got.Fields.Count != 4 {
		t.Fatalf("fields lane lost in status.json: %+v", got.Fields)
	}
}

func TestDashboardWithoutTraceOmitsTelemetry(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	status, err := BuildDashboard(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status.Telemetry != nil {
		t.Fatalf("no trace file, yet Telemetry = %+v", status.Telemetry)
	}
}

func TestDashboardAnnotation(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	if _, err := BuildDashboard(c, nil); err != nil {
		t.Fatal(err)
	}
	if err := Annotate(c, "T", "ignition transient visible at step 2"); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(filepath.Join(c.Dashboard, "status.json"))
	var got DashboardStatus
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Notes["T"] == "" {
		t.Fatal("annotation lost")
	}
}

// TestStatusNeverHalfWritten: status.json is the file a browser polls while
// the workflow rewrites it. A reader racing a run of rewrites parses a whole
// document every time, and a rewrite that cannot land (a dashboard directory
// turned read-only) leaves the previous document in place.
func TestStatusNeverHalfWritten(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	if _, err := BuildDashboard(c, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dashboard, "status.json")
	readStatus := func() (DashboardStatus, error) {
		var got DashboardStatus
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &got)
		}
		return got, err
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := readStatus(); err != nil {
				t.Errorf("reader saw a broken status.json: %v", err)
				return
			}
		}
	}()
	note := strings.Repeat("x", 128<<10) // a document worth several write calls
	for i := 0; i < 50; i++ {
		if err := Annotate(c, "T", note+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	if os.Geteuid() == 0 {
		return // root writes into read-only directories
	}
	if err := os.Chmod(c.Dashboard, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(c.Dashboard, 0o755)
	if err := Annotate(c, "T", "lost"); err == nil {
		t.Fatal("rewrite into a read-only dashboard directory must fail")
	}
	if got, err := readStatus(); err != nil || got.Notes["T"] != note+"49" {
		t.Fatalf("failed rewrite disturbed status.json: %v", err)
	}
}

func TestParseMinMaxCSVErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("1,T,300\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseMinMaxCSV(bad); err == nil {
		t.Fatal("expected field-count error")
	}
	if err := os.WriteFile(bad, []byte("x,T,1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseMinMaxCSV(bad); err == nil {
		t.Fatal("expected number error")
	}
}

func TestDashboardSingleSampleSkipsPlot(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dashboard, "minmax.csv"),
		[]byte("1,T,300,2000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	status, err := BuildDashboard(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := status.Images["T"]; ok {
		t.Fatal("single-point trace should not plot")
	}
}

// writeTrace drops a run trace next to the dashboard CSV holding one layer
// record per payload, each of the given kind.
func writeTrace(t *testing.T, c *Cluster, kind string, payloads ...any) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf)
	tr.RunStartInfo(&obs.RunInfo{Case: "liftedflame"})
	for _, p := range payloads {
		tr.Layer(kind, p)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dashboard, "trace.jsonl"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDashboardAnalysisLane drops a trace carrying the in-situ pipeline's
// records next to the dashboard CSV and checks BuildDashboard surfaces them
// as the science lane.
func TestDashboardAnalysisLane(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	// Two lines as an analysis store of the pipeline's own held them.
	writeTrace(t, c, obs.KindAnalysis,
		json.RawMessage(`{"step":2,"time":2e-8,"products":[{"op":"moments","name":"T_favre","scalars":{"mean":350,"rms":40}}]}`),
		json.RawMessage(`{"step":4,"time":4e-8,"products":[{"op":"moments","name":"T_favre","scalars":{"mean":360,"rms":41}},{"op":"scalar","name":"heat_release","scalars":{"watts":1.5e6}}]}`))
	status, err := BuildDashboard(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	lane := status.Analysis
	if lane == nil {
		t.Fatal("analysis records in the trace, yet Analysis lane nil")
	}
	if lane.Records != 2 || lane.FirstStep != 2 || lane.LastStep != 4 || lane.LastTime != 4e-8 {
		t.Fatalf("lane span wrong: %+v", lane)
	}
	if len(lane.Products) != 2 || lane.Products[0] != "T_favre" || lane.Products[1] != "heat_release" {
		t.Fatalf("product inventory wrong: %v", lane.Products)
	}
	if lane.Scalars["T_favre.mean"] != 360 || lane.Scalars["heat_release.watts"] != 1.5e6 {
		t.Fatalf("scalars not flattened from the final record: %v", lane.Scalars)
	}
	// The lane survives the status.json round trip.
	data, err := os.ReadFile(filepath.Join(c.Dashboard, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got DashboardStatus
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Analysis == nil || got.Analysis.Scalars["T_favre.mean"] != 360 {
		t.Fatalf("analysis lane lost in status.json: %+v", got.Analysis)
	}
}

// TestDashboardWithoutAnalysisOmitsLane: a trace with no analysis records
// (nor cost ones) has no science lane (nor balance lane).
func TestDashboardWithoutAnalysisOmitsLane(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	writeTrace(t, c, obs.KindCritPath)
	status, err := BuildDashboard(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status.Telemetry == nil || status.Analysis != nil || status.Balance != nil {
		t.Fatalf("a trace without analysis or cost records: Telemetry %+v, Analysis %+v, Balance %+v",
			status.Telemetry, status.Analysis, status.Balance)
	}
}

// TestDashboardBalanceLane: the trace's cost records surface as the balance
// lane, named after the final record's most imbalanced kernel.
func TestDashboardBalanceLane(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	writeTrace(t, c, obs.KindCost,
		cost.Record{Step: 2, Kernels: []cost.MeasuredKernel{{Kernel: "FILTER", Imbalance: 3}}},
		cost.Record{Step: 4, Kernels: []cost.MeasuredKernel{
			{Kernel: "REACTION_RATE_BOUNDS", Imbalance: 1.4, RegionS: 0.5},
			{Kernel: "FILTER", Imbalance: 1.1, RegionS: 0.1},
		}})
	status, err := BuildDashboard(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	lane := status.Balance
	if lane == nil || lane.Records != 2 || lane.LastStep != 4 || len(lane.Kernels) != 2 || lane.WorstKernel != "REACTION_RATE_BOUNDS" {
		t.Fatalf("balance lane = %+v", lane)
	}
}

// TestDashboardCritPathLane: the trace's critpath records surface the
// wait-state verdict; without a trace there is no lane.
func TestDashboardCritPathLane(t *testing.T) {
	c, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c)
	recs := []critpath.Record{
		{Step: 2, Ranks: 4, CritRank: 2, CritShare: 0.8, DominantWait: "late_sender",
			LostFrac: 0.30, Verdict: "step 2: ..."},
		{Step: 4, Ranks: 4, CritRank: 2, CritShare: 0.83, DominantWait: "late_sender",
			LostFrac: 0.38, Verdict: "step 4: critical path ran through rank 2",
			Blame: []critpath.RegionBlame{{Path: "STEP/RHS/REACTION_RATE_BOUNDS", Ns: 9e6, Frac: 0.6}}},
	}
	writeTrace(t, c, obs.KindCritPath, recs[0], recs[1])
	status, err := BuildDashboard(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	lane := status.CritPath
	if lane == nil {
		t.Fatal("critpath records in the trace, yet CritPath lane missing")
	}
	if lane.Records != 2 || lane.LastStep != 4 || lane.CritRank != 2 {
		t.Fatalf("lane = %+v", lane)
	}
	if lane.DominantWait != "late_sender" || lane.BlamedRegion != "STEP/RHS/REACTION_RATE_BOUNDS" {
		t.Fatalf("lane verdict fields = %+v", lane)
	}
	if lane.MeanLostFrac < 0.33 || lane.MeanLostFrac > 0.35 {
		t.Fatalf("mean lost frac %v, want 0.34", lane.MeanLostFrac)
	}
	// The lane survives the status.json round trip.
	data, err := os.ReadFile(filepath.Join(c.Dashboard, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got DashboardStatus
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.CritPath == nil || got.CritPath.CritRank != 2 {
		t.Fatalf("critpath lane lost in status.json: %+v", got.CritPath)
	}

	// No trace, no lane.
	c2, err := NewCluster(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedMinMax(t, c2)
	status2, err := BuildDashboard(c2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status2.CritPath != nil {
		t.Fatalf("no trace, yet CritPath = %+v", status2.CritPath)
	}
}
