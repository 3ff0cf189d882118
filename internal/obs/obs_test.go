package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("comm.bytes")
	c.Add(100)
	c.Inc()
	if c.Value() != 101 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("comm.bytes") != c {
		t.Fatal("counter not memoised")
	}
	g := r.Gauge("solver.t")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
	h := r.Histogram("flush.sec", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-55.55) > 1e-12 {
		t.Fatalf("hist sum = %g", got)
	}
	s := r.Snapshot()
	hs := s.Histograms["flush.sec"]
	if !reflect.DeepEqual(hs.Counts, []int64{1, 1, 1, 1}) {
		t.Fatalf("bucket counts = %v", hs.Counts)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", []float64{500}).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["n"] != 8000 {
		t.Fatalf("counter = %d", s.Counters["n"])
	}
	if s.Histograms["h"].Count != 8000 {
		t.Fatalf("hist count = %d", s.Histograms["h"].Count)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", nil).Observe(1)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Fatal("nil registry should snapshot empty")
	}
}

// sampleStep returns a fully populated step event for round-trip tests.
func sampleStep(step int) StepEvent {
	return StepEvent{
		Step: step, Time: F(1.25e-6 * float64(step)), Dt: 1.25e-6, CFL: 0.41,
		WallSec:      0.013,
		StageWallSec: []float64{0.002, 0.002, 0.002, 0.002, 0.002, 0.003},
		TMin:         298.2, TMax: 1712.9, PMin: 100900, PMax: 101800,
		MassDrift: -3.1e-13, HeatRelease: 4.2e3,
		Comm: CommStats{
			BytesSent: 81920, MsgsSent: 12, BytesRecv: 81920, MsgsRecv: 12,
			WaitSec: 0.0004, CollSec: 0.0001, Allreduces: 2, Barriers: 1,
		},
	}
}

// TestTraceSchemaRoundTrip asserts the step-record schema: a record carries
// exactly the documented keys — a lane cannot come or go silently — and
// survives an encode/decode cycle exactly.
func TestTraceSchemaRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	tr.RunStartInfo(NewRunInfo("liftedjet", map[string]string{"nx": "96", "ny": "72"}))
	want := []StepEvent{sampleStep(1), sampleStep(2)}
	for _, ev := range want {
		tr.Step(ev)
	}
	tr.Checkpoint(2, "out/restart-000002.sdf")
	tr.RunDone(RunSummary{Steps: 2, SimTime: 2.5e-6, WallSec: 0.031})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	if recs[0].Kind != KindRunStart || recs[0].Run == nil || recs[0].Run.Case != "liftedjet" {
		t.Fatalf("bad run_start: %+v", recs[0])
	}
	if recs[0].Run.GoVersion == "" || recs[0].Run.Config["nx"] != "96" {
		t.Fatalf("run_start missing build/config info: %+v", recs[0].Run)
	}
	for i, ev := range want {
		got := recs[1+i]
		if got.Kind != KindStep || got.StepData == nil {
			t.Fatalf("record %d not a step: %+v", 1+i, got)
		}
		if !reflect.DeepEqual(*got.StepData, ev) {
			t.Fatalf("step %d round-trip mismatch:\n got %+v\nwant %+v", i, *got.StepData, ev)
		}
	}
	if recs[3].Kind != KindCheckpoint || recs[3].Checkpoint.Step != 2 {
		t.Fatalf("bad checkpoint: %+v", recs[3])
	}
	if recs[4].Kind != KindRunDone || recs[4].Done.Steps != 2 {
		t.Fatalf("bad run_done: %+v", recs[4])
	}

	// The exact key set of a step line (README "Observability"), health
	// being the one optional key and absent on an unwatched run.
	var line struct {
		Step map[string]json.RawMessage `json:"step"`
	}
	if err := json.Unmarshal(bytes.Split(buf.Bytes(), []byte("\n"))[1], &line); err != nil {
		t.Fatal(err)
	}
	var comm map[string]json.RawMessage
	if err := json.Unmarshal(line.Step["comm"], &comm); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  map[string]json.RawMessage
		want []string
	}{
		{"step", line.Step, []string{"cfl", "comm", "dt", "heat_release", "mass_drift", "p_max", "p_min",
			"stage_wall_sec", "step", "t_max", "t_min", "time", "wall_sec"}},
		{"step.comm", comm, []string{"allreduces", "barriers", "bytes_recv", "bytes_sent", "coll_sec",
			"msgs_recv", "msgs_sent", "wait_sec"}},
	} {
		var keys []string
		for k := range c.got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, c.want) {
			t.Errorf("%s keys = %v, want %v", c.what, keys, c.want)
		}
	}

	// A finite physics value is an F, encoded exactly as a float64 is.
	ev := want[0]
	for key, v := range map[string]F{"time": ev.Time, "dt": ev.Dt, "cfl": ev.CFL, "t_max": ev.TMax,
		"p_min": ev.PMin, "mass_drift": ev.MassDrift, "heat_release": ev.HeatRelease} {
		plain, err := json.Marshal(float64(v))
		if err != nil {
			t.Fatal(err)
		}
		if got := string(line.Step[key]); got != string(plain) {
			t.Errorf("%s encodes as %s, a float64 as %s", key, got, plain)
		}
	}
}

// TestReadsPreviousSchemaTrace: a trace written while step records still
// carried a "pario" object (testdata/trace_3step.jsonl, from cmd/s3d -problem
// box -steps 3 -checkpoint 3) loads and summarises; the unknown key is
// skipped.
func TestReadsPreviousSchemaTrace(t *testing.T) {
	raw, err := os.ReadFile("testdata/trace_3step.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"pario":{`)) {
		t.Fatal("testdata/trace_3step.jsonl no longer carries the old lane")
	}
	recs, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(recs)
	if sum.Case != "box" || sum.Steps != 3 || sum.Checkpoints != 4 || !sum.Done || sum.CommBytes == 0 {
		t.Fatalf("old trace summary: %+v", sum)
	}
}

// TestTraceDurableWithoutFlush: the steps a killed run completed are the
// ones that say why it died, so a trace that is never flushed or closed must
// already hold run_start and every emitted step on disk.
func TestTraceDurableWithoutFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunStartInfo(NewRunInfo("killed", nil))
	const steps = 7
	for i := 1; i <= steps; i++ {
		tr.Step(sampleStep(i))
	}
	recs, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+steps || recs[0].Kind != KindRunStart {
		t.Fatalf("an unflushed trace holds %d records on disk, want run_start + %d steps", len(recs), steps)
	}
	if last := recs[steps].StepData; last == nil || last.Step != steps {
		t.Fatalf("last record on disk %+v, want step %d", recs[steps], steps)
	}
}

// TestTraceLayerRecords: a layer record is written byte for byte as
// Record{Kind, Payload: json.Marshal(rec)} encodes, HTML-escaped characters
// included; Summarize skips it and Payloads filters one kind back out. A
// record that does not encode writes nothing and is kept for Flush.
func TestTraceLayerRecords(t *testing.T) {
	type rec struct {
		Step    int     `json:"step"`
		Verdict string  `json:"verdict"`
		Frac    float64 `json:"frac"`
	}
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	r := rec{Step: 2, Verdict: "rank <1> & rank 2", Frac: 0.1}
	tr.Layer(KindCritPath, r)
	tr.Step(sampleStep(2))
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(Record{Kind: KindCritPath, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if line, _, _ := bytes.Cut(buf.Bytes(), []byte("\n")); !bytes.Equal(line, want) {
		t.Fatalf("layer line\n%s\nwant\n%s", line, want)
	}
	recs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s := Summarize(recs); s.Steps != 1 {
		t.Fatalf("summary counts %d steps, want 1", s.Steps)
	}
	if got, err := Payloads[rec](recs, KindCritPath); err != nil || len(got) != 1 || got[0] != r {
		t.Fatalf("critpath payloads %+v, err %v", got, err)
	}
	if got, err := Payloads[rec](recs, KindCost); err != nil || len(got) != 0 {
		t.Fatalf("cost payloads %+v, err %v", got, err)
	}
	n := buf.Len()
	tr.Layer(KindCost, rec{Frac: math.NaN()})
	if tr.Flush() == nil || buf.Len() != n {
		t.Fatalf("an unencodable record: Flush %v, %d bytes written", tr.Flush(), buf.Len()-n)
	}
}

func TestSummarize(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	tr.RunStartInfo(NewRunInfo("bunsen-a", nil))
	for i := 1; i <= 3; i++ {
		ev := sampleStep(i)
		ev.Comm.BytesSent = int64(i) * 1000 // cumulative
		tr.Step(ev)
	}
	tr.Checkpoint(3, "x.sdf")
	tr.RunDone(RunSummary{Steps: 3, SimTime: 3.75e-6, WallSec: 0.05})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(recs)
	if s.Case != "bunsen-a" || s.Steps != 3 || !s.Done || s.Checkpoints != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.CommBytes != 3000 {
		t.Fatalf("comm bytes = %d (want last cumulative value)", s.CommBytes)
	}
	if s.TMax != 1712.9 || s.WallSec != 0.05 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestReadTraceBadLine(t *testing.T) {
	// A garbage tail (run killed mid-write) must not lose the valid prefix
	// or fail; mid-stream garbage with valid records after it must error.
	recs, err := ReadTrace(bytes.NewReader([]byte("{\"kind\":\"step\"}\nnot json\n")))
	if err != nil {
		t.Fatalf("corrupt tail must recover the prefix: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("prefix records = %d, want 1", len(recs))
	}
	_, err = ReadTrace(bytes.NewReader([]byte("{\"kind\":\"step\"}\nnot json\n{\"kind\":\"step\"}\n")))
	if err == nil {
		t.Fatal("mid-stream corruption must surface an error")
	}
}

func TestMonitorServesLiveMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("comm.bytes_sent").Add(12345)
	m, err := StartMonitor("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetRun(NewRunInfo("test-case", map[string]string{"steps": "10"}))
	m.Observe(sampleStep(9))

	get := func(path string) []byte {
		resp, err := http.Get("http://" + m.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["comm.bytes_sent"] != 12345 {
		t.Fatalf("metrics = %+v", snap.Counters)
	}

	var doc struct {
		Run      *RunInfo   `json:"run"`
		LastStep *StepEvent `json:"last_step"`
	}
	if err := json.Unmarshal(get("/status"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Run == nil || doc.Run.Case != "test-case" {
		t.Fatalf("status run = %+v", doc.Run)
	}
	if doc.LastStep == nil || doc.LastStep.Step != 9 || doc.LastStep.Dt != 1.25e-6 {
		t.Fatalf("status last_step = %+v", doc.LastStep)
	}
	if string(get("/healthz")) != "ok\n" {
		t.Fatal("bad healthz")
	}

	// Live update: a later observation must be visible immediately.
	reg.Counter("comm.bytes_sent").Add(1)
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["comm.bytes_sent"] != 12346 {
		t.Fatalf("metrics not live: %+v", snap.Counters)
	}
}
