package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// --- ReadTrace corruption handling (a run killed mid-write must still
// summarise its valid prefix) ---

func TestReadTraceEmptyInput(t *testing.T) {
	recs, err := ReadTrace(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty input: recs=%d err=%v", len(recs), err)
	}
	recs, err = ReadTrace(strings.NewReader("\n\n   \n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("blank lines: recs=%d err=%v", len(recs), err)
	}
}

func TestReadTraceTruncatedTail(t *testing.T) {
	// A JSON object cut off mid-write, exactly as a killed run leaves it.
	var sb strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&sb, "{\"kind\":\"step\",\"step\":{\"step\":%d}}\n", i)
	}
	sb.WriteString(`{"kind":"step","step":{"st`)
	recs, err := ReadTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("truncated tail: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("recs = %d, want the 5 valid prefix records", len(recs))
	}
	if recs[4].StepData == nil || recs[4].StepData.Step != 4 {
		t.Fatalf("last record = %+v", recs[4])
	}
	// The prefix must still summarise.
	if s := Summarize(recs); s.Steps != 5 {
		t.Fatalf("summary steps = %d", s.Steps)
	}
}

func TestReadTraceAllGarbage(t *testing.T) {
	recs, err := ReadTrace(strings.NewReader("complete nonsense\n<also not json>\n"))
	if err != nil {
		t.Fatalf("all-garbage input must yield an empty valid prefix: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("recs = %d", len(recs))
	}
}

func TestReadTraceMidStreamGarbageNamesLine(t *testing.T) {
	in := "{\"kind\":\"run_start\"}\ngarbage here\n{\"kind\":\"step\"}\n"
	recs, err := ReadTrace(strings.NewReader(in))
	if err == nil {
		t.Fatal("expected an error for mid-stream corruption")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error must name the damaged line: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("valid prefix = %d records, want 1", len(recs))
	}
}

func TestReadTraceOverlongTailLine(t *testing.T) {
	// A tail line beyond the scanner's 16 MB cap acts like a truncated tail.
	in := "{\"kind\":\"run_start\"}\n" + strings.Repeat("x", 17<<20)
	recs, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatalf("over-long tail: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("recs = %d, want 1", len(recs))
	}
}

// --- Prometheus text exposition ---

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("comm.bytes_sent").Add(1024)
	r.Gauge("par.workers").Set(8)
	h := r.Histogram("step.wall_sec", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE comm_bytes_sent counter\ncomm_bytes_sent 1024\n",
		"# TYPE par_workers gauge\npar_workers 8\n",
		"# TYPE step_wall_sec histogram\n",
		`step_wall_sec_bucket{le="0.01"} 1`,
		`step_wall_sec_bucket{le="0.1"} 2`,
		`step_wall_sec_bucket{le="+Inf"} 3`,
		"step_wall_sec_sum 5.055\n",
		"step_wall_sec_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"comm.bytes_sent": "comm_bytes_sent",
		"9lives":          "_lives",
		"a-b c/d":         "a_b_c_d",
		"ok_name:x9":      "ok_name:x9",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// --- Monitor endpoints added in this PR ---

func TestMonitorPrometheusAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("comm.bytes_sent").Add(777)
	reg.Histogram("step.wall_sec", []float64{0.01}).Observe(0.5)
	m, err := StartMonitor("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	get := func(path string) (string, string) {
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
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics.prom")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ctype)
	}
	for _, want := range []string{
		"comm_bytes_sent 777",
		`step_wall_sec_bucket{le="+Inf"} 1`,
		"step_wall_sec_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics.prom missing %q:\n%s", want, body)
		}
	}

	if body, _ := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index looks wrong:\n%.200s", body)
	}
	if body, _ := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Fatal("goroutine profile not served")
	}

	// Handle must mount extra handlers on the live mux.
	m.Handle("/extra", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "mounted")
	}))
	if body, _ := get("/extra"); body != "mounted" {
		t.Fatalf("Handle: got %q", body)
	}
}
