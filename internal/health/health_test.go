package health

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/obs"
)

// healthySample returns a sample every default band accepts.
func healthySample(step int) Sample {
	return Sample{
		Step: step, Time: F(float64(step) * 1e-8), Dt: 1e-8,
		RhoMin: Extremum{V: 0.5}, RhoMax: Extremum{V: 1.2},
		TMin: Extremum{V: 300}, TMax: Extremum{V: 1800},
		PMin: Extremum{V: 9e4}, PMax: Extremum{V: 1.2e5},
		YMin: Extremum{V: 0}, YMax: Extremum{V: 0.8},
		YClip:       Extremum{V: 0},
		CFLAcoustic: Extremum{V: 0.4}, CFLDiffusive: Extremum{V: 0.1},
		Mass: 1.0, Energy: 2.5e5,
	}
}

func TestBandClassify(t *testing.T) {
	b := Range(150, 3500, 50, 6000)
	cases := []struct {
		v    float64
		want Level
	}{
		{300, OK}, {150, OK}, {3500, OK},
		{100, Warn}, {4000, Warn},
		{40, Fatal}, {7000, Fatal},
		{math.NaN(), OK}, // NaN is the nan check's job
	}
	for _, c := range cases {
		if got := b.Classify(c.v); got != c.want {
			t.Errorf("Classify(%g) = %v, want %v", c.v, got, c.want)
		}
	}
	if (Band{}).Classify(1e30) != OK {
		t.Error("zero band must disable the check")
	}
	if Above(1, 2).Classify(-1e30) != OK {
		t.Error("Above must not grade the low side")
	}
	if Below(1, 0.5).Classify(0.1) != Fatal {
		t.Error("Below must grade the low side")
	}
}

func TestFloatJSONRoundTrip(t *testing.T) {
	in := []F{1.5, F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)), 0}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []F
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len %d != %d", len(out), len(in))
	}
	if !math.IsNaN(float64(out[1])) || !math.IsInf(float64(out[2]), 1) || !math.IsInf(float64(out[3]), -1) {
		t.Fatalf("non-finite values did not round-trip: %v", out)
	}
	if out[0] != 1.5 || out[4] != 0 {
		t.Fatalf("finite values did not round-trip: %v", out)
	}
}

func TestWarnHysteresis(t *testing.T) {
	w := New(Defaults(), 0) // WarnAfter 3, ClearAfter 5
	w.Arm()
	step := 0
	eval := func(tMax float64) Status {
		step++
		s := healthySample(step)
		s.TMax = Extremum{V: F(tMax), Cell: [3]int{1, 2, 3}}
		if v := w.Evaluate(&s, nil); v != nil {
			t.Fatalf("unexpected violation %v", v)
		}
		return w.Status()
	}
	// Two bad steps: below WarnAfter, still ok.
	for i := 0; i < 2; i++ {
		if st := eval(4000); st.Checks["temperature"].Level != "ok" {
			t.Fatalf("tripped after %d bad steps", i+1)
		}
	}
	// Third consecutive bad step trips WARN.
	st := eval(4000)
	if st.Checks["temperature"].Level != "warn" || st.Level != "warn" {
		t.Fatalf("want warn after 3 bad steps, got %+v", st)
	}
	// Four clean steps: not yet cleared.
	for i := 0; i < 4; i++ {
		if st := eval(1800); st.Checks["temperature"].Level != "warn" {
			t.Fatalf("cleared after only %d good steps", i+1)
		}
	}
	// Fifth clean step clears.
	if st := eval(1800); st.Checks["temperature"].Level != "ok" || st.Level != "ok" {
		t.Fatalf("want ok after ClearAfter good steps, got %+v", st)
	}
}

func TestFatalTripAndStickiness(t *testing.T) {
	w := New(Defaults(), 3)
	w.Arm()
	s := healthySample(1)
	if v := w.Evaluate(&s, nil); v != nil {
		t.Fatalf("healthy sample tripped: %v", v)
	}
	s = healthySample(2)
	s.RhoMin = Extremum{V: F(-0.1), Cell: [3]int{4, 5, 6}}
	v := w.Evaluate(&s, nil)
	if v == nil {
		t.Fatal("fatal density excursion did not trip")
	}
	if v.Check != "density" || v.Rank != 3 || v.Step != 2 || v.Cell != [3]int{4, 5, 6} {
		t.Fatalf("violation misattributed: %+v", v)
	}
	if v.Quantity != "rho" || float64(v.Value) != -0.1 {
		t.Fatalf("violation value wrong: %+v", v)
	}
	if v.Error() == "" {
		t.Fatal("empty error text")
	}
	// Fatal is sticky: a healthy follow-up sample stays fatal and keeps
	// reporting the original cause.
	s = healthySample(3)
	v2 := w.Evaluate(&s, nil)
	if v2 == nil || v2.Check != "density" {
		t.Fatalf("fatal state cleared: %+v", v2)
	}
	if st := w.Status(); st.Level != "fatal" || st.Violation == nil {
		t.Fatalf("status lost the violation: %+v", st)
	}
}

func TestNaNAndFaultPrecedence(t *testing.T) {
	w := New(Defaults(), 0)
	w.Arm()
	s := healthySample(1)
	s.NaNCount = 7
	s.NaNCell = [3]int{1, 1, 1}
	s.NaNQuantity = "rhoE"
	fault := &Violation{Check: "temperature_inversion", Rank: 0, Step: 1, Cell: [3]int{2, 2, 2}}
	v := w.Evaluate(&s, fault)
	if v != fault {
		t.Fatalf("kernel fault must take precedence over rule trips, got %+v", v)
	}
	// Without a fault the nan rule itself trips fatal immediately.
	w2 := New(Defaults(), 0)
	w2.Arm()
	s2 := healthySample(1)
	s2.NaNCount = 1
	s2.NaNCell = [3]int{9, 0, 0}
	v2 := w2.Evaluate(&s2, nil)
	if v2 == nil || v2.Check != "nan" || v2.Cell != [3]int{9, 0, 0} {
		t.Fatalf("nan rule did not trip: %+v", v2)
	}
}

func TestDriftReferenceCapture(t *testing.T) {
	cfg := Defaults()
	cfg.MassDrift = Above(0.01, 0.1)
	w := New(cfg, 0)
	w.Arm()
	s := healthySample(1)
	s.Mass = 2.0
	w.Evaluate(&s, nil)
	if float64(s.MassDrift) != 0 {
		t.Fatalf("first step drift = %g, want 0", float64(s.MassDrift))
	}
	s = healthySample(2)
	s.Mass = 2.3 // +15% → fatal
	v := w.Evaluate(&s, nil)
	if v == nil || v.Check != "mass_drift" {
		t.Fatalf("mass drift did not trip: %+v", v)
	}
}

func TestRecorderRingAndDump(t *testing.T) {
	cfg := Defaults()
	cfg.Frames = 4
	w := New(cfg, 0)
	w.Arm()
	w.SetSliceSource(func() Slice {
		return Slice{Name: "T@z=mid", Nx: 2, Ny: 1, Data: []F{300, F(math.NaN())}}
	})
	for i := 1; i <= 6; i++ {
		s := healthySample(i)
		w.Evaluate(&s, nil)
	}
	fr := w.Recorder().Frames()
	if len(fr) != 4 {
		t.Fatalf("ring kept %d frames, want 4", len(fr))
	}
	for i, f := range fr {
		if f.Step != i+3 {
			t.Fatalf("frame %d is step %d, want %d (oldest-first)", i, f.Step, i+3)
		}
	}

	dir := t.TempDir()
	if err := w.Dump(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlight(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0].Step != 3 || got[3].Step != 6 {
		t.Fatalf("flight.jsonl round-trip wrong: %d frames", len(got))
	}
	if got[0].Slice == nil || !math.IsNaN(float64(got[0].Slice.Data[1])) {
		t.Fatalf("slice with NaN did not survive the dump: %+v", got[0].Slice)
	}
	// The bundle is read after a crash: a final line cut mid-frame costs
	// that frame alone, damage followed by valid frames is an error naming
	// the package and the line, in front of the frames before it.
	whole, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(whole, []byte("\n"))
	for _, c := range []struct {
		name    string
		data    []byte
		frames  int
		wantErr string
	}{
		{"truncated final line", whole[:len(whole)-len(lines[3])/2], 3, ""},
		{"damage then valid", bytes.Join([][]byte{lines[0], []byte("{garbage\n"), lines[2]}, nil), 1, ":2:"},
	} {
		path := filepath.Join(dir, "cut.jsonl")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFlight(path)
		if len(got) != c.frames || got[0].Step != 3 {
			t.Fatalf("%s: %d frames, want the first %d", c.name, len(got), c.frames)
		}
		if c.wantErr == "" {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		} else if err == nil || !strings.HasPrefix(err.Error(), "health: ") || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: err %v, want health: …%s…", c.name, err, c.wantErr)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "violation.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("violation.json does not parse: %v", err)
	}
	if st.Level != "ok" || len(st.Checks) == 0 {
		t.Fatalf("status document wrong: %+v", st)
	}
}

func TestHandlerAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Defaults(), 0)
	w.AttachMetrics(reg)
	w.Arm()
	s := healthySample(1)
	w.Evaluate(&s, nil)

	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || st.Level != "ok" {
		t.Fatalf("healthy run: code %d level %q", resp.StatusCode, st.Level)
	}

	s = healthySample(2)
	s.TMax = Extremum{V: 9000}
	if v := w.Evaluate(&s, nil); v == nil {
		t.Fatal("9000 K did not trip")
	}
	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	st = Status{}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || st.Level != "fatal" || st.Violation == nil {
		t.Fatalf("tripped run: code %d status %+v", resp.StatusCode, st)
	}

	snap := reg.Snapshot()
	if g, ok := snap.Gauges["health.status"]; !ok || g != F(Fatal) {
		t.Fatalf("health.status gauge = %v (%v)", g, ok)
	}
	if g, ok := snap.Gauges["health.check.temperature"]; !ok || g != F(Fatal) {
		t.Fatalf("health.check.temperature gauge = %v (%v)", g, ok)
	}
}

func TestObsStatusAndRemote(t *testing.T) {
	w := New(Defaults(), 0)
	w.Arm()
	s := healthySample(1)
	s.TMax = Extremum{V: 9000}
	w.Evaluate(&s, nil)
	hs := w.ObsStatus()
	if hs.Level != "fatal" || len(hs.Tripped) != 1 || hs.Tripped[0] != "temperature" {
		t.Fatalf("ObsStatus = %+v", hs)
	}

	w2 := New(Defaults(), 1)
	w2.Arm()
	rv := Remote(0, 5)
	if rv.Rank != 0 || rv.Step != 5 || rv.Check != "remote" {
		t.Fatalf("Remote = %+v", rv)
	}
	w2.NoteRemote(rv)
	if st := w2.Status(); st.Level != "fatal" || st.Violation != rv {
		t.Fatalf("NoteRemote did not stick: %+v", st)
	}
}

func TestArmedIsCheap(t *testing.T) {
	w := New(Defaults(), 0)
	if w.Armed() {
		t.Fatal("new watchdog must start disarmed")
	}
	w.Arm()
	if !w.Armed() {
		t.Fatal("Arm did not arm")
	}
}
