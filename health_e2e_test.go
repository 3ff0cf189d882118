package s3d

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/obs"
)

// liftedHealthSim builds the small reacting lifted-jet case the health
// end-to-end tests run on.
func liftedHealthSim(t *testing.T) *Simulation {
	t.Helper()
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestHealthEndToEnd is the acceptance path of the run-health watchdog: a
// NaN forced mid-run becomes a structured violation naming rank, step and
// cell; /health and the Prometheus health gauges reflect the trip within
// one step; the post-mortem bundle holds the last steps of diagnostics and
// an emergency checkpoint the restart path can read.
func TestHealthEndToEnd(t *testing.T) {
	bundle := filepath.Join(t.TempDir(), "health")
	sim := liftedHealthSim(t)
	sim.EnableHealth(HealthOptions{BundleDir: bundle})

	var traceBuf bytes.Buffer
	probe, err := sim.StartTelemetry(TelemetryOptions{
		Case:        "health-test",
		Trace:       obs.NewTrace(&traceBuf),
		MonitorAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.4 * sim.StableDt()
	sim.InjectNaN(10)

	err = probe.TryAdvance(12, dt)
	if err == nil {
		t.Fatal("injected NaN did not abort the run")
	}
	v, ok := err.(*health.Violation)
	if !ok {
		t.Fatalf("TryAdvance returned %T (%v), want *health.Violation", err, err)
	}
	if v.Rank != 0 || v.Step != 10 || v.Cell != [3]int{16, 12, 0} {
		t.Fatalf("violation misattributed: %+v", v)
	}
	if sim.Step() != 10 {
		t.Fatalf("run stopped at step %d, want 10", sim.Step())
	}

	// The monitor reflects the trip immediately: /health serves the fatal
	// status document with 503, the Prometheus text carries the gauge.
	resp, err := http.Get("http://" + probe.MonitorAddr() + "/health")
	if err != nil {
		t.Fatal(err)
	}
	var st health.Status
	if derr := json.NewDecoder(resp.Body).Decode(&st); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || st.Level != "fatal" {
		t.Fatalf("/health = %d level %q", resp.StatusCode, st.Level)
	}
	if st.Violation == nil || st.Violation.Step != 10 {
		t.Fatalf("/health violation = %+v", st.Violation)
	}
	resp, err = http.Get("http://" + probe.MonitorAddr() + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "health_status 2") {
		t.Fatalf("/metrics.prom missing tripped health_status gauge:\n%s", prom)
	}
	if ev := probe.LastStep(); ev.Health == nil || ev.Health.Level != "fatal" {
		t.Fatalf("fatal step's event health = %+v", ev.Health)
	}
	if err := probe.Close("tripped"); err != nil {
		t.Fatal(err)
	}

	// The trace carries the health lane: ok steps, then the fatal step.
	recs, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.Summarize(recs)
	if sum.Health != "fatal" || len(sum.HealthTripped) == 0 {
		t.Fatalf("trace summary health = %q tripped %v", sum.Health, sum.HealthTripped)
	}

	// Post-mortem bundle: at least the last 8 steps of diagnostics, the
	// violation document and a readable emergency checkpoint.
	frames, err := health.ReadFlight(filepath.Join(bundle, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 8 {
		t.Fatalf("flight recorder kept %d frames, want >= 8", len(frames))
	}
	lastFrame := frames[len(frames)-1]
	if lastFrame.Step != 10 || lastFrame.Level != "fatal" || lastFrame.Sample.NaNCount == 0 {
		t.Fatalf("last frame = %+v", lastFrame)
	}
	if frames[0].Level != "ok" {
		t.Fatalf("oldest frame should predate the trip: %+v", frames[0])
	}
	raw, err := os.ReadFile(filepath.Join(bundle, "violation.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dumped health.Status
	if err := json.Unmarshal(raw, &dumped); err != nil {
		t.Fatal(err)
	}
	if dumped.Level != "fatal" || dumped.Violation == nil || dumped.Violation.Step != 10 {
		t.Fatalf("violation.json = %+v", dumped)
	}

	ck, err := os.Open(filepath.Join(bundle, "emergency-000010.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	restored := liftedHealthSim(t)
	// Arm a watchdog so restoring the (NaN-carrying) state records a fault
	// instead of panicking — the same contract as a live run.
	restored.EnableHealth(HealthOptions{})
	if err := restored.LoadCheckpoint(ck); err != nil {
		t.Fatalf("emergency checkpoint not readable by the restart path: %v", err)
	}
	if restored.Step() != 10 {
		t.Fatalf("restored step = %d, want 10", restored.Step())
	}
}

// TestTraceKeepsFatalNaNStep: the step that killed a run is the trace line
// that says why. A NaN planted in the density makes that step's mass drift
// NaN; its record still lands — the value as the string "NaN" — run_done
// follows with the NaN gauge, and Close reports no failed write.
func TestTraceKeepsFatalNaNStep(t *testing.T) {
	sim := inertBoxSim(t)
	sim.EnableHealth(HealthOptions{})
	var buf bytes.Buffer
	probe, err := sim.StartTelemetry(TelemetryOptions{Trace: obs.NewTrace(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.4 * sim.StableDt()
	if err := probe.TryAdvance(2, dt); err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := sim.Dims()
	sim.blk.Q[0].Set(nx/2, ny/2, nz/2, math.NaN())
	err = probe.TryAdvance(3, dt)
	if _, ok := err.(*health.Violation); !ok {
		t.Fatalf("TryAdvance over a NaN density returned %T (%v), want *health.Violation", err, err)
	}
	if err := probe.Close("tripped"); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(recs); n != 5 { // run_start, two clean steps, the fatal step, run_done
		t.Fatalf("trace holds %d records, want 5:\n%s", n, buf.Bytes())
	}
	fatal := recs[3].StepData
	if recs[3].Kind != obs.KindStep || fatal == nil || fatal.Step != 3 || !math.IsNaN(float64(fatal.MassDrift)) {
		t.Fatalf("fatal step record = %+v, want step 3 with a NaN mass drift", recs[3])
	}
	if fatal.Health == nil || fatal.Health.Level != "fatal" {
		t.Fatalf("fatal step's health = %+v", fatal.Health)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"mass_drift":"NaN"`)) {
		t.Fatal(`the fatal step's mass drift is not encoded as "NaN"`)
	}
	done := recs[4].Done
	if recs[4].Kind != obs.KindRunDone || done == nil || !math.IsNaN(float64(done.Metrics.Gauges["solver.mass_drift"])) {
		t.Fatalf("last record = %+v, want run_done carrying the NaN mass drift", recs[4])
	}
}

// TestMonitorEndpointsWithoutHealth pins the failure-mode behaviour of the
// monitor: with no watchdog installed and profiling off, /health and
// /profile/ are clean 404s (not 500s or hangs) and the Prometheus text has
// no stale health gauges.
func TestMonitorEndpointsWithoutHealth(t *testing.T) {
	sim := liftedHealthSim(t)
	probe, err := sim.StartTelemetry(TelemetryOptions{Case: "plain", MonitorAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close("")
	probe.Advance(2, 0.4*sim.StableDt())

	for _, path := range []string{"/health", "/profile/", "/profile/trace.json"} {
		resp, err := http.Get("http://" + probe.MonitorAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + probe.MonitorAddr() + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.Contains(string(prom), "health_status") {
		t.Fatalf("/metrics.prom = %d, must not export health gauges without a watchdog:\n%s",
			resp.StatusCode, prom)
	}
	if ev := probe.LastStep(); ev.Health != nil {
		t.Fatalf("step events must omit health when no watchdog: %+v", ev.Health)
	}
}

// TestPeriodicBoxMassDriftIsRoundoff: a periodic box conserves mass to
// roundoff, and so does the watchdog's volume integral of it — every point
// of a periodic line owns a full quadrature width, end points included — so
// the tight drift band health.Config recommends for periodic boxes stays
// silent over 40 steps of an acoustic pulse in a shear flow.
func TestPeriodicBoxMassDriftIsRoundoff(t *testing.T) {
	mech := HydrogenAir()
	sim, err := New(Config{
		Mechanism:    mech,
		Grid:         GridSpec{Nx: 24, Ny: 16, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01},
		Pressure:     101325,
		ChemistryOff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	yAir := make([]float64, mech.NumSpecies())
	yAir[mech.SpeciesIndex("O2")] = 0.233
	yAir[mech.SpeciesIndex("N2")] = 0.767
	sim.SetInitial(func(x, y, z float64, s *State) {
		s.U = 20 * math.Sin(2*math.Pi*y/0.01)
		s.T = 300
		copy(s.Y, yAir)
	}, func(x, y, z float64) float64 {
		r2 := (x-0.005)*(x-0.005) + (y-0.005)*(y-0.005)
		return 101325 * (1 + 0.02*math.Exp(-r2/(0.001*0.001)))
	})
	cfg := HealthDefaults()
	cfg.MassDrift = health.Above(1e-10, 1e-9)
	w := sim.EnableHealth(HealthOptions{Config: &cfg})
	dt := 0.5 * sim.StableDt()
	worst := 0.0
	for step := 1; step <= 40; step++ {
		if err := sim.TryAdvance(1, dt); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		worst = max(worst, math.Abs(float64(w.Status().Checks["mass_drift"].Value)))
	}
	if worst > 1e-12 {
		t.Fatalf("watchdog mass drift reached %g on a periodic box, want roundoff", worst)
	}
}

// jetHealthRun advances the 2×1×1 lifted jet (48×32, seed 3, ignition
// kernel) steps steps with the watchdog armed on both ranks under temp as
// the temperature band and rank 0 tracing. Only rank 1's block holds the
// kernel, so a band between the ranks' own maxima (1151 K and 2235 K)
// trips on rank 1's cells alone. It returns each rank's TryAdvance error and
// /health document, and rank 0's step records.
func jetHealthRun(t *testing.T, temp health.Band, steps int) (errs [2]error, docs [2][]byte, events []*obs.StepEvent) {
	t.Helper()
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 48, Ny: 32, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runCase(t, p, [3]int{2, 1, 1}, func(sim *Simulation, rank, _ int) {
		cfg := HealthDefaults()
		cfg.Temperature = temp
		w := sim.EnableHealth(HealthOptions{Config: &cfg})
		dt := 0.4 * sim.StableDt()
		if rank == 0 {
			probe, err := sim.StartTelemetry(TelemetryOptions{Trace: obs.NewTrace(&buf)})
			if err != nil {
				panic(err)
			}
			errs[0] = probe.TryAdvance(steps, dt)
			if err := probe.Close(""); err != nil {
				panic(err)
			}
		} else {
			errs[rank] = sim.TryAdvance(steps, dt)
		}
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
		docs[rank] = rec.Body.Bytes()
	})
	recs, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == obs.KindStep {
			events = append(events, r.StepData)
		}
	}
	return errs, docs, events
}

// TestDecomposedRunOneVerdict: every rank grades the run's folded sample, so
// a band only rank 1's cells cross is seen by rank 0 too. Under a WARN band
// rank 0's step records read warn with temperature tripped from the third
// step on and both ranks serve the same /health document; under a FATAL
// band both ranks return the identical temperature violation naming rank 1
// and its cell, and rank 0's last step record lists temperature tripped.
func TestDecomposedRunOneVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank reacting case")
	}
	t.Run("warn", func(t *testing.T) {
		errs, docs, events := jetHealthRun(t, health.Above(1693, 6000), 5)
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("a WARN band aborted the run: %v / %v", errs[0], errs[1])
		}
		if len(events) != 5 {
			t.Fatalf("rank 0 traced %d steps, want 5", len(events))
		}
		for _, ev := range events[2:] { // warnAfter 3
			if h := ev.Health; h == nil || h.Level != "warn" || len(h.Tripped) != 1 || h.Tripped[0] != "temperature" {
				t.Fatalf("rank 0 step %d health = %+v, want warn with temperature tripped", ev.Step, h)
			}
		}
		if !bytes.Equal(docs[0], docs[1]) || !bytes.Contains(docs[0], []byte(`"level": "warn"`)) {
			t.Fatalf("the ranks serve different /health documents:\n%s\n%s", docs[0], docs[1])
		}
	})
	t.Run("fatal", func(t *testing.T) {
		errs, docs, events := jetHealthRun(t, health.Above(1693, 1693), 3)
		var v [2]*health.Violation
		for rank, err := range errs {
			var ok bool
			if v[rank], ok = err.(*health.Violation); !ok {
				t.Fatalf("rank %d returned %T (%v), want *health.Violation", rank, err, err)
			}
		}
		if *v[0] != *v[1] {
			t.Fatalf("the ranks return different violations:\n%v\n%v", v[0], v[1])
		}
		if v[0].Check != "temperature" || v[0].Rank != 1 || v[0].Step != 1 || v[0].Cell[0] < 24 || !(v[0].Value > 1693) {
			t.Fatalf("violation = %+v, want temperature on rank 1 (x >= 24) at step 1", v[0])
		}
		last := events[len(events)-1]
		if h := last.Health; h == nil || h.Level != "fatal" || len(h.Tripped) != 1 || h.Tripped[0] != "temperature" {
			t.Fatalf("rank 0's last step record health = %+v, want fatal with temperature tripped", h)
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Fatalf("the ranks serve different /health documents:\n%s\n%s", docs[0], docs[1])
		}
	})
}

// TestOneFoldPerStep: an armed watchdog and an analysis due every step share
// one collective, the end-of-step fold — serial and decomposed alike.
func TestOneFoldPerStep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank reacting case")
	}
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3
	for _, dims := range [][3]int{{}, {2, 1, 1}} {
		runCase(t, p, dims, func(sim *Simulation, rank, _ int) {
			sim.EnableHealth(HealthOptions{})
			if _, err := sim.EnableAnalysis(p.StandardAnalysis()); err != nil {
				panic(err)
			}
			dt := 0.4 * sim.StableDt()
			before := sim.blk.CommStats().Allreduces
			if err := sim.TryAdvance(steps, dt); err != nil {
				panic(err)
			}
			if got := sim.blk.CommStats().Allreduces - before; got != steps {
				t.Errorf("dims %v rank %d: %d collectives over %d armed, analysed steps, want one per step",
					dims, rank, got, steps)
			}
		})
	}
}
