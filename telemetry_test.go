package s3d

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/obs"
)

// TestProbeTraceEndToEnd runs a small lifted-jet case with every telemetry
// sink attached and checks the produced trace.jsonl record by record — the
// acceptance path of the observability layer.
func TestProbeTraceEndToEnd(t *testing.T) {
	p, err := LiftedJetProblem(LiftedJetOptions{
		Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	tr := obs.NewTrace(&traceBuf)
	probe, err := sim.StartTelemetry(TelemetryOptions{
		Case:        "lifted-test",
		Config:      map[string]string{"steps": "4"},
		Trace:       tr,
		MonitorAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.5 * sim.StableDt()
	probe.Advance(4, dt)

	// The monitor serves the same metrics live, mid-run.
	for path, want := range map[string]string{
		"/metrics": `"solver.steps"`,
		"/status":  `"cfl"`,
		"/healthz": "ok",
	} {
		resp, err := http.Get("http://" + probe.MonitorAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s = %d %q, want %q", path, resp.StatusCode, body, want)
		}
	}

	probe.Checkpoint("restart-000004.sdf")
	if err := probe.Close("test complete"); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 { // run_start + 4 steps + checkpoint + run_done
		t.Fatalf("got %d records, want 7", len(recs))
	}
	if recs[0].Kind != obs.KindRunStart || recs[0].Run.Case != "lifted-test" {
		t.Fatalf("bad run_start: %+v", recs[0])
	}
	if recs[0].Run.Config["grid"] != "32x24x1" || recs[0].Run.Config["steps"] != "4" {
		t.Fatalf("config manifest incomplete: %v", recs[0].Run.Config)
	}
	// Config.CFL is unset: the manifest names the number the run applies.
	if got := recs[0].Run.Config["cfl"]; got != "0.8" {
		t.Fatalf("manifest cfl = %q, want the applied default 0.8", got)
	}
	for i := 1; i <= 4; i++ {
		ev := recs[i].StepData
		if recs[i].Kind != obs.KindStep || ev == nil {
			t.Fatalf("record %d is not a step: %+v", i, recs[i])
		}
		if ev.Step != i || float64(ev.Dt) != dt || ev.Time <= 0 {
			t.Fatalf("step bookkeeping wrong: %+v", ev)
		}
		if ev.CFL <= 0 || ev.CFL > 1 {
			t.Fatalf("CFL = %g, want in (0, 1] for dt = half the stable limit", ev.CFL)
		}
		if ev.WallSec <= 0 || len(ev.StageWallSec) != 6 {
			t.Fatalf("wall times missing: wall=%g stages=%v", ev.WallSec, ev.StageWallSec)
		}
		for s, w := range ev.StageWallSec {
			if w <= 0 {
				t.Fatalf("stage %d wall = %g", s, w)
			}
		}
		if !(ev.TMax > ev.TMin) || ev.TMin < 200 || !(ev.PMax >= ev.PMin) || ev.PMin <= 0 {
			t.Fatalf("physics extrema wrong: %+v", ev)
		}
		if ev.HeatRelease == 0 {
			t.Fatal("heat-release integral not accumulated (ignition kernel is burning)")
		}
		if drift := float64(ev.MassDrift); math.IsNaN(drift) || math.Abs(drift) > 0.1 {
			t.Fatalf("mass drift = %g", ev.MassDrift)
		}
		if ev.Comm.BytesSent != 0 {
			t.Fatalf("serial run reported comm traffic: %+v", ev.Comm)
		}
	}
	if recs[5].Kind != obs.KindCheckpoint || recs[5].Checkpoint.Path != "restart-000004.sdf" {
		t.Fatalf("bad checkpoint record: %+v", recs[5])
	}
	done := recs[6].Done
	if recs[6].Kind != obs.KindRunDone || done == nil {
		t.Fatalf("bad run_done: %+v", recs[6])
	}
	// Every solver.*, comm.* and par.* metric this run publishes: the probe
	// sets them from its step records, and StartTelemetry attaches the pool's
	// and the plan's. solver.steps and the step-wall histogram count the step
	// records, one each.
	m := done.Metrics
	for _, name := range []string{"solver.steps", "par.tiles_total", "par.tiles.ASSEMBLE_FLUXES",
		"par.tiles.COMPUTE_PRIMITIVES", "par.tiles.DIVERGENCE", "par.tiles.RK_UPDATE"} {
		if _, ok := m.Counters[name]; !ok {
			t.Errorf("run_done lacks counter %s", name)
		}
	}
	for _, name := range []string{"solver.cfl", "solver.dt", "solver.heat_release_w", "solver.mass_drift",
		"solver.sim_time", "solver.t_max", "solver.t_min", "comm.bytes_sent", "comm.wait_sec",
		"par.tiles_pending", "par.workers", "par.workers_busy"} {
		if _, ok := m.Gauges[name]; !ok {
			t.Errorf("run_done lacks gauge %s", name)
		}
	}
	wall, ok := m.Histograms["solver.step_wall_sec"]
	if done.Steps != 4 || m.Counters["solver.steps"] != 4 || !ok || wall.Count != 4 {
		t.Fatalf("summary wrong: steps=%d solver.steps=%d step_wall_sec=%+v", done.Steps, m.Counters["solver.steps"], wall)
	}
	// The histogram times the span the step records report.
	var recorded float64
	for _, r := range recs[1:5] {
		recorded += r.StepData.WallSec
	}
	if wall.Sum != recorded {
		t.Fatalf("solver.step_wall_sec sums %g s, the step records %g s", wall.Sum, recorded)
	}
	if !strings.Contains(done.PerfReport, "RK_UPDATE") {
		t.Fatalf("perf report missing regions:\n%s", done.PerfReport)
	}
	if done.ExitMessage != "test complete" {
		t.Fatalf("exit message %q", done.ExitMessage)
	}

	sum := obs.Summarize(recs)
	if sum.Steps != 4 || sum.Checkpoints != 1 || !sum.Done {
		t.Fatalf("summary: %+v", sum)
	}
}

// TestOneLoopEmitsStepRecords: a Simulation has one stepping loop, and it
// observes through the attached probe whichever handle entered it — three
// steps through the simulation and three through the probe are six step
// records, and none after Close detaches the probe.
func TestOneLoopEmitsStepRecords(t *testing.T) {
	sim := inertBoxSim(t)
	var buf bytes.Buffer
	probe, err := sim.StartTelemetry(TelemetryOptions{Trace: obs.NewTrace(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	steps := func() int {
		recs, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return obs.Summarize(recs).Steps
	}
	dt := 0.5 * sim.StableDt()
	if err := sim.TryAdvance(3, dt); err != nil {
		t.Fatal(err)
	}
	if n := steps(); n != 3 {
		t.Fatalf("sim.TryAdvance(3) appended %d step records, want 3", n)
	}
	if err := probe.TryAdvance(3, dt); err != nil {
		t.Fatal(err)
	}
	if n := steps(); n != 6 || probe.LastStep().Step != 6 {
		t.Fatalf("probe.TryAdvance(3) brought the trace to %d step records (last %d), want 6", n, probe.LastStep().Step)
	}
	if err := probe.Close(""); err != nil {
		t.Fatal(err)
	}
	sim.Advance(1, dt)
	if n := steps(); n != 6 {
		t.Fatalf("a closed probe still observed: %d step records, want 6", n)
	}
}

// TestProbeDecomposedCommBytes checks that a decomposed run's trace carries
// real communication counters from the halo exchange.
func TestProbeDecomposedCommBytes(t *testing.T) {
	mech := HydrogenAir()
	yAir := make([]float64, mech.NumSpecies())
	yAir[mech.SpeciesIndex("O2")] = 0.233
	yAir[mech.SpeciesIndex("N2")] = 0.767
	cfg := Config{
		Mechanism:    mech,
		Grid:         GridSpec{Nx: 16, Ny: 8, Nz: 1, Lx: 0.01, Ly: 0.005, Lz: 0.01},
		Pressure:     101325,
		ChemistryOff: true,
	}
	var traceBuf bytes.Buffer
	tr := obs.NewTrace(&traceBuf)
	const dt = 1e-8
	err := RunDecomposed(cfg, [3]int{2, 1, 1}, func(r *RankSim) {
		r.SetInitial(func(x, y, z float64, s *State) {
			s.U = 3 * math.Sin(2*math.Pi*x/0.01)
			s.T = 320
			copy(s.Y, yAir)
		}, nil)
		if r.Rank == 0 {
			probe, err := r.StartTelemetry(TelemetryOptions{Case: "decomposed", Trace: tr})
			if err != nil {
				panic(err)
			}
			probe.Advance(3, dt)
			if err := probe.Close(""); err != nil {
				panic(err)
			}
		} else {
			r.Advance(3, dt)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var last *obs.StepEvent
	for _, rec := range recs {
		if rec.Kind == obs.KindStep {
			last = rec.StepData
		}
	}
	if last == nil || last.Step != 3 {
		t.Fatalf("no step records in decomposed trace")
	}
	// Counters are cumulative: the final record carries the run's totals.
	if last.Comm.BytesSent == 0 || last.Comm.MsgsSent == 0 || last.Comm.BytesRecv == 0 {
		t.Fatalf("halo-exchange traffic not counted: %+v", last.Comm)
	}
	if last.Comm.WaitSec < 0 || last.Comm.CollSec < 0 {
		t.Fatalf("negative blocked time: %+v", last.Comm)
	}
	if len(last.StageWallSec) != 6 {
		t.Fatalf("stage walls: %v", last.StageWallSec)
	}
}
