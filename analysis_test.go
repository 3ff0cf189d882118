package s3d

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/obs"
)

// analysisSpecForBox exercises every operator family over the inert-box
// configuration: moments (plain + Favre), a histogram, a conditional mean
// against the derived mixture fraction, and a reaction-zone fraction.
func analysisSpecForBox(mech *Mechanism) AnalysisSpec {
	yFuel := make([]float64, mech.NumSpecies())
	yFuel[mech.SpeciesIndex("H2")] = 1
	yOx := make([]float64, mech.NumSpecies())
	yOx[mech.SpeciesIndex("O2")] = 0.233
	yOx[mech.SpeciesIndex("N2")] = 0.767
	return AnalysisSpec{
		Every:           2,
		Moments:         []MomentSpec{{Field: "T", Favre: true}, {Field: "rho"}},
		Histograms:      []HistogramSpec{{Bins: 16, Lo: 250, Hi: 600}},
		MixtureFraction: &StreamsSpec{YFuel: yFuel, YOx: yOx},
		Conditionals:    []ConditionalSpec{{Of: "T", On: "Z", Bins: 8}},
		ReactionZone:    &ReactionZoneSpec{Threshold: 400},
	}
}

// analysisBox is the inert 16×8 box the analysis layout tests run.
func analysisBox(mech *Mechanism) (Config, func(x, y, z float64, s *State)) {
	yAir := make([]float64, mech.NumSpecies())
	yAir[mech.SpeciesIndex("O2")] = 0.233
	yAir[mech.SpeciesIndex("N2")] = 0.767
	cfg := Config{
		Mechanism:    mech,
		Grid:         GridSpec{Nx: 16, Ny: 8, Nz: 1, Lx: 0.01, Ly: 0.005, Lz: 0.01},
		Pressure:     101325,
		ChemistryOff: true,
	}
	return cfg, func(x, y, z float64, s *State) {
		s.U = 3 * math.Sin(2*math.Pi*x/0.01)
		s.T = 300 + 250*x/0.01
		copy(s.Y, yAir)
	}
}

// traceAnalysis advances sim four steps with the trace at path attached,
// as rank 0 of a run does.
func traceAnalysis(sim *Simulation, path string) {
	tr, err := obs.CreateTrace(path)
	if err != nil {
		panic(err)
	}
	probe, err := sim.StartTelemetry(TelemetryOptions{Trace: tr})
	if err != nil {
		panic(err)
	}
	probe.Advance(4, 1e-8)
	if err := errors.Join(probe.Close("completed"), tr.Close()); err != nil {
		panic(err)
	}
}

// runAnalysisDecomposed runs a 2x1x1 decomposed inert box with the analysis
// pipeline enabled on every rank and the trace attached on rank 0, then
// returns the path of the produced trace.
func runAnalysisDecomposed(t *testing.T, workers int) string {
	t.Helper()
	SetWorkers(workers)
	defer SetWorkers(0) // restore the NumCPU default for other tests
	mech := HydrogenAir()
	cfg, initial := analysisBox(mech)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	spec := analysisSpecForBox(mech)
	err := RunDecomposed(cfg, [3]int{2, 1, 1}, func(r *RankSim) {
		r.SetInitial(initial, nil)
		// Every rank enables the identical spec: the reduction is collective.
		if _, err := r.EnableAnalysis(spec); err != nil {
			panic(err)
		}
		if r.Rank == 0 {
			traceAnalysis(r.Simulation, path)
		} else {
			r.Advance(4, 1e-8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// layerPayloads returns the payloads of a trace's records of one kind, one
// per line: the bytes a store of the layer's own would hold.
func layerPayloads(t *testing.T, recs []obs.Record, kind string) []byte {
	t.Helper()
	var out []byte
	for _, r := range recs {
		if r.Kind == kind {
			out = append(append(out, r.Payload...), '\n')
		}
	}
	return out
}

// TestAnalysisBitwiseDeterministicAcrossWorkers pins the determinism
// contract: the tile-fused accumulators merge in tile order and the
// cross-rank fold is ascending rank order, so the analysis stream must be
// byte-identical no matter how many workers execute the tiles.
func TestAnalysisBitwiseDeterministicAcrossWorkers(t *testing.T) {
	p1 := runAnalysisDecomposed(t, 1)
	p4 := runAnalysisDecomposed(t, 4)
	b1 := layerPayloads(t, readTraceFile(t, p1), obs.KindAnalysis)
	b4 := layerPayloads(t, readTraceFile(t, p4), obs.KindAnalysis)
	if len(b1) == 0 {
		t.Fatal("the trace holds no analysis record: pipeline never fired")
	}
	if !bytes.Equal(b1, b4) {
		t.Fatalf("analysis records differ between 1 and 4 workers:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", b1, b4)
	}

	recs, err := ReadAnalysis(p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 { // Every: 2 over 4 steps → steps 2 and 4
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for i, want := range []int{2, 4} {
		if recs[i].Step != want {
			t.Fatalf("record %d at step %d, want %d", i, recs[i].Step, want)
		}
	}
	byName := map[string]AnalysisProduct{}
	for _, pr := range recs[0].Products {
		byName[pr.Name] = pr
	}
	tm, ok := byName["T_favre"]
	if !ok {
		t.Fatalf("no Favre temperature moment in %v", recs[0].Products)
	}
	if m := tm.Scalars["mean"]; m < 300 || m > 550 {
		t.Fatalf("Favre mean T = %g, want inside the initial ramp [300, 550]", m)
	}
	if tm.Scalars["max"] <= tm.Scalars["min"] {
		t.Fatalf("degenerate extrema: %+v", tm.Scalars)
	}
	hist, ok := byName["T"]
	if !ok || hist.Op != "hist" {
		// The plain-moment product is named "rho"; the histogram owns "T".
		t.Fatalf("no temperature histogram: %+v", byName)
	}
	var sum float64
	for _, p := range hist.Bins {
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("histogram not normalised: %g", sum)
	}
	if cond, ok := byName["T|Z"]; !ok || len(cond.Bins) != 8 {
		t.Fatalf("conditional mean missing or mis-sized: %+v", cond)
	}
	if rz, ok := byName["reaction_zone"]; !ok || rz.Scalars["fraction"] < 0 || rz.Scalars["fraction"] > 1 {
		t.Fatalf("reaction-zone fraction out of range: %+v", rz)
	}
}

// TestAnalysisSerialMatchesDecomposed checks the reduction is independent of
// the rank layout too: a serial run and a 2-rank run over the same state
// must publish the same products. Every block integrates with the widths of
// the global line, so a rank interface carries the serial weight and the
// two differ only in the order the fold adds the same terms — at roundoff.
func TestAnalysisSerialMatchesDecomposed(t *testing.T) {
	decomposed := runAnalysisDecomposed(t, 2)

	mech := HydrogenAir()
	cfg, initial := analysisBox(mech)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetInitial(initial, nil)
	if _, err := sim.EnableAnalysis(analysisSpecForBox(mech)); err != nil {
		t.Fatal(err)
	}
	serial := filepath.Join(t.TempDir(), "trace.jsonl")
	traceAnalysis(sim, serial)

	sRecs, err := ReadAnalysis(serial)
	if err != nil {
		t.Fatal(err)
	}
	dRecs, err := ReadAnalysis(decomposed)
	if err != nil {
		t.Fatal(err)
	}
	if len(sRecs) != len(dRecs) {
		t.Fatalf("record counts differ: serial %d vs decomposed %d", len(sRecs), len(dRecs))
	}
	near := func(v, dv float64) bool {
		return math.Abs(v-dv) <= 1e-12*math.Max(math.Abs(v), math.Abs(dv))
	}
	for i := range sRecs {
		sp, dp := sRecs[i].Products, dRecs[i].Products
		if len(sp) != len(dp) {
			t.Fatalf("record %d product counts differ: %d vs %d", i, len(sp), len(dp))
		}
		for j := range sp {
			if sp[j].Name != dp[j].Name || len(sp[j].Bins) != len(dp[j].Bins) {
				t.Fatalf("record %d product %d: %q with %d bins vs %q with %d", i, j,
					sp[j].Name, len(sp[j].Bins), dp[j].Name, len(dp[j].Bins))
			}
			for k, v := range sp[j].Scalars {
				if dv := dp[j].Scalars[k]; !near(v, dv) {
					t.Fatalf("record %d %s.%s: serial %g vs decomposed %g", i, sp[j].Name, k, v, dv)
				}
			}
			for k, v := range sp[j].Bins {
				if dv := dp[j].Bins[k]; !near(v, dv) {
					t.Fatalf("record %d %s bin %d: serial %g vs decomposed %g", i, sp[j].Name, k, v, dv)
				}
			}
		}
	}
}

// TestAnalysisLiveEndpoints checks the monitor serves the latest record at
// GET /analysis and exports analysis_* gauges in Prometheus format.
func TestAnalysisLiveEndpoints(t *testing.T) {
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	spec := p.StandardAnalysis()
	if !spec.HeatRelease || spec.MixtureFraction == nil || spec.Progress == nil {
		t.Fatalf("lifted jet should get the full standard spec, got %+v", spec)
	}
	if _, err := sim.EnableAnalysis(spec); err != nil {
		t.Fatal(err)
	}
	var rec AnalysisRecord
	if err := sim.Subscribe(func(r AnalysisRecord) { rec = r }); err != nil {
		t.Fatal(err)
	}
	probe, err := sim.StartTelemetry(TelemetryOptions{Case: "analysis-live", MonitorAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close("")

	// Before any step the endpoint answers with an empty object, not a 404.
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + probe.MonitorAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := get("/analysis"); code != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("GET /analysis before first record = %d %q, want 200 {}", code, body)
	}

	probe.Advance(2, 0.4*sim.StableDt())
	if rec.Step != 2 {
		t.Fatalf("subscriber saw step %d, want 2", rec.Step)
	}

	code, body := get("/analysis")
	if code != 200 {
		t.Fatalf("GET /analysis = %d", code)
	}
	var live AnalysisRecord
	if err := json.Unmarshal([]byte(body), &live); err != nil {
		t.Fatalf("GET /analysis is not a record: %v\n%s", err, body)
	}
	if live.Step != 2 || len(live.Products) == 0 {
		t.Fatalf("live record wrong: %+v", live)
	}
	found := false
	for _, pr := range live.Products {
		if pr.Name == "heat_release" {
			found = true
			if pr.Scalars["watts"] == 0 {
				t.Fatal("heat release is zero with a burning ignition kernel")
			}
		}
	}
	if !found {
		t.Fatalf("no heat_release product in %+v", live.Products)
	}

	if code, prom := get("/metrics.prom"); code != 200 || !strings.Contains(prom, "analysis_") {
		t.Fatalf("GET /metrics.prom = %d, missing analysis_* gauges:\n%s", code, prom)
	}
}

// TestEnableAnalysisErrors pins the failure modes of the root API.
func TestEnableAnalysisErrors(t *testing.T) {
	sim := inertBoxSim(t)
	if _, err := sim.EnableAnalysis(AnalysisSpec{Moments: []MomentSpec{{Field: "bogus"}}}); err == nil {
		t.Fatal("unknown field must fail EnableAnalysis")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error does not name the field: %v", err)
	}
	if _, err := sim.EnableAnalysis(AnalysisSpec{FlameSurface: true}); err == nil {
		t.Fatal("FlameSurface without Progress must fail")
	}
	if _, err := sim.EnableAnalysis(AnalysisSpec{
		Conditionals: []ConditionalSpec{{Of: "T", On: "Z", Bins: 4}},
	}); err == nil {
		t.Fatal("conditioning on Z without MixtureFraction streams must fail")
	}
	if _, err := sim.EnableAnalysis(AnalysisSpec{
		Histograms: []HistogramSpec{{Bins: 8, Lo: 5, Hi: 5}},
	}); err == nil {
		t.Fatal("degenerate histogram bounds must fail")
	}

	fresh := inertBoxSim(t)
	if err := fresh.Subscribe(func(AnalysisRecord) {}); err == nil {
		t.Fatal("Subscribe before EnableAnalysis must fail")
	}
}

// TestFlameSurfaceBits pins the StandardAnalysis flame_surface product of a
// lifted jet, 2-D and 3-D, after three steps to the bits recorded when the
// solver still stored dY_O2_d{x,y,z} as fields: the derived sources
// differentiate Y_O2 at each point with the RHS's own operator, at fold time
// the primitives are the final stage's, so the product cannot move.
func TestFlameSurfaceBits(t *testing.T) {
	for _, c := range []struct {
		o              LiftedJetOptions
		integral, mean uint64
	}{
		{LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3}, 0x3f18ddfa99f639ef, 0x40634ca65f4daf34},
		{LiftedJetOptions{Nx: 16, Ny: 12, Nz: 8, IgnitionKernel: true, Seed: 3}, 0x3f1d5e74db56c739, 0x4063f1b4345b5cf6},
	} {
		p, err := LiftedJetProblem(c.o)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := p.NewSimulation()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.EnableAnalysis(p.StandardAnalysis()); err != nil {
			t.Fatal(err)
		}
		var rec AnalysisRecord
		if err := sim.Subscribe(func(r AnalysisRecord) { rec = r }); err != nil {
			t.Fatal(err)
		}
		sim.Advance(3, 0.4*sim.StableDt())
		var found bool
		for _, pr := range rec.Products {
			if pr.Name != "flame_surface" {
				continue
			}
			found = true
			got := [2]uint64{math.Float64bits(pr.Scalars["integral"]), math.Float64bits(pr.Scalars["mean"])}
			if got != [2]uint64{c.integral, c.mean} {
				t.Errorf("%dx%dx%d: flame_surface integral/mean bits %#016x/%#016x, recorded %#016x/%#016x",
					c.o.Nx, c.o.Ny, c.o.Nz, got[0], got[1], c.integral, c.mean)
			}
		}
		if !found || rec.Step != 3 {
			t.Fatalf("%dx%dx%d: no flame_surface product at step 3 in %+v", c.o.Nx, c.o.Ny, c.o.Nz, rec)
		}
	}
}

// TestShortJetAxis: a lifted jet 5–9 points across its outflow faces steps,
// filter included, with every temperature finite — each point of so short a
// line takes the closure of its nearer face (a line of 7–9 points once
// handed the filter stencil offsets past the ghost layers and panicked in a
// pool worker; one of 5–6 read ghost cells nobody filled). Four points are
// rejected up front, naming the axis.
func TestShortJetAxis(t *testing.T) {
	for ny := 4; ny <= 9; ny++ {
		p, err := LiftedJetProblem(LiftedJetOptions{Nx: 24, Ny: ny, Nz: 1})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := p.NewSimulation()
		if ny == 4 {
			if err == nil || !strings.Contains(err.Error(), "axis y has 4 points") {
				t.Fatalf("Ny=4: err = %v, want the axis and its length named", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Ny=%d: %v", ny, err)
		}
		if err := sim.TryAdvance(10, 0.4*sim.StableDt()); err != nil {
			t.Fatalf("Ny=%d: %v", ny, err)
		}
		T, _, err := sim.Field("T")
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range T {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Ny=%d: T[%d] = %g after ten steps", ny, i, v)
			}
		}
	}
}
