package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are that function's values.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 2, 7})
	if q1 != 2 || q3 != 10 {
		t.Errorf("quartiles(10,2,7) = %v, %v, want 2, 10", q1, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spreadShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The guide's rule: a percentile is reported only when at least ten samples
// lie beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if _, ok := resolvedPercentile(ramp(16), 75); ok {
		t.Error("16 samples: p75 has four samples beyond it, not resolved")
	}
	// 40 samples: p75 is rank 30, ten beyond; p90 is rank 36, four beyond.
	if v, ok := resolvedPercentile(ramp(40), 75); !ok || v != 30 {
		t.Errorf("40 samples: p75 = %v (%v), want 30", v, ok)
	}
	if _, ok := resolvedPercentile(ramp(40), 90); ok {
		t.Error("40 samples: p90 has four samples beyond it, not resolved")
	}
	// 100 samples: p90 is rank 90, exactly ten beyond; 99 samples: nine.
	if v, ok := resolvedPercentile(ramp(100), 90); !ok || v != 90 {
		t.Errorf("100 samples: p90 = %v (%v), want 90", v, ok)
	}
	if _, ok := resolvedPercentile(ramp(99), 90); ok {
		t.Error("99 samples: p90 is rank 90 with nine beyond, not resolved")
	}
}

func TestABBARatio(t *testing.T) {
	abba := []bool{false, true, true, false}
	labels := append(append([]bool{}, abba...), abba...)
	// Round 1: A=1+1, B=1.1+1.1; round 2 under a host twice as slow. The
	// quad straddling the rounds (B A A B = 1.1 1 2 2.2) gives 3.3/3 = 1.1.
	r, n := abbaRatio([]float64{1, 1.1, 1.1, 1, 2, 2.2, 2.2, 2}, labels)
	if n != 3 || math.Abs(r-1.1) > 1e-12 {
		t.Errorf("abbaRatio = %v over %d quads, want 1.1 over 3", r, n)
	}
	// Linear drift inside a quad cancels: costs 1,2,3,4 with equal sides.
	if r, _ := abbaRatio([]float64{1, 2, 3, 4}, abba); r != 1 {
		t.Errorf("linear drift: ratio %v, want 1", r)
	}
	if r, n := abbaRatio([]float64{1, 2, 3}, abba[:3]); r != 0 || n != 0 {
		t.Errorf("no whole quad: got %v, %d", r, n)
	}
	// Windows labelled A A B B form no quad.
	if _, n := abbaRatio([]float64{1, 1, 1, 1}, []bool{false, false, true, true}); n != 0 {
		t.Errorf("AABB: %d quads, want 0", n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "step", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "step", Start: 30, End: 60},  // overlaps span 2 (two ranks)
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Name: "inner", Start: 15, End: 20},
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	// run: 100 − |[10,60] ∪ [90,100]| = 100 − 60 = 40.
	if st := got["run"]; st.Self != 40 || st.Total != 100 || st.Calls != 1 {
		t.Errorf("run: %+v, want self 40 total 100 calls 1", st)
	}
	// step: (30 − 5) + 30 = 55 over two calls.
	if st := got["step"]; st.Self != 55 || st.Total != 60 || st.Calls != 2 {
		t.Errorf("step: %+v, want self 55 total 60 calls 2", st)
	}
	if st := got["inner"]; st.Self != 5 {
		t.Errorf("inner: %+v, want self 5", st)
	}
}

func TestRecorderNilIsSilent(t *testing.T) {
	var r *recorder
	ran := false
	r.do(r.begin(0, "x"), "y", func() { ran = true })
	r.end(1)
	if !ran {
		t.Error("a nil recorder must still run the function")
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name meets the benchmark contract: it
// starts with a letter or digit and holds at most 64 letters, digits, '_',
// '.' and '-'.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

// checkMetricNames returns an error naming the first invalid or repeated
// metric name.
func checkMetricNames(names []string) error {
	seen := map[string]bool{}
	for _, n := range names {
		if !validMetricName(n) {
			return fmt.Errorf("invalid metric name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	return nil
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"us_per_gp_step", "solver.region.MPI_WAIT_frac", "comm.pingpong_us.8B", "a-b", "9lives"} {
		if !validMetricName(ok) {
			t.Errorf("%q should be valid", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "µs", strings.Repeat("x", 65)} {
		if validMetricName(bad) {
			t.Errorf("%q should be invalid", bad)
		}
	}
	if err := checkMetricNames([]string{"a", "b", "a"}); err == nil {
		t.Error("a repeated name must be refused")
	}
}

// BENCHMARK.json is the contract the driver reads; the code must emit
// exactly the metrics and workloads it lists.
func TestManifestMatchesCode(t *testing.T) {
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, code %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if e.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, e.metricDef, endToEnd[i])
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		names = append(names, e.Name)
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, code %d", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		if e != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, e, perLayer[i])
		}
		names = append(names, e.Name)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workloads[%d] = %+v, code has %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
		names = append(names, w.Name)
	}
	if err := checkMetricNames(names); err != nil {
		t.Error(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d differs from the -seconds default %d the golden file was made at", m.RunSeconds, defaultSeconds)
	}
}

// A pinned run without a golden entry fails; this finds the missing entry
// without making the run: every workload's key at the default seed and the
// contract's run length, untraced and traced, is in golden.json.
func TestGoldenCoversPinnedRuns(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rc := &runCtx{w: w, seed: defaultSeed, seconds: defaultSeconds, trace: trace}
			if !rc.pinned() {
				t.Fatalf("%s: the default run is not pinned", w.name)
			}
			if key := rc.goldenKey(rc.finalSteps()); golden[key] == (summary{}) {
				t.Errorf("golden.json has no entry %s", key)
			}
		}
	}
}

// The solver-hook probes run on a block the benchmark builds itself, through
// its own copy of the root package's unexported Config mapping. The copy is
// right while that block and the workload's simulation, started from the
// same problem, agree on the stable step before and after a window: the
// second comparison depends on every setting that steers a step.
func TestProbeBlockMatchesWorkload(t *testing.T) {
	for _, w := range workloads {
		p, err := w.problem(7, w.smoke)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := p.NewSimulation()
		if err != nil {
			t.Fatal(err)
		}
		mech, err := chemMechanism(w.mech)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := newBlock(p, mech, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Every refresh of the primitives re-seeds the temperature iteration
		// and moves last bits, so the block mirrors the root API's calls.
		blkStableDt := func() float64 { blk.RefreshPrimitives(); return blk.AcousticDt() }
		dt, blkDt := sim.StableDt(), blkStableDt()
		if dt != blkDt {
			t.Errorf("%s: stable step of the simulation %v, of the probe block %v", w.name, dt, blkDt)
		}
		sim.Advance(window, dtFactor*dt)
		blk.Advance(window, dtFactor*dt)
		blk.RefreshPrimitives()
		if dt, blkDt = sim.StableDt(), blkStableDt(); dt != blkDt {
			t.Errorf("%s: after a window, stable step of the simulation %v, of the probe block %v", w.name, dt, blkDt)
		}
	}
}

// TestSmoke runs every workload in -smoke mode, untraced and traced, in
// this process: the benchmark keeps compiling and running, and every named
// metric is emitted, without lengthening the test run noticeably.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			o := options{workload: w.name, seed: 7, seconds: 12, trace: trace, smoke: true,
				manifest: filepath.Join("..", "BENCHMARK.json"), workdir: work}
			if err := runChild(o, &out); err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w.name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil || len(raw) != 4 {
				t.Fatalf("%s trace %d: last line is not a four-key object: %v", w.name, trace, err)
			}
			var res childResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s missing or unit %q", w.name, trace, d.Name, m.Unit)
				}
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v must be positive", w.name, d.Name, m.Value)
				}
			}
		}
	}
}
