package cost

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
)

// TestEstimateTwoHotTiles pins the what-if estimator on the canonical
// synthetic fixture: eight tiles, two hot (cost 10) among six cold (cost 1),
// four reference workers. The shape-only contiguous schedule lands a hot
// tile in each of the two middle spans (makespan 11); LPT separates them and
// reaches the optimum (makespan 10, the max single tile).
func TestEstimateTwoHotTiles(t *testing.T) {
	costs := []float64{1, 1, 10, 1, 1, 10, 1, 1}
	w := Estimate(costs, 4)
	if w.Workers != 4 {
		t.Fatalf("workers = %d, want 4", w.Workers)
	}
	if w.Current != 11 {
		t.Fatalf("current makespan = %g, want 11 (spans [2,11,11,2])", w.Current)
	}
	if w.Greedy != 10 {
		t.Fatalf("greedy makespan = %g, want 10 (hot tiles separated)", w.Greedy)
	}
	want := 1 - 10.0/11.0
	if math.Abs(w.Reduction-want) > 1e-15 {
		t.Fatalf("reduction = %g, want %g", w.Reduction, want)
	}
}

func TestEstimateUniformAndEdgeCases(t *testing.T) {
	if w := Estimate([]float64{3, 3, 3, 3}, 4); w.Current != 3 || w.Greedy != 3 || w.Reduction != 0 {
		t.Fatalf("uniform tiles must be a no-op what-if: %+v", w)
	}
	if w := Estimate(nil, 4); w.Current != 0 || w.Greedy != 0 || w.Reduction != 0 {
		t.Fatalf("empty costs: %+v", w)
	}
	// One worker: both schedules are the serial sum.
	if w := Estimate([]float64{1, 2, 3}, 1); w.Current != 6 || w.Greedy != 6 {
		t.Fatalf("one worker: %+v", w)
	}
	// Non-positive worker counts clamp to 1 rather than panicking.
	if w := Estimate([]float64{1, 2}, 0); w.Workers != 1 || w.Current != 3 {
		t.Fatalf("clamped workers: %+v", w)
	}
}

// TestEstimateDeterministicTies: equal-cost tiles must assign in tile order
// (stable sort), so the estimate cannot depend on map/schedule order.
func TestEstimateDeterministicTies(t *testing.T) {
	costs := []float64{2, 2, 2, 2, 2, 2}
	a := Estimate(costs, 4)
	b := Estimate(costs, 4)
	if a != b {
		t.Fatalf("estimate not deterministic: %+v vs %+v", a, b)
	}
}

// TestFoldRoundtrip drives Pack → Combine → Unpack over two simulated ranks
// and pins every derived statistic of the chemistry kernel.
func TestFoldRoundtrip(t *testing.T) {
	const ranks = 2
	if got, want := FoldLen(ranks), 5*len(Kernels)+ranks; got != want {
		t.Fatalf("FoldLen(%d) = %d, want %d", ranks, got, want)
	}
	vec0 := make([]float64, FoldLen(ranks))
	vec1 := make([]float64, FoldLen(ranks))
	PackFold(vec0, map[string][]float64{ChemKernel: {1, 2, 3}}, 6, 0, 4)
	PackFold(vec1, map[string][]float64{ChemKernel: {5, 4}}, 9, 1, 4)
	CombineFold(vec0, vec1)
	rec := Unpack(vec0, 10, 0.5, 4)

	if rec.Step != 10 || rec.Time != 0.5 {
		t.Fatalf("step/time lost: %+v", rec)
	}
	if len(rec.Kernels) != len(Kernels) {
		t.Fatalf("got %d kernel stats, want %d", len(rec.Kernels), len(Kernels))
	}
	var chem *KernelStat
	for i := range rec.Kernels {
		if rec.Kernels[i].Kernel == ChemKernel {
			chem = &rec.Kernels[i]
		}
	}
	if chem == nil {
		t.Fatal("no chemistry kernel stat")
	}
	if chem.Tiles != 5 || chem.ProxyTotal != 15 || chem.MaxTile != 5 {
		t.Fatalf("chem totals wrong: %+v", chem)
	}
	if chem.MeanTile != 3 || math.Abs(chem.Imbalance-5.0/3.0) > 1e-15 {
		t.Fatalf("chem mean/imbalance wrong: %+v", chem)
	}
	// Per-rank what-ifs fold by max: rank 0 [1,2,3] → 3, rank 1 [5,4] → 5.
	if chem.WhatIf.Current != 5 || chem.WhatIf.Greedy != 5 || chem.WhatIf.Reduction != 0 {
		t.Fatalf("chem what-if wrong: %+v", chem.WhatIf)
	}
	if !reflect.DeepEqual(rec.RankTotals, []float64{6, 9}) {
		t.Fatalf("rank totals = %v", rec.RankTotals)
	}
	if math.Abs(rec.RankImbalance-9/7.5) > 1e-15 || rec.Straggler != 1 {
		t.Fatalf("rank imbalance/straggler wrong: %+v", rec)
	}
}

// TestCombineFoldOrderIndependentForSums: the sum/max slots commute, so the
// record cannot depend on which rank folds first (AllreduceOrdered fixes the
// order anyway; this pins the combine itself).
func TestCombineFoldOrderIndependentForSums(t *testing.T) {
	mk := func() ([]float64, []float64) {
		a := make([]float64, FoldLen(2))
		b := make([]float64, FoldLen(2))
		PackFold(a, map[string][]float64{ChemKernel: {1, 7}}, 8, 0, 4)
		PackFold(b, map[string][]float64{ChemKernel: {2, 2, 2}}, 6, 1, 4)
		return a, b
	}
	a1, b1 := mk()
	CombineFold(a1, b1)
	a2, b2 := mk()
	CombineFold(b2, a2)
	if !reflect.DeepEqual(a1, b2) {
		t.Fatalf("combine not commutative:\n%v\n%v", a1, b2)
	}
}

func TestSubsteps(t *testing.T) {
	cases := []struct {
		rate, dt, want float64
	}{
		{0, 1e-8, 1},           // no stiffness → one substep
		{-5, 1e-8, 1},          // negative guarded
		{math.NaN(), 1e-8, 1},  // NaN guarded
		{math.Inf(1), 1e-8, 1}, // Inf guarded
		{1e9, 0, 1},            // degenerate dt guarded
		{2.5e8, 1e-8, 3},       // ceil(2.5)
		{1, 1e-8, 1},           // sub-unity demand floors at 1
		{1e30, 1, 1e6},         // runaway cell clamped
	}
	for _, c := range cases {
		if got := Substeps(c.rate, c.dt); got != c.want {
			t.Fatalf("Substeps(%g, %g) = %g, want %g", c.rate, c.dt, got, c.want)
		}
	}
}

func TestStoreRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cost.jsonl")
	st, err := CreateStore(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		Unpack(packOne(t, []float64{1, 2, 3}, 6), 2, 1e-7, 4),
		Unpack(packOne(t, []float64{9, 1, 1}, 11), 4, 2e-7, 4),
	}
	sink := st.Sink()
	for _, r := range recs {
		sink(r)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCost(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, recs)
	}
}

func packOne(t *testing.T, chem []float64, total float64) []float64 {
	t.Helper()
	vec := make([]float64, FoldLen(1))
	PackFold(vec, map[string][]float64{ChemKernel: chem}, total, 0, 4)
	return vec
}

// TestCollectorLifecycle covers the probe contract: cadence, the armed
// window, tracked-vs-untracked labels, the measured snapshot and the live
// handler.
func TestCollectorLifecycle(t *testing.T) {
	c := NewCollector(2)
	if c.Due(2) {
		t.Fatal("due before Enable")
	}
	c.Enable()
	if c.Due(0) || c.Due(1) || !c.Due(2) || c.Due(3) || !c.Due(4) {
		t.Fatal("cadence wrong for every=2")
	}
	if c.Armed() {
		t.Fatal("armed before Arm(true)")
	}

	// Before any reduction the endpoint answers {}, not 404.
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/cost", nil))
	if rr.Code != 200 || rr.Body.String() != "{}\n" {
		t.Fatalf("GET /cost before first record = %d %q", rr.Code, rr.Body.String())
	}

	c.Arm(true)
	if !c.Armed() {
		t.Fatal("not armed")
	}
	if rec := c.BeginRun("COST", 4); rec != nil {
		t.Fatal("untracked label must not be timed")
	}
	// The first sampleRuns runs of a kernel carry the per-tile sample;
	// runs past the budget are counted but get no recorder at all.
	run := c.BeginRun(ChemKernel, 2)
	if run == nil {
		t.Fatal("first run must carry the per-tile sample")
	}
	run.Tile(0, 0, 0.25)
	run.Tile(1, 1, 0.75)
	run.EndRun()
	run = c.BeginRun(ChemKernel, 3)
	if run == nil {
		t.Fatal("second run must carry the per-tile sample")
	}
	run.Tile(0, 0, 0.5)
	run.Tile(1, 0, 0.5)
	run.Tile(2, 1, 1.0)
	run.EndRun()
	if rec := c.BeginRun(ChemKernel, 4); rec != nil {
		t.Fatal("run past the sample budget must be count-only (nil recorder)")
	}
	regionS := make([]float64, len(Kernels))
	for i, k := range Kernels {
		if k == ChemKernel {
			regionS[i] = 7.5
		}
	}
	meas := c.SnapshotMeasured(regionS)
	if len(meas) != 1 || meas[0].Kernel != ChemKernel {
		t.Fatalf("measured snapshot wrong: %+v", meas)
	}
	m := meas[0]
	// Runs and Tiles count every run; RegionS passes through from the
	// solver's region timers; the tile statistics come from the two sampled
	// runs — five tiles totalling 3.0 s of synthetic time (SampledS is the
	// real recorder span, so only its sign is pinnable).
	if m.Runs != 3 || m.Tiles != 9 || m.RegionS != 7.5 {
		t.Fatalf("measured run stats wrong: %+v", m)
	}
	if m.SampledRuns != 2 || m.SampledTiles != 5 || m.SampledS <= 0 {
		t.Fatalf("measured sample counts wrong: %+v", m)
	}
	if m.MaxTileS != 1.0 || m.MeanTileS != 0.6 {
		t.Fatalf("measured sample stats wrong: %+v", m)
	}
	if math.Abs(m.Imbalance-1.0/0.6) > 1e-15 || !reflect.DeepEqual(m.WorkerS, []float64{1.25, 1.75}) {
		t.Fatalf("measured imbalance/worker split wrong: %+v", m)
	}
	c.Arm(false)

	var seen []int
	c.Subscribe(func(r Record) { seen = append(seen, r.Step) })
	rec := Unpack(packOne(t, []float64{1, 3}, 4), 2, 1e-7, 4)
	c.Publish(rec)
	if !reflect.DeepEqual(seen, []int{2}) {
		t.Fatalf("subscriber saw %v", seen)
	}
	doc := c.Latest()
	if doc == nil || doc.Record == nil || doc.Record.Step != 2 || len(doc.Measured) != 1 {
		t.Fatalf("latest document wrong: %+v", doc)
	}

	rr = httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/cost", nil))
	var live Document
	if err := json.Unmarshal(rr.Body.Bytes(), &live); err != nil {
		t.Fatalf("GET /cost not a document: %v\n%s", err, rr.Body.String())
	}
	if live.Record == nil || live.Record.Step != 2 || len(live.Measured) != 1 {
		t.Fatalf("live document wrong: %+v", live)
	}

	// Re-arming clears the measured window for the next due step.
	c.Arm(true)
	if got := c.SnapshotMeasured(nil); len(got) != 0 {
		t.Fatalf("arm did not clear the window: %+v", got)
	}
}

func TestMeasuredLabelsLayout(t *testing.T) {
	labels := MeasuredLabels()
	if len(labels) != len(Kernels)+len(MeasuredOnly) {
		t.Fatalf("MeasuredLabels length %d", len(labels))
	}
	for i, k := range Kernels {
		if measuredIndex(k) != i {
			t.Fatalf("kernel %s at measured index %d, want %d", k, measuredIndex(k), i)
		}
	}
	for i, k := range MeasuredOnly {
		if measuredIndex(k) != len(Kernels)+i {
			t.Fatalf("measured-only %s at index %d", k, measuredIndex(k))
		}
	}
	if measuredIndex("NO_SUCH_KERNEL") != -1 {
		t.Fatal("unknown label has a measured index")
	}
}
