package cost

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/s3dgo/s3d/internal/obs"
)

const chemKernel = "REACTION_RATE_BOUNDS"

// TestStoreRoundtrip: cost records land in the run trace as payloads of
// their own kind and decode back unchanged.
func TestStoreRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf)
	recs := []Record{
		{Step: 2, Time: 1e-7, Kernels: []MeasuredKernel{{Kernel: chemKernel, Runs: 6, Tiles: 24, RegionS: 0.5, WorkerS: []float64{0.25, 0.25}}}},
		{Step: 4, Time: 2e-7, Kernels: []MeasuredKernel{{Kernel: chemKernel, Runs: 6, Tiles: 24, RegionS: 0.75}, {Kernel: "FILTER", Runs: 2, Tiles: 8}}},
	}
	for _, r := range recs {
		tr.Layer(obs.KindCost, r)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	all, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obs.Payloads[Record](all, obs.KindCost)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, recs)
	}
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
	run := c.BeginRun(chemKernel, 2)
	if run == nil {
		t.Fatal("first run must carry the per-tile sample")
	}
	run.Tile(0, 0, 0.25)
	run.Tile(1, 1, 0.75)
	run.EndRun()
	run = c.BeginRun(chemKernel, 3)
	if run == nil {
		t.Fatal("second run must carry the per-tile sample")
	}
	run.Tile(0, 0, 0.5)
	run.Tile(1, 0, 0.5)
	run.Tile(2, 1, 1.0)
	run.EndRun()
	if rec := c.BeginRun(chemKernel, 4); rec != nil {
		t.Fatal("run past the sample budget must be count-only (nil recorder)")
	}
	regionS := make([]float64, len(Kernels))
	regionS[kernelIndex(chemKernel)] = 7.5
	meas := c.Snapshot(regionS)
	if len(meas) != 1 || meas[0].Kernel != chemKernel {
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
	c.Publish(Record{Step: 2, Time: 1e-7, Kernels: meas})
	if !reflect.DeepEqual(seen, []int{2}) {
		t.Fatalf("subscriber saw %v", seen)
	}
	if rec := c.Latest(); rec == nil || rec.Step != 2 || len(rec.Kernels) != 1 {
		t.Fatalf("latest record wrong: %+v", rec)
	}

	rr = httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/cost", nil))
	// GET /cost serves that same record.
	var live Record
	if err := json.Unmarshal(rr.Body.Bytes(), &live); err != nil {
		t.Fatalf("GET /cost not a record: %v\n%s", err, rr.Body.String())
	}
	if !reflect.DeepEqual(live, *c.Latest()) {
		t.Fatalf("live record %+v differs from the published one %+v", live, *c.Latest())
	}

	// Re-arming clears the measured window for the next due step.
	c.Arm(true)
	if got := c.Snapshot(nil); len(got) != 0 {
		t.Fatalf("arm did not clear the window: %+v", got)
	}
	// A kernel with region time and no plan runs (a share charged out of
	// another kernel's sweep) keeps its row; one with neither has none.
	regionS = make([]float64, len(Kernels))
	regionS[kernelIndex(chemKernel)] = 0.5
	if got := c.Snapshot(regionS); len(got) != 1 || got[0].Kernel != chemKernel || got[0].RegionS != 0.5 || got[0].Runs != 0 {
		t.Fatalf("charged-only row wrong: %+v", got)
	}
}

// TestMeasuredLabelsLayout: every tracked label has the window slot of its
// position in Kernels — the item sweeps included — and nothing else has one.
func TestMeasuredLabelsLayout(t *testing.T) {
	for i, k := range Kernels {
		if kernelIndex(k) != i {
			t.Fatalf("kernel %s at window slot %d, want %d", k, kernelIndex(k), i)
		}
	}
	for _, k := range []string{"GHOST_EXCHANGE", "RK_UPDATE"} {
		if kernelIndex(k) < 0 {
			t.Fatalf("item sweep %s is not tracked", k)
		}
	}
	if kernelIndex("NO_SUCH_KERNEL") != -1 {
		t.Fatal("unknown label has a window slot")
	}
}
