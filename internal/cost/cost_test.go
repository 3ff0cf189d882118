package cost

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/par"
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

// runPlan runs the kernel label once on pl over n items, each busy for
// about d.
func runPlan(pl *par.Plan, label string, n int, d time.Duration) {
	pl.RunItems(label, n, func(int, int) {
		for t0 := time.Now(); time.Since(t0) < d; {
		}
	})
}

// TestCollectorLifecycle covers the window contract: cadence, a window of
// plan runs opened by ResetLedger — every run and unit measured, untracked
// labels without a row — the snapshot's statistics and the live handler.
func TestCollectorLifecycle(t *testing.T) {
	c := NewCollector(2)
	if c.Due(2) {
		t.Fatal("due before Enable")
	}
	c.Enable()
	if c.Due(0) || c.Due(1) || !c.Due(2) || c.Due(3) || !c.Due(4) {
		t.Fatal("cadence wrong for every=2")
	}

	// Before any reduction the endpoint answers {}, not 404.
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/cost", nil))
	if rr.Code != 200 || rr.Body.String() != "{}\n" {
		t.Fatalf("GET /cost before first record = %d %q", rr.Code, rr.Body.String())
	}

	pool := par.NewPool(2)
	defer pool.Close()
	pl := par.NewPlan(pool)
	runPlan(pl, chemKernel, 4, time.Millisecond) // before the window
	pl.ResetLedger()
	runPlan(pl, "COST", 4, 0)
	runPlan(pl, chemKernel, 2, time.Millisecond)
	runPlan(pl, chemKernel, 3, 2*time.Millisecond)
	runPlan(pl, chemKernel, 4, time.Millisecond)
	regionS := make([]float64, len(Kernels))
	regionS[slices.Index(Kernels, chemKernel)] = 7.5
	meas := c.Snapshot(pl, regionS)
	if len(meas) != 1 || meas[0].Kernel != chemKernel {
		t.Fatalf("measured snapshot wrong: %+v", meas)
	}
	m := meas[0]
	// Runs and Tiles count every run of the window; RegionS passes through
	// from the solver's region timers; the unit statistics are the plan's
	// own times, so only their relations are pinnable.
	if m.Runs != 3 || m.Tiles != 9 || m.RegionS != 7.5 {
		t.Fatalf("measured run stats wrong: %+v", m)
	}
	var busy float64
	for _, w := range m.WorkerS {
		busy += w
	}
	if len(m.WorkerS) != 2 || m.MeanTileS < 1e-3 || m.MaxTileS < 2e-3 || m.MaxTileS < m.MeanTileS ||
		math.Abs(busy-9*m.MeanTileS) > 1e-9 || math.Abs(m.Imbalance-m.MaxTileS/m.MeanTileS) > 1e-15 {
		t.Fatalf("measured unit stats wrong: %+v", m)
	}

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

	// Resetting the ledger opens an empty window for the next due step. A
	// kernel with region time and no plan runs (a share charged out of
	// another kernel's sweep) keeps its row; one with neither has none.
	pl.ResetLedger()
	if got := c.Snapshot(pl, make([]float64, len(Kernels))); len(got) != 0 {
		t.Fatalf("reset did not clear the window: %+v", got)
	}
	regionS = make([]float64, len(Kernels))
	regionS[slices.Index(Kernels, chemKernel)] = 0.5
	if got := c.Snapshot(pl, regionS); len(got) != 1 || got[0].Kernel != chemKernel || got[0].RegionS != 0.5 || got[0].Runs != 0 {
		t.Fatalf("charged-only row wrong: %+v", got)
	}
}

// TestMeasuredLabelsLayout: every tracked kernel that ran — the item sweeps
// included — has a row, in Kernels order, and an untracked label none.
func TestMeasuredLabelsLayout(t *testing.T) {
	pl := par.NewPlan(par.NewPool(1))
	runPlan(pl, "NO_SUCH_KERNEL", 1, 0)
	for i := len(Kernels) - 1; i >= 0; i-- {
		runPlan(pl, Kernels[i], 1, 0)
	}
	var got []string
	for _, mk := range NewCollector(1).Snapshot(pl, make([]float64, len(Kernels))) {
		if mk.Runs != 1 || mk.Tiles != 1 {
			t.Fatalf("row %+v, want one run of one unit", mk)
		}
		got = append(got, mk.Kernel)
	}
	if !slices.Equal(got, Kernels) {
		t.Fatalf("rows %v, want %v", got, Kernels)
	}
}
