package s3d

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/s3dgo/s3d/internal/cost"
)

// runCost advances a reacting nx×ny×1 NSCBC lifted jet, serially (zero dims)
// or decomposed, with the cost sampler enabled at the given cadence on every
// rank and the store subscribed on rank 0. It returns the cost.jsonl path,
// rank 0's final cost_chem / cost_density maps and every rank's final
// checkpoint bytes concatenated in rank order.
func runCost(t *testing.T, nx, ny int, dims [3]int, every, steps, workers int) (path string, chem, dens []float64, ckpt []byte) {
	t.Helper()
	SetWorkers(workers)
	defer SetWorkers(0) // restore the NumCPU default for other tests
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: nx, Ny: ny, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "cost.jsonl")
	var mu sync.Mutex
	ckpts := map[int][]byte{}
	runCase(t, p, dims, func(sim *Simulation, rank, _ int) {
		// Every rank enables the identical cadence: the reduction is
		// collective.
		if _, err := sim.EnableCostMaps(CostSpec{Every: every}); err != nil {
			panic(err)
		}
		if rank == 0 {
			st, err := NewCostStore(path)
			if err != nil {
				panic(err)
			}
			defer st.Close()
			if err := sim.SubscribeCost(st.Sink()); err != nil {
				panic(err)
			}
		}
		sim.Advance(steps, 0.4*sim.StableDtGlobal())
		var buf bytes.Buffer
		if err := sim.SaveCheckpoint(&buf); err != nil {
			panic(err)
		}
		mu.Lock()
		defer mu.Unlock()
		ckpts[rank] = buf.Bytes()
		if rank == 0 {
			if chem, _, err = sim.Field("cost_chem"); err != nil {
				panic(err)
			}
			if dens, _, err = sim.Field("cost_density"); err != nil {
				panic(err)
			}
		}
	})
	for rank := 0; rank < len(ckpts); rank++ {
		ckpt = append(ckpt, ckpts[rank]...)
	}
	return path, chem, dens, ckpt
}

// costPins are the sha256 of cost.jsonl and of the final checkpoint bytes of
// a reacting 24×16×1 jet, cost sampler at every step, 9 steps — recorded on
// the commit before the dynamic load balancer was deleted: taking the
// weighted partition and cross-rank sharing paths out of the chemistry sweep
// and the cost reduction may not move a record byte, serial or decomposed.
var costPins = map[string][2]string{
	"serial": {"4b6ebe5122ffde82bd3a37c932b384bd6efebad03f7810a7e1894c4c470b9b9c", "94f3de6345314c33a655715b89a962eab4d17d15aebe9c8f1f05371ad4e21f07"},
	"2x2x1":  {"a459d7ac8e6add57816bfa14785738d7a5ec04c6a568f3a7a6762ba5a03c996d", "b2689f38624117448f3c6813c91d3c6c906bdd24b9be8ff851ceac81a0d7cef5"},
}

// TestCostBitwiseDeterministicAcrossWorkers pins the determinism contract:
// the record derives from the chemistry substep proxy (a pure function of
// the cell state) and the shape-only tile decomposition, merged in tile
// order and folded in ascending rank order — so cost.jsonl and the cost
// maps must be byte-identical no matter how many workers execute the tiles.
func TestCostBitwiseDeterministicAcrossWorkers(t *testing.T) {
	for _, layout := range []struct {
		name string
		dims [3]int
	}{{"serial", [3]int{}}, {"2x2x1", [3]int{2, 2, 1}}} {
		for _, workers := range []int{1, 4} {
			path, _, _, ckpt := runCost(t, 24, 16, layout.dims, 1, 9, workers)
			records, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := [2]string{fmt.Sprintf("%x", sha256.Sum256(records)), fmt.Sprintf("%x", sha256.Sum256(ckpt))}
			if want := costPins[layout.name]; got != want {
				t.Errorf("%s, %d workers: cost.jsonl / checkpoint sha256\n got %q\nwant %q", layout.name, workers, got, want)
			}
		}
	}

	p1, chem1, dens1, _ := runCost(t, 32, 24, [3]int{2, 1, 1}, 2, 4, 1)
	p4, chem4, dens4, _ := runCost(t, 32, 24, [3]int{2, 1, 1}, 2, 4, 4)
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := os.ReadFile(p4)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) == 0 {
		t.Fatal("cost store is empty: the sampler never fired")
	}
	if !bytes.Equal(b1, b4) {
		t.Fatalf("cost.jsonl differs between 1 and 4 workers:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", b1, b4)
	}
	if !reflect.DeepEqual(chem1, chem4) {
		t.Fatal("cost_chem map differs between 1 and 4 workers")
	}
	if !reflect.DeepEqual(dens1, dens4) {
		t.Fatal("cost_density map differs between 1 and 4 workers")
	}

	// cost_density is the per-cell total: one unit per uniform kernel plus
	// the chemistry substep demand.
	base := float64(len(cost.Kernels) - 1)
	for i := range dens1 {
		if dens1[i] != base+chem1[i] {
			t.Fatalf("cost_density[%d] = %g, want base %g + chem %g", i, dens1[i], base, chem1[i])
		}
		if chem1[i] < 1 {
			t.Fatalf("cost_chem[%d] = %g < 1: every reacting cell demands at least one substep", i, chem1[i])
		}
	}

	recs, err := ReadCost(p1)
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
	last := recs[1]
	if len(last.RankTotals) != 2 {
		t.Fatalf("rank totals = %v, want 2 entries", last.RankTotals)
	}
	for _, ks := range last.Kernels {
		if ks.Tiles == 0 {
			t.Fatalf("kernel %s has no tiles", ks.Kernel)
		}
		if ks.Kernel == cost.ChemKernel {
			// The ignition kernel concentrates stiffness: the chemistry
			// tile costs must be visibly imbalanced and the what-if must
			// see real headroom on a deterministic fixture-free run.
			if ks.Imbalance <= 1 {
				t.Fatalf("chemistry imbalance = %g, want > 1 on an igniting jet", ks.Imbalance)
			}
			if ks.WhatIf.Reduction < 0 || ks.WhatIf.Reduction >= 1 {
				t.Fatalf("what-if reduction out of range: %+v", ks.WhatIf)
			}
		} else if ks.Imbalance != 1 {
			// Uniform kernels split into equal-cell plane tiles.
			t.Fatalf("uniform kernel %s imbalance = %g, want exactly 1", ks.Kernel, ks.Imbalance)
		}
	}
	if last.RankImbalance < 1 {
		t.Fatalf("rank imbalance = %g, want >= 1", last.RankImbalance)
	}
	if last.Straggler < 0 || last.Straggler > 1 {
		t.Fatalf("straggler rank = %d out of range", last.Straggler)
	}
}

// TestCostLiveEndpoints checks the monitor serves the latest cost document
// at GET /cost (with the measured wall-clock side channel), exports cost_*
// gauges, and lists the cost maps in the /fields inventory.
func TestCostLiveEndpoints(t *testing.T) {
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.EnableCostMaps(CostSpec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	var rec CostRecord
	if err := sim.SubscribeCost(func(r CostRecord) { rec = r }); err != nil {
		t.Fatal(err)
	}
	probe, err := sim.StartTelemetry(TelemetryOptions{Case: "cost-live", MonitorAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close("")

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + probe.MonitorAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	// Before any step the endpoint answers with an empty object, not a 404.
	if code, body := get("/cost"); code != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("GET /cost before first record = %d %q, want 200 {}", code, body)
	}

	probe.Advance(2, 0.4*sim.StableDt())
	if rec.Step != 2 {
		t.Fatalf("subscriber saw step %d, want 2", rec.Step)
	}

	code, body := get("/cost")
	if code != 200 {
		t.Fatalf("GET /cost = %d", code)
	}
	var doc cost.Document
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("GET /cost is not a document: %v\n%s", err, body)
	}
	if doc.Record == nil || doc.Record.Step != 2 {
		t.Fatalf("live record wrong: %+v", doc.Record)
	}
	if len(doc.Record.Kernels) != len(cost.Kernels) {
		t.Fatalf("live record has %d kernels, want %d", len(doc.Record.Kernels), len(cost.Kernels))
	}
	// The measured side channel must carry real wall-clock timings for the
	// step the record reduced: region-timer totals for every kernel (except
	// DIVERGENCE, which shares the DERIVATIVES timer) plus sampled per-tile
	// detail from the probe.
	if len(doc.Measured) == 0 {
		t.Fatal("no measured kernels in the live document")
	}
	for _, mk := range doc.Measured {
		if mk.Tiles == 0 || mk.SampledTiles == 0 || mk.SampledS <= 0 {
			t.Fatalf("measured kernel %s has no timings: %+v", mk.Kernel, mk)
		}
		if mk.Kernel == "DIVERGENCE" {
			if mk.RegionS != 0 {
				t.Fatalf("DIVERGENCE shares the DERIVATIVES timer, want RegionS 0: %+v", mk)
			}
		} else if mk.RegionS <= 0 {
			t.Fatalf("measured kernel %s has no region time: %+v", mk.Kernel, mk)
		}
	}

	if code, prom := get("/metrics.prom"); code != 200 || !strings.Contains(prom, "cost_") {
		t.Fatalf("GET /metrics.prom = %d, missing cost_* gauges:\n%s", code, prom)
	}

	// The cost maps resolve through the registry inventory like any field.
	code, fields := get("/fields")
	if code != 200 {
		t.Fatalf("GET /fields = %d", code)
	}
	for _, name := range []string{"cost_chem", "cost_density"} {
		if !strings.Contains(fields, name) {
			t.Fatalf("GET /fields missing %s:\n%s", name, fields)
		}
	}
	var inv FieldsDocument
	if err := json.Unmarshal([]byte(fields), &inv); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, fi := range inv.Fields {
		if fi.Name == "cost_chem" || fi.Name == "cost_density" {
			seen++
			if fi.Role != "cost" {
				t.Fatalf("%s role = %q, want cost", fi.Name, fi.Role)
			}
			if fi.Checkpoint != "" {
				t.Fatalf("%s must not join the checkpoint ABI", fi.Name)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("found %d cost fields in the inventory, want 2", seen)
	}
}

// TestSubscribeCostBeforeEnableErrors pins the root API failure mode.
func TestSubscribeCostBeforeEnableErrors(t *testing.T) {
	sim := inertBoxSim(t)
	if err := sim.SubscribeCost(func(CostRecord) {}); err == nil {
		t.Fatal("SubscribeCost before EnableCostMaps must fail")
	}
	if sim.Cost() != nil {
		t.Fatal("Cost() must be nil before EnableCostMaps")
	}
}
