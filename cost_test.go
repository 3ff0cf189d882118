package s3d

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3dgo/s3d/internal/cost"
)

// runCost advances a reacting nx×ny×1 NSCBC lifted jet, serially (zero dims)
// or decomposed, with the cost sampler enabled at the given cadence on every
// rank (every == 0 leaves it off) and subscribed on rank 0. It returns the
// steps rank 0 recorded, every rank's final checkpoint bytes concatenated in
// rank order and rank 0's allreduce count.
func runCost(t *testing.T, nx, ny int, dims [3]int, every, steps, workers int) (recorded []int, ckpt []byte, allreduces int64) {
	t.Helper()
	SetWorkers(workers)
	defer SetWorkers(0) // restore the NumCPU default for other tests
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: nx, Ny: ny, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ckpts := map[int][]byte{}
	runCase(t, p, dims, func(sim *Simulation, rank, _ int) {
		if every > 0 {
			if _, err := sim.EnableCostMaps(CostSpec{Every: every}); err != nil {
				panic(err)
			}
			if rank == 0 {
				if err := sim.SubscribeCost(func(r CostRecord) { recorded = append(recorded, r.Step) }); err != nil {
					panic(err)
				}
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
			allreduces = sim.blk.CommStats().Allreduces
		}
	})
	for rank := 0; rank < len(ckpts); rank++ {
		ckpt = append(ckpt, ckpts[rank]...)
	}
	return recorded, ckpt, allreduces
}

// costPins are the sha256 of the final checkpoint bytes of a reacting
// 24×16×1 jet, cost sampler at every step, 9 steps — recorded on the commit
// before the dynamic load balancer was deleted and unchanged since: neither
// taking the balancer out of the chemistry sweep nor taking the substep
// proxy out of it moved a solution byte, serial or decomposed.
var costPins = map[string]string{
	"serial": "94f3de6345314c33a655715b89a962eab4d17d15aebe9c8f1f05371ad4e21f07",
	"2x2x1":  "b2689f38624117448f3c6813c91d3c6c906bdd24b9be8ff851ceac81a0d7cef5",
}

// TestCostBitwiseDeterministicAcrossWorkers: the sampler is an observer.
// Arming it may not move a solution byte — the final checkpoint of the armed
// run equals the un-armed one's and the recorded pin, at 1 and 4 workers,
// serial and decomposed — and an armed run leaves one record per due step.
// (The records themselves carry wall-clock and are not compared.)
func TestCostBitwiseDeterministicAcrossWorkers(t *testing.T) {
	for _, layout := range []struct {
		name string
		dims [3]int
	}{{"serial", [3]int{}}, {"2x2x1", [3]int{2, 2, 1}}} {
		_, plain, _ := runCost(t, 24, 16, layout.dims, 0, 9, 1)
		if got, want := fmt.Sprintf("%x", sha256.Sum256(plain)), costPins[layout.name]; got != want {
			t.Errorf("%s, un-armed: checkpoint sha256\n got %q\nwant %q", layout.name, got, want)
		}
		for _, workers := range []int{1, 4} {
			got, ckpt, _ := runCost(t, 24, 16, layout.dims, 1, 9, workers)
			if sum, want := fmt.Sprintf("%x", sha256.Sum256(ckpt)), costPins[layout.name]; sum != want {
				t.Errorf("%s, %d workers: checkpoint sha256\n got %q\nwant %q", layout.name, workers, sum, want)
			}
			if want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d workers: cost records at steps %v, want %v", layout.name, workers, got, want)
			}
		}
	}
}

// TestCostStepIssuesNoCollective: a record is the publishing rank's own
// window, so a due step adds no collective — on a 2×1×1 run with only cost
// maps armed, a rank's allreduce count equals the un-armed run's, and the
// cadence is honoured.
func TestCostStepIssuesNoCollective(t *testing.T) {
	_, _, plain := runCost(t, 32, 24, [3]int{2, 1, 1}, 0, 4, 1)
	got, _, armed := runCost(t, 32, 24, [3]int{2, 1, 1}, 2, 4, 1)
	if plain == 0 || armed != plain {
		t.Fatalf("armed run issued %d allreduces over 4 steps, the un-armed run %d", armed, plain)
	}
	if !reflect.DeepEqual(got, []int{2, 4}) { // Every: 2 over 4 steps
		t.Fatalf("cost records at steps %v, want [2 4]", got)
	}
}

// TestCostRecordIsTheMeasurement: a due record's rows are the window's
// exclusive region seconds, so on a reacting jet the chemistry row is
// positive and the rows sum to at most the step's wall; on an inert run no
// chemistry sweep ran, so the row is absent.
func TestCostRecordIsTheMeasurement(t *testing.T) {
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	jet, err := p.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		sim      *Simulation
		reacting bool
	}{{"reacting jet", jet, true}, {"inert box", inertBoxSim(t), false}} {
		if _, err := c.sim.EnableCostMaps(CostSpec{Every: 1}); err != nil {
			t.Fatal(err)
		}
		var rec CostRecord
		if err := c.sim.SubscribeCost(func(r CostRecord) { rec = r }); err != nil {
			t.Fatal(err)
		}
		dt := 0.4 * c.sim.StableDt()
		start := time.Now()
		c.sim.Advance(1, dt)
		wall := time.Since(start).Seconds()
		if rec.Step != 1 || len(rec.Kernels) == 0 {
			t.Fatalf("%s: no record for step 1: %+v", c.name, rec)
		}
		var sum float64
		var chem *cost.MeasuredKernel
		for i, mk := range rec.Kernels {
			sum += mk.RegionS
			if mk.Kernel == "REACTION_RATE_BOUNDS" {
				chem = &rec.Kernels[i]
			}
		}
		if sum <= 0 || sum > wall {
			t.Fatalf("%s: rows sum to %gs of a %gs step", c.name, sum, wall)
		}
		if c.reacting && (chem == nil || chem.RegionS <= 0) {
			t.Fatalf("%s: chemistry row %+v, want region_s > 0", c.name, chem)
		}
		if !c.reacting && chem != nil {
			t.Fatalf("%s: chemistry row %+v on a run with no chemistry sweep", c.name, chem)
		}
	}
}

// TestCostLiveEndpoints checks the monitor serves the latest cost record at
// GET /cost — the very record subscribers received — and exports cost_*
// gauges.
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
	var live CostRecord
	if err := json.Unmarshal([]byte(body), &live); err != nil {
		t.Fatalf("GET /cost is not a record: %v\n%s", err, body)
	}
	if !reflect.DeepEqual(live, rec) {
		t.Fatalf("GET /cost serves %+v, subscribers received %+v", live, rec)
	}
	// The record carries real wall-clock timings for the step it closed:
	// region-timer totals for every kernel (DIVERGENCE's from the DERIVATIVES
	// timer) plus, for every kernel that ran plan regions, the times of all
	// its units, as the plan measured them. A row without plan runs holds
	// region time alone: the chemistry's share, charged out of the
	// ASSEMBLE_FLUXES sweep it runs in. The serial jet has no periodic axis,
	// so no halo exchange and no GHOST_EXCHANGE row.
	if len(live.Kernels) == 0 {
		t.Fatal("no kernels in the live record")
	}
	measured := map[string]bool{}
	for _, mk := range live.Kernels {
		if mk.Runs > 0 {
			measured[mk.Kernel] = true
			var busy float64
			for _, w := range mk.WorkerS {
				busy += w
			}
			if mk.Tiles == 0 || mk.MeanTileS <= 0 || mk.MaxTileS < mk.MeanTileS || len(mk.WorkerS) == 0 ||
				math.Abs(busy-float64(mk.Tiles)*mk.MeanTileS) > 1e-9*busy {
				t.Fatalf("kernel %s has no consistent unit times: %+v", mk.Kernel, mk)
			}
		}
		if mk.RegionS <= 0 {
			t.Fatalf("kernel %s has no region time: %+v", mk.Kernel, mk)
		}
		if mk.Kernel == "GHOST_EXCHANGE" {
			t.Fatalf("the serial jet reports a halo exchange: %+v", mk)
		}
	}
	for _, k := range []string{"COMPUTE_PRIMITIVES", "ASSEMBLE_FLUXES", "DIVERGENCE", "RK_UPDATE"} {
		if !measured[k] {
			t.Fatalf("kernel %s has no measured plan runs in %+v", k, live.Kernels)
		}
	}

	if code, prom := get("/metrics.prom"); code != 200 || !strings.Contains(prom, "cost_") {
		t.Fatalf("GET /metrics.prom = %d, missing cost_* gauges:\n%s", code, prom)
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
