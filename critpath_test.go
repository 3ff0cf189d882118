package s3d

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// runCritPathDecomposed runs a decomposed reacting lifted jet with the
// critpath analyzer enabled on every rank (Every: 2 over 4 steps),
// optionally slowing one rank's chemistry, and returns the analyzed
// records plus the shared analyzer for trace export.
func runCritPathDecomposed(t *testing.T, workers int, dims [3]int, straggler int, delay time.Duration) ([]CritPathRecord, *CritPathAnalyzer) {
	t.Helper()
	SetWorkers(workers)
	defer SetWorkers(0) // restore the NumCPU default for other tests
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := NewCritPathAnalyzer(CritPathSpec{Every: 2})
	var (
		mu   sync.Mutex
		recs []CritPathRecord
	)
	err = RunDecomposed(p.Config, dims, func(r *RankSim) {
		r.SetInitial(p.Initial, p.InitPressure)
		// Every rank installs the same analyzer: the deposit barrier is
		// collective.
		if err := r.EnableCritPath(a); err != nil {
			panic(err)
		}
		if r.Rank == 0 {
			if err := r.SubscribeCritPath(func(rec CritPathRecord) {
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}); err != nil {
				panic(err)
			}
		}
		if delay > 0 && r.Rank == straggler {
			r.InjectStraggler(delay)
		}
		dt := 0.4 * r.StableDt()
		r.Advance(4, dt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, a
}

// TestCritPathStructureDeterministicAcrossWorkers pins the determinism
// contract: the record's structural fields — rank count, the operation
// census, matched edge count, match completeness — derive from the step's
// communication pattern alone, so they must agree across worker counts
// even though every timing-derived field (path, waits, blame) may differ.
func TestCritPathStructureDeterministicAcrossWorkers(t *testing.T) {
	r1, _ := runCritPathDecomposed(t, 1, [3]int{2, 1, 1}, -1, 0)
	r4, _ := runCritPathDecomposed(t, 4, [3]int{2, 1, 1}, -1, 0)
	if len(r1) != 2 || len(r4) != 2 {
		t.Fatalf("got %d and %d records, want 2 each (Every: 2 over 4 steps)", len(r1), len(r4))
	}
	for i := range r1 {
		a, b := r1[i], r4[i]
		if a.Step != []int{2, 4}[i] || a.Step != b.Step {
			t.Fatalf("record %d steps: %d vs %d, want %d", i, a.Step, b.Step, []int{2, 4}[i])
		}
		if a.Ranks != b.Ranks || a.Sends != b.Sends || a.Recvs != b.Recvs ||
			a.Collectives != b.Collectives || a.Edges != b.Edges ||
			a.MatchCompleteness != b.MatchCompleteness {
			t.Fatalf("structural fields differ between 1 and 4 workers:\n1: %+v\n4: %+v", a, b)
		}
		if len(a.RankOps) != len(b.RankOps) {
			t.Fatalf("rank ops length differs: %d vs %d", len(a.RankOps), len(b.RankOps))
		}
		for r := range a.RankOps {
			if a.RankOps[r] != b.RankOps[r] {
				t.Fatalf("rank %d ops differ: %+v vs %+v", r, a.RankOps[r], b.RankOps[r])
			}
		}
		// The in-process transport loses no messages: every receive edge
		// must match a traced send.
		if a.MatchCompleteness != 1 {
			t.Fatalf("match completeness %v, want 1", a.MatchCompleteness)
		}
		if a.Edges == 0 || a.Sends != a.Recvs {
			t.Fatalf("census implausible: %+v", a)
		}
	}
}

// TestCritPathStragglerE2E is the acceptance scenario: a 4-rank run with
// rank 2's chemistry artificially slowed must yield records whose critical
// path runs through rank 2, whose neighbouring ranks sit in late-sender waits
// blamed on rank 2, and whose blame points at the chemistry region — and
// the verdict must agree with the cost sampler's independent wall-clock
// view of the same run.
func TestCritPathStragglerE2E(t *testing.T) {
	const straggler = 2
	// The injected sleep must dominate the step's real compute even on a
	// single-CPU box where the four rank goroutines time-slice one core:
	// 25 ms × 6 RK stages = 150 ms per step, while the whole 32×24 step
	// computes in well under that. Sleeping releases the CPU, so the other
	// ranks finish their work and genuinely block on rank 2's late sends.
	const delay = 25 * time.Millisecond
	SetWorkers(1)
	defer SetWorkers(0)
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := NewCritPathAnalyzer(CritPathSpec{Every: 2})
	var (
		mu        sync.Mutex
		recs      []CritPathRecord
		chemWallS float64 // straggler's measured chemistry seconds (cost view)
	)
	err = RunDecomposed(p.Config, [3]int{4, 1, 1}, func(r *RankSim) {
		r.SetInitial(p.Initial, p.InitPressure)
		if err := r.EnableCritPath(a); err != nil {
			panic(err)
		}
		// The cost sampler rides along as the independent cross-check.
		if _, err := r.EnableCostMaps(CostSpec{Every: 2}); err != nil {
			panic(err)
		}
		if r.Rank == 0 {
			if err := r.SubscribeCritPath(func(rec CritPathRecord) {
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}); err != nil {
				panic(err)
			}
		}
		if r.Rank == straggler {
			r.InjectStraggler(delay)
		}
		dt := 0.4 * r.StableDt()
		r.Advance(4, dt)
		if r.Rank == straggler {
			rec := r.Cost().Latest()
			if rec == nil {
				panic("straggler's cost collector published nothing")
			}
			for _, mk := range rec.Kernels {
				if mk.Kernel == "REACTION_RATE_BOUNDS" {
					mu.Lock()
					chemWallS = mk.RegionS
					mu.Unlock()
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	var blamedChemNs int64
	for _, rec := range recs {
		if rec.CritRank != straggler {
			t.Fatalf("step %d: critical path through rank %d, want straggler %d\n%s",
				rec.Step, rec.CritRank, straggler, rec.Verdict)
		}
		if rec.MatchCompleteness != 1 {
			t.Fatalf("step %d: match completeness %v, want 1", rec.Step, rec.MatchCompleteness)
		}
		// The straggler's neighbours block on its late sends. (Distant
		// ranks may idle indirectly, so only neighbours are asserted.)
		// Wait-state balance: the straggler is the late party — messages
		// idle in its mailbox far longer than it ever blocks — while the
		// other ranks together lose more time to late senders than their own
		// messages idle (by construction about 3:1: each of the three blocks
		// a delay per stage, and only rank 1 holds a message from a rank
		// running one exchange ahead). The record's global dominant wait is
		// not asserted: it sets those two totals against each other, and
		// they are equal to within a few percent, so scheduling decides it.
		var otherLS, otherLR int64
		for _, w := range rec.Waits {
			if w.Rank == straggler {
				if w.LateRecvNs <= w.LateSenderNs {
					t.Fatalf("step %d: straggler wait %+v, want it to be the late receiver", rec.Step, w)
				}
				continue
			}
			otherLS += w.LateSenderNs
			otherLR += w.LateRecvNs
			if w.Rank == straggler-1 || w.Rank == straggler+1 {
				if w.LateSenderNs < int64(delay) || w.LateSenderPeer != straggler {
					t.Fatalf("step %d: neighbour rank %d wait %+v, want late-sender blame on rank %d",
						rec.Step, w.Rank, w, straggler)
				}
			}
		}
		if otherLS <= otherLR {
			t.Fatalf("step %d: ranks other than the straggler lost %d ns to late senders and %d ns to late receivers, want late senders to dominate\n%+v",
				rec.Step, otherLS, otherLR, rec.Waits)
		}
		if rec.LostFrac <= 0 {
			t.Fatalf("step %d: lost fraction %v, want > 0", rec.Step, rec.LostFrac)
		}
		// Blame must point at the slowed kernel.
		if len(rec.Blame) == 0 || !strings.Contains(rec.Blame[0].Path, "REACTION_RATE_BOUNDS") {
			t.Fatalf("step %d: top blame %+v, want the chemistry region", rec.Step, rec.Blame)
		}
		for _, bl := range rec.Blame {
			if strings.Contains(bl.Path, "REACTION_RATE_BOUNDS") {
				blamedChemNs += bl.Ns
			}
		}
		if !strings.Contains(rec.Verdict, "rank 2") {
			t.Fatalf("step %d: verdict %q does not name the straggler", rec.Step, rec.Verdict)
		}
	}

	// Cross-validation against internal/cost: the straggler's measured
	// chemistry wall clock for its last analyzed step must carry the
	// injected delay (≥ 6 stages × delay, minus scheduling slack), and the
	// critical path's chemistry blame must be of the same magnitude —
	// two independent clocks agreeing on where the time went.
	stepSleep := 6 * delay.Seconds()
	if chemWallS < 0.75*stepSleep {
		t.Fatalf("cost sampler measured %.3fs of chemistry on the straggler, want ≥ %.3fs", chemWallS, 0.75*stepSleep)
	}
	if got := time.Duration(blamedChemNs).Seconds(); got < 0.75*stepSleep {
		t.Fatalf("critpath blamed %.3fs on chemistry across 2 records, want ≥ %.3fs (cost measured %.3fs)",
			got, 0.75*stepSleep, chemWallS)
	}

	// The Chrome-trace export highlights the straggler's critical-path
	// spans in the dedicated overlay lane.
	var sb bytes.Buffer
	if err := a.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"critical-path", "crit:rank2", "REACTION_RATE_BOUNDS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing %q", want)
		}
	}
}

// TestCritPathLiveEndpoints checks the monitor serves the latest record at
// GET /critpath and exports critpath_* gauges; serial runs still analyze
// (single-rank path, region blame, no message edges).
func TestCritPathLiveEndpoints(t *testing.T) {
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.EnableCritPath(NewCritPathAnalyzer(CritPathSpec{Every: 1})); err != nil {
		t.Fatal(err)
	}
	var last CritPathRecord
	if err := sim.SubscribeCritPath(func(r CritPathRecord) { last = r }); err != nil {
		t.Fatal(err)
	}
	probe, err := sim.StartTelemetry(TelemetryOptions{Case: "critpath-live", MonitorAddr: "127.0.0.1:0"})
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
	if code, body := get("/critpath"); code != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("GET /critpath before first record = %d %q, want 200 {}", code, body)
	}

	probe.Advance(2, 0.4*sim.StableDt())
	if last.Step != 2 || last.Ranks != 1 {
		t.Fatalf("subscriber saw %+v, want step 2 on 1 rank", last)
	}

	code, body := get("/critpath")
	if code != 200 {
		t.Fatalf("GET /critpath = %d", code)
	}
	var rec CritPathRecord
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatalf("GET /critpath is not a record: %v\n%s", err, body)
	}
	if rec.Step != 2 || rec.CritRank != 0 || len(rec.Path) == 0 {
		t.Fatalf("live record wrong: %+v", rec)
	}
	// Serial blame still lands on real call-path regions (the analyzer's
	// internal profiler records the rank track when no profiler is armed).
	if len(rec.Blame) == 0 || !strings.Contains(rec.Blame[0].Path, "STEP") {
		t.Fatalf("serial record carries no region blame: %+v", rec.Blame)
	}

	if code, prom := get("/metrics.prom"); code != 200 || !strings.Contains(prom, "critpath_") {
		t.Fatalf("GET /metrics.prom = %d, missing critpath_* gauges:\n%s", code, prom)
	}
}

// TestSubscribeCritPathBeforeEnableErrors pins the root API failure modes.
func TestSubscribeCritPathBeforeEnableErrors(t *testing.T) {
	sim := inertBoxSim(t)
	if err := sim.SubscribeCritPath(func(CritPathRecord) {}); err == nil {
		t.Fatal("SubscribeCritPath before EnableCritPath must fail")
	}
	if sim.CritPath() != nil {
		t.Fatal("CritPath() must be nil before EnableCritPath")
	}
	if err := sim.EnableCritPath(nil); err == nil {
		t.Fatal("EnableCritPath(nil) must fail")
	}
}

// TestTrackEventEndsMonotone: Track.SnapshotRange, and through it the
// critpath blame, walks each track back from its tail and stops at the first
// event that ended before the window, so every track must append its events
// in non-decreasing end time — also where comm records a span from stamps
// taken before its bookkeeping finished and a fused sweep records its
// charged part at its own end. Checked on every rank and worker track of a
// profiled, critpath-armed 2×1×1 run of the reacting jet.
func TestTrackEventEndsMonotone(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0)
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pr := NewProfiler()
	a := NewCritPathAnalyzer(CritPathSpec{Every: 1})
	err = RunDecomposed(p.Config, [3]int{2, 1, 1}, func(r *RankSim) {
		r.SetInitial(p.Initial, p.InitPressure)
		r.EnableProfiling(pr, fmt.Sprintf("rank%d", r.Rank))
		if err := r.EnableCritPath(a); err != nil {
			panic(err)
		}
		r.Advance(2, 0.4*r.StableDt())
	})
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int{}
	for _, tr := range pr.Snapshot() {
		groups[tr.Group]++
		if len(tr.Events) == 0 {
			t.Fatalf("track %s recorded nothing", tr.Name)
		}
		for i := 1; i < len(tr.Events); i++ {
			a, b := tr.Events[i-1], tr.Events[i]
			if a.Start+a.Dur > b.Start+b.Dur {
				t.Fatalf("track %s: event %d (%s) ends at %d, after event %d (%s) at %d", tr.Name,
					i-1, tr.Nodes[a.Path].Name, a.Start+a.Dur, i, tr.Nodes[b.Path].Name, b.Start+b.Dur)
			}
		}
	}
	if groups["rank"] != 2 || groups["worker"] != 2 {
		t.Fatalf("tracks by group = %v, want two rank and two worker tracks", groups)
	}
}
