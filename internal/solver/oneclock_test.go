package solver

import (
	"sync"
	"testing"

	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
	"github.com/s3dgo/s3d/internal/rk"
)

// inclusiveGain returns what region name's inclusive time gained from
// before to after, in nanoseconds.
func inclusiveGain(before, after *perf.Timers, name string) int64 {
	g := int64(after.Region(name).Inclusive)
	if r := before.Region(name); r != nil {
		g -= int64(r.Inclusive)
	}
	return g
}

// TestRegionsStampedOnce: a profiled region's span opens and closes on the
// stamps its figure-2 timer took, and a fused sweep's charged part is one
// number on both, so over one profiled step of the 25×17 jet at two workers
// every timer region gains exactly the summed duration of the step's rank
// track spans of that region — DERIVATIVES against its DIVERGENCE span, the
// charged REACTION_RATE_BOUNDS and NSCBC parts included.
func TestRegionsStampedOnce(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	b, err := NewSerial(degenerateCase{nx: 25, ny: 17, nz: 1, jet: true}.config(pool))
	if err != nil {
		t.Fatal(err)
	}
	degenerateIC(b)
	b.EnableProfiling(prof.New().NewTrack(prof.GroupRank, "rank0"))
	before := b.Timers.Snapshot()
	b.StepOnce(degDt)
	if err := b.Timers.Err(); err != nil {
		t.Fatal(err)
	}

	snap := b.profT.Snapshot()
	spans := map[string]int64{}
	for _, ev := range snap.Events {
		spans[snap.Nodes[ev.Path].Name] += ev.Dur
	}
	seen := map[string]bool{}
	for _, r := range b.Timers.Regions() {
		span := r.Name
		if span == "DERIVATIVES" {
			span = "DIVERGENCE"
		}
		if gain, sum := inclusiveGain(before, b.Timers, r.Name), spans[span]; gain != sum {
			t.Errorf("%s gained %d ns over the step, its %s spans sum to %d ns", r.Name, gain, span, sum)
		}
		seen[r.Name] = true
	}
	for _, name := range []string{"COMPUTE_PRIMITIVES", "ASSEMBLE_FLUXES", "REACTION_RATE_BOUNDS",
		"DERIVATIVES", "NSCBC", "RK_UPDATE"} {
		if !seen[name] {
			t.Errorf("no %s region in the step's timers", name)
		}
	}
}

// TestHaloWaitOneClock: figure 2's MPI_WAIT is the blocked time comm
// stamped, so over one profiled step of a 2×1×1 periodic box, on each rank,
// the MPI_WAIT timer's inclusive gain, the sum of the rank track's MPI_WAIT
// records under GHOST_EXCHANGE and the increase of comm's wait counters are
// one number.
func TestHaloWaitOneClock(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	cfg := reactiveConfig()
	cfg.Pool = pool
	var (
		mu  sync.Mutex
		got [2][3]int64
	)
	err := RunParallel(cfg, [3]int{2, 1, 1}, func(b *Block) {
		hotSpotIC(b)
		b.EnableProfiling(prof.New().NewTrack(prof.GroupRank, "rank"))
		sumWaits := func() (ns int64) {
			for _, w := range b.CommWaitByPeer(nil) {
				ns += w
			}
			return ns
		}
		before, wait0 := b.Timers.Snapshot(), sumWaits()
		b.StepOnce(2e-8)
		if err := b.Timers.Err(); err != nil {
			panic(err)
		}
		snap := b.profT.Snapshot()
		var spans int64
		for _, ev := range snap.Events {
			if n := snap.Nodes[ev.Path]; n.Name == "MPI_WAIT" && snap.Nodes[n.Parent].Name == "GHOST_EXCHANGE" {
				spans += ev.Dur
			}
		}
		mu.Lock()
		got[b.Rank()] = [3]int64{inclusiveGain(before, b.Timers, "MPI_WAIT"), spans, sumWaits() - wait0}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, g := range got {
		if g[0] != g[1] || g[1] != g[2] {
			t.Errorf("rank %d: MPI_WAIT timer %d ns, spans under GHOST_EXCHANGE %d ns, comm wait counters %d ns; want one number", r, g[0], g[1], g[2])
		}
	}
}

// TestNSCBCRegionOnlyWithFaces: figure 2 lists an NSCBC region only for a
// block that has an NSCBC face. Over one profiled step of the fully periodic
// 2×1×1 box neither rank's timers nor its rank track hold NSCBC, and the
// DIVERGENCE sweep still runs once per RK stage; the 25×17 jet, whose
// inflow and outflow faces are NSCBC, still charges its NSCBC part on every
// stage, each as a child span of DIVERGENCE lasting what the timer gained.
func TestNSCBCRegionOnlyWithFaces(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	nscbcSpans := func(b *Block) (calls int, ns int64, underDiv bool) {
		snap := b.profT.Snapshot()
		underDiv = true
		for _, ev := range snap.Events {
			if n := snap.Nodes[ev.Path]; n.Name == "NSCBC" {
				calls++
				ns += ev.Dur
				underDiv = underDiv && snap.Nodes[n.Parent].Name == "DIVERGENCE"
			}
		}
		return calls, ns, underDiv
	}

	cfg := reactiveConfig()
	cfg.Pool = pool
	var (
		mu  sync.Mutex
		box [2][3]int
	)
	err := RunParallel(cfg, [3]int{2, 1, 1}, func(b *Block) {
		hotSpotIC(b)
		b.EnableProfiling(prof.New().NewTrack(prof.GroupRank, "rank"))
		b.StepOnce(2e-8)
		if err := b.Timers.Err(); err != nil {
			panic(err)
		}
		calls, _, _ := nscbcSpans(b)
		timer := 0
		if r := b.Timers.Region("NSCBC"); r != nil {
			timer = int(r.Calls)
		}
		mu.Lock()
		box[b.Rank()] = [3]int{timer, calls, int(b.Timers.Region("DERIVATIVES").Calls)}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	stages := rk.RK46NL.Stages()
	for r, g := range box {
		if g[0] != 0 || g[1] != 0 || g[2] != stages {
			t.Errorf("periodic box rank %d: NSCBC timer calls %d, NSCBC spans %d, DERIVATIVES calls %d; want 0, 0, %d",
				r, g[0], g[1], g[2], stages)
		}
	}

	b, err := NewSerial(degenerateCase{nx: 25, ny: 17, nz: 1, jet: true}.config(pool))
	if err != nil {
		t.Fatal(err)
	}
	degenerateIC(b)
	b.EnableProfiling(prof.New().NewTrack(prof.GroupRank, "rank0"))
	b.StepOnce(degDt)
	if err := b.Timers.Err(); err != nil {
		t.Fatal(err)
	}
	calls, ns, underDiv := nscbcSpans(b)
	r := b.Timers.Region("NSCBC")
	if r == nil || int(r.Calls) != rk.RK46NL.Stages() || int64(calls) != r.Calls || ns != int64(r.Inclusive) || !underDiv {
		t.Fatalf("jet: NSCBC region %+v; %d spans of %d ns (under DIVERGENCE: %v); want one per RK stage on the timer's time",
			r, calls, ns, underDiv)
	}
}
