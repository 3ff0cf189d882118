package solver

import (
	"sync"
	"testing"

	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
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
