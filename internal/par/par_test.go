package par

import (
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/s3dgo/s3d/internal/obs"
)

// sweepShapes and sweepWorkers span the cases the block scheduler must get
// right: the lifted jet's quasi-2-D box and its transpose, a 1-D column, a
// 3-D box, ghost-extended and degenerate boxes; pool sizes that divide the
// plane counts and ones that do not.
var (
	sweepShapes = []Range{
		Interior(96, 72, 1),
		Interior(72, 96, 1),
		Interior(1, 1, 40),
		Interior(16, 32, 32),
		Interior(16, 1, 1),
		Box([3]int{-5, -5, -5}, [3]int{9, 7, 6}), // ghost-extended
		Interior(1, 1, 1),
	}
	sweepWorkers = []int{1, 2, 3, 4, 7}
)

// cover marks every cell of tl in seen (one counter per cell of r).
func cover(seen []int32, r Range, tl Tile) {
	nx, ny := r.Ext(0), r.Ext(1)
	for k := tl.Lo[2]; k < tl.Hi[2]; k++ {
		for j := tl.Lo[1]; j < tl.Hi[1]; j++ {
			for i := tl.Lo[0]; i < tl.Hi[0]; i++ {
				atomic.AddInt32(&seen[((k-r.Lo[2])*ny+(j-r.Lo[1]))*nx+(i-r.Lo[0])], 1)
			}
		}
	}
}

// TestSweepsCoverBox checks, for every shape, pool size and frozen axis,
// that the fat tiles of Run/RunFrozen and the partition tiles of RunSlots
// each visit every point of the box exactly once; that no tile cuts the
// frozen axis; that tiles are made of whole x-rows unless x is the only axis
// left to split; that Run issues at most blocksPerWorker blocks per worker
// with distinct indices; and that RunSlots issues every slot index once.
func TestSweepsCoverBox(t *testing.T) {
	for _, workers := range sweepWorkers {
		pool := NewPool(workers)
		pl := NewPlan(pool)
		for _, r := range sweepShapes {
			cells := r.Ext(0) * r.Ext(1) * r.Ext(2)
			for frozen := -1; frozen < 3; frozen++ {
				onlyX := true // is x the only splittable, non-frozen axis?
				for a := 1; a < 3; a++ {
					if a != frozen && r.Ext(a) > 1 {
						onlyX = false
					}
				}
				check := func(name string, idx []int32, seen []int32) {
					t.Helper()
					for c, n := range seen {
						if n != 1 {
							t.Fatalf("%s workers=%d shape=%v frozen=%d: cell %d visited %d times",
								name, workers, r, frozen, c, n)
						}
					}
					for i, n := range idx {
						if n != 1 {
							t.Fatalf("%s workers=%d shape=%v frozen=%d: tile index %d issued %d times",
								name, workers, r, frozen, i, n)
						}
					}
				}
				body := func(seen, idx []int32) func(Tile, int) {
					return func(tl Tile, w int) {
						if w < 0 || w >= workers {
							t.Errorf("worker index %d out of range [0,%d)", w, workers)
						}
						if frozen >= 0 && (tl.Lo[frozen] != r.Lo[frozen] || tl.Hi[frozen] != r.Hi[frozen]) {
							t.Errorf("shape=%v: frozen axis %d split: tile %v", r, frozen, tl.Range)
						}
						if !onlyX && (tl.Lo[0] != r.Lo[0] || tl.Hi[0] != r.Hi[0]) {
							t.Errorf("shape=%v frozen=%d: tile %v cuts x-rows although another axis can split",
								r, frozen, tl.Range)
						}
						atomic.AddInt32(&idx[tl.Index], 1)
						cover(seen, r, tl)
					}
				}
				planes := 1
				if ax := splitAxis(r, frozen); ax >= 0 {
					planes = r.Ext(ax)
				}
				seen, idx := make([]int32, cells), make([]int32, blockCount(planes, workers))
				if len(idx) > blocksPerWorker*workers {
					t.Fatalf("%d blocks for %d workers", len(idx), workers)
				}
				pl.RunFrozen("cover", r, frozen, body(seen, idx))
				check("RunFrozen", idx, seen)
				if frozen >= 0 {
					continue
				}
				seen, idx = make([]int32, cells), make([]int32, pl.Slots(r))
				if len(idx) != planes {
					t.Fatalf("Slots(%v) = %d, want %d planes", r, len(idx), planes)
				}
				pl.RunSlots("cover", r, body(seen, idx))
				check("RunSlots", idx, seen)
			}
		}
		pool.Close()
	}
}

// foldSlots runs fn once per partition tile of r through RunSlots, each
// tile's result into slot Tile.Index, and returns the slots summed in
// ascending order — the ordered reduction the solver's heat-release
// integral forms.
func foldSlots(pl *Plan, label string, r Range, fn func(t Tile) float64) float64 {
	slots := make([]float64, pl.Slots(r))
	pl.RunSlots(label, r, func(tl Tile, _ int) { slots[tl.Index] = fn(tl) })
	var sum float64
	for _, v := range slots {
		sum += v
	}
	return sum
}

// TestRunSlotsFoldDeterministic: the ascending fold of the per-tile slots
// over a fixed box must be bitwise identical for every pool size — the
// property the solver's heat-release integral depends on.
func TestRunSlotsFoldDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, r := range append([]Range{Interior(17, 13, 11)}, sweepShapes...) {
		nx, ny := r.Ext(0), r.Ext(1)
		vals := make([]float64, nx*ny*r.Ext(2))
		for i := range vals {
			// Wildly varying magnitudes make float addition order visible.
			vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		}
		sum := func(workers int) float64 {
			pool := NewPool(workers)
			defer pool.Close()
			pl := NewPlan(pool)
			return foldSlots(pl, "reduce", r, func(tl Tile) float64 {
				var s float64
				for k := tl.Lo[2]; k < tl.Hi[2]; k++ {
					for j := tl.Lo[1]; j < tl.Hi[1]; j++ {
						for i := tl.Lo[0]; i < tl.Hi[0]; i++ {
							s += vals[((k-r.Lo[2])*ny+(j-r.Lo[1]))*nx+(i-r.Lo[0])]
						}
					}
				}
				return s
			})
		}
		want := sum(1)
		for _, w := range sweepWorkers[1:] {
			if got := sum(w); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("shape=%v workers=%d: sum %x != workers=1 sum %x", r, w, got, want)
			}
		}
	}
}

// TestRunItems covers the per-field decomposition.
func TestRunItems(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		seen := make([]int32, 23)
		NewPlan(pool).RunItems("items", len(seen), func(item, _ int) {
			atomic.AddInt32(&seen[item], 1)
		})
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, n)
			}
		}
		pool.Close()
	}
}

// TestConcurrentPlans: several ranks sharing one pool, as in a decomposed
// run. Each plan must see only its own tiles.
func TestConcurrentPlans(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	const ranks = 6
	done := make(chan [2]float64, ranks)
	for rk := 0; rk < ranks; rk++ {
		go func(rk int) {
			pl := NewPlan(pool)
			r := Interior(5, 5, 9)
			got := foldSlots(pl, "rank", r, func(tl Tile) float64 {
				var s float64
				for k := tl.Lo[2]; k < tl.Hi[2]; k++ {
					s += float64(rk + 1)
				}
				return s * 25 // 5×5 plane worth per k
			})
			done <- [2]float64{float64(rk), got}
		}(rk)
	}
	for i := 0; i < ranks; i++ {
		res := <-done
		want := (res[0] + 1) * 9 * 25
		if res[1] != want {
			t.Errorf("rank %.0f: got %g want %g", res[0], res[1], want)
		}
	}
}

// TestPoolMetrics checks the utilization gauges and tile counters.
func TestPoolMetrics(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.AttachMetrics(reg)
	pl := NewPlan(pool)
	pl.AttachMetrics(reg)
	pl.Run("kern", Interior(4, 4, 16), func(Tile, int) {})
	pl.Run("kern", Interior(4, 4, 16), func(Tile, int) {})
	s := reg.Snapshot()
	if got := s.Gauges["par.workers"]; got != 3 {
		t.Errorf("par.workers = %g, want 3", got)
	}
	// 16 planes on 3 workers schedule as 4·3 = 12 blocks per run.
	if got := s.Counters["par.tiles.kern"]; got != 24 {
		t.Errorf("par.tiles.kern = %d, want 24", got)
	}
	if got := s.Counters["par.tiles_total"]; got != 24 {
		t.Errorf("par.tiles_total = %d, want 24", got)
	}
}

// TestSplitAxisDeterministic pins the axis-selection rule.
func TestSplitAxisDeterministic(t *testing.T) {
	cases := []struct {
		r      Range
		frozen int
		want   int
	}{
		{Interior(32, 32, 32), -1, 2}, // slowest axis first
		{Interior(64, 8, 4), -1, 2},   // whatever the extents
		{Interior(32, 32, 32), 2, 1},  // frozen k → j
		{Interior(64, 32, 1), -1, 1},  // quasi-2D: j, never the longer x
		{Interior(8, 32, 1), -1, 1},   // quasi-2D, j
		{Interior(64, 32, 1), 1, 0},   // x only when nothing else can split
		{Interior(9, 1, 1), -1, 0},    // 1-D line
		{Interior(1, 1, 1), -1, -1},   // degenerate
		{Interior(9, 1, 1), 0, -1},    // only splittable axis frozen
	}
	for _, c := range cases {
		if got := splitAxis(c.r, c.frozen); got != c.want {
			t.Errorf("splitAxis(%v, %d) = %d, want %d", c.r, c.frozen, got, c.want)
		}
	}
}

func TestDefaultPoolConfig(t *testing.T) {
	SetDefaultWorkers(2)
	if got := DefaultWorkers(); got != 2 {
		t.Fatalf("DefaultWorkers = %d after SetDefaultWorkers(2)", got)
	}
	p := Default()
	if p.Workers() != 2 {
		t.Fatalf("default pool size = %d, want 2", p.Workers())
	}
	if Default() != p {
		t.Fatal("Default() not stable")
	}
	SetDefaultWorkers(0) // restore NumCPU default for other tests
}

// TestLedger: at every pool size, each Run, RunSlots and RunItems run is
// booked to its kernel once — runs and units counted, the per-worker busy
// times summing exactly to the busy time, no unit longer than the busy time
// and the run's busy time kept — a reset zeroes the entry, and a warm plan
// run allocates nothing.
func TestLedger(t *testing.T) {
	r := Interior(8, 6, 5)
	for _, workers := range []int{1, 2, 3} {
		pool := NewPool(workers)
		pl := NewPlan(pool)
		blocks := blockCount(r.Ext(2), workers)
		sweeps := []struct {
			label string
			units int
			run   func()
		}{
			{"run", blocks, func() { pl.Run("run", r, func(Tile, int) {}) }},
			{"slots", blocks, func() { pl.RunSlots("slots", r, func(Tile, int) {}) }},
			{"items", 7, func() { pl.RunItems("items", 7, func(int, int) {}) }},
		}
		for _, sw := range sweeps {
			for run := 1; run <= 3; run++ {
				sw.run()
				e := pl.Ledger(sw.label)
				if e == nil || e.Runs != run || e.Units != run*sw.units || len(e.WorkerBusy) != workers {
					t.Fatalf("workers=%d %s run %d: ledger %+v, want %d runs of %d units over %d workers",
						workers, sw.label, run, e, run, sw.units, workers)
				}
				var sum time.Duration
				for _, d := range e.WorkerBusy {
					sum += d
				}
				if sum != e.Busy || e.Busy <= 0 || e.MaxUnit <= 0 || e.MaxUnit > e.Busy ||
					pl.LastBusy() <= 0 || pl.LastBusy() > e.Busy {
					t.Fatalf("workers=%d %s run %d: Σ worker busy %v, busy %v, max unit %v, last run %v",
						workers, sw.label, run, sum, e.Busy, e.MaxUnit, pl.LastBusy())
				}
			}
			if n := testing.AllocsPerRun(20, sw.run); n != 0 {
				t.Errorf("workers=%d %s: %v allocations per warm run", workers, sw.label, n)
			}
		}
		pl.ResetLedger()
		for _, sw := range sweeps {
			if e := pl.Ledger(sw.label); e.Runs != 0 || e.Units != 0 || e.Busy != 0 || e.MaxUnit != 0 ||
				len(e.WorkerBusy) != workers || slices.ContainsFunc(e.WorkerBusy, func(d time.Duration) bool { return d != 0 }) {
				t.Fatalf("workers=%d %s: ledger after reset %+v", workers, sw.label, e)
			}
		}
		pool.Close()
	}
}
