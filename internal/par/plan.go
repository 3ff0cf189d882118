package par

import (
	"fmt"
	"sync"
	"time"

	"github.com/s3dgo/s3d/internal/obs"
)

// Range is a half-open 3-D index box [Lo, Hi) in (i, j, k) order, matching
// the solver's interior (or ghost-extended) loop bounds.
type Range struct {
	Lo, Hi [3]int
}

// Box builds a Range from loop bounds.
func Box(lo, hi [3]int) Range { return Range{Lo: lo, Hi: hi} }

// Interior is the Range covering [0,nx)×[0,ny)×[0,nz).
func Interior(nx, ny, nz int) Range { return Range{Hi: [3]int{nx, ny, nz}} }

// Ext returns the extent along axis a.
func (r Range) Ext(a int) int { return r.Hi[a] - r.Lo[a] }

// Empty reports whether the box contains no points.
func (r Range) Empty() bool {
	return r.Ext(0) <= 0 || r.Ext(1) <= 0 || r.Ext(2) <= 0
}

// Tile is one unit of kernel work handed to a sweep body: a sub-box of the
// sweep's Range plus an index. For RunSlots Index is the tile's position in
// the deterministic partition order — the reduction-slot index; for
// Run/RunFrozen it numbers the scheduled blocks.
type Tile struct {
	Range
	Index int
}

// splitAxis picks the tiling axis for a box: the slowest-varying axis with
// more than one point — k, else j, and i only when nothing else can be split
// — never the frozen axis (pass -1 for none). A plane tile cut along it is
// therefore made of whole unit-stride x-rows whenever the box allows. The
// choice depends only on the box shape — never on the worker count — so
// partitions, and with them reduction orders, are reproducible across pool
// sizes. Returns -1 when no axis is splittable (single-tile sweep).
func splitAxis(r Range, frozen int) int {
	for _, a := range [3]int{2, 1, 0} {
		if a != frozen && r.Ext(a) > 1 {
			return a
		}
	}
	return -1
}

// planesOf cuts planes [lo, hi) along axis ax out of r (the whole box when
// ax is -1) and labels the tile idx.
func planesOf(r Range, ax, lo, hi, idx int) Tile {
	t := Tile{Range: r, Index: idx}
	if ax >= 0 {
		t.Lo[ax], t.Hi[ax] = r.Lo[ax]+lo, r.Lo[ax]+hi
	}
	return t
}

// tileOf cuts plane idx (the partition grain: one plane) along axis ax out
// of r.
func tileOf(r Range, ax, idx int) Tile { return planesOf(r, ax, idx, idx+1, idx) }

// blocksPerWorker is how many scheduled blocks a sweep is cut into per pool
// worker: enough that an uneven block does not leave a worker idle at the
// barrier, few enough that a sweep body's per-call setup and the per-task
// scheduling cost stay amortised over many rows.
const blocksPerWorker = 4

// blockCount returns how many blocks n partition slots are scheduled as on
// a pool of the given size, and blockSpan the slots [lo, hi) of block b. The
// grouping is a scheduling decision only: it may depend on the worker count
// because nothing whose bits matter is accumulated per block.
func blockCount(n, workers int) int { return min(n, blocksPerWorker*workers) }

func blockSpan(b, nb, n int) (lo, hi int) { return b * n / nb, (b + 1) * n / nb }

// RunRecorder receives the per-tile timings of one plan run. Tile is called
// concurrently from pool workers (tile indices within a run are distinct, so
// implementations may write disjoint slots without locking); EndRun is called
// on the owner goroutine after the run's barrier.
type RunRecorder interface {
	Tile(idx, worker int, seconds float64)
	EndRun()
}

// CostProbe attributes per-tile kernel cost (the hook the cost-map sampler
// installs via SetCost). Armed is the fast path — a single atomic load when
// the sampler is installed but idle; BeginRun opens a recorder for one run of
// n tiles under the kernel label, or returns nil to skip that run. Timing a
// tile costs ~three monotonic clock reads, so probes decline runs they do
// not need tile detail from (the cost sampler caps tile-timed runs per
// kernel per window): a declined run executes completely unwrapped.
type CostProbe interface {
	Armed() bool
	BeginRun(label string, tiles int) RunRecorder
}

// Plan schedules one block's kernels over a pool. A Plan has a single
// owner goroutine (the rank driving the block); only the pool behind it is
// shared. Its metric handles are therefore unguarded.
type Plan struct {
	pool *Pool
	cost CostProbe

	reg      *obs.Registry
	counters map[string]*obs.Counter // per-kernel tile counters, lazy
}

// NewPlan builds a plan over the given pool (nil selects Default()).
func NewPlan(pool *Pool) *Plan {
	if pool == nil {
		pool = Default()
	}
	return &Plan{pool: pool}
}

// Pool returns the pool the plan schedules onto.
func (pl *Plan) Pool() *Pool { return pl.pool }

// Workers returns the pool size; per-worker state (scratch arrays, cloned
// chemistry) must be dimensioned to it. Worker indices passed to kernel
// closures are always < Workers().
func (pl *Plan) Workers() int { return pl.pool.n }

// AttachMetrics directs the plan's per-kernel tile counters
// (par.tiles.<kernel>) at a registry. Owner-goroutine only, like every
// other Plan method.
func (pl *Plan) AttachMetrics(reg *obs.Registry) {
	pl.reg = reg
	pl.counters = nil
}

// SetCost installs (or, with nil, removes) the plan's cost probe. Owner-
// goroutine only; the probe's Armed gate keeps the disabled overhead to one
// atomic load per run.
func (pl *Plan) SetCost(p CostProbe) { pl.cost = p }

// count bumps the kernel's tile counter (no-op without a registry).
func (pl *Plan) count(label string, tiles int) {
	if pl.reg == nil {
		return
	}
	c := pl.counters[label]
	if c == nil {
		if pl.counters == nil {
			pl.counters = map[string]*obs.Counter{}
		}
		c = pl.reg.Counter("par.tiles." + label)
		pl.counters[label] = c
	}
	c.Add(int64(tiles))
}

// slotsOf resolves the partition of a sweep box: one plane per slot along
// ax, or a single tile (ax = -1) when no axis can be split. n is the slot
// count either way.
func slotsOf(r Range, frozen int) (ax, n int) {
	if ax = splitAxis(r, frozen); ax >= 0 {
		return ax, r.Ext(ax)
	}
	return -1, 1
}

// Slots returns the number of partition tiles — ordered reduction slots — a
// RunSlots sweep of r writes: the plane count along the split axis. Callers
// size their per-slot accumulators with it.
func (pl *Plan) Slots(r Range) int {
	if r.Empty() {
		return 0
	}
	_, n := slotsOf(r, -1)
	return n
}

// region is one parallel region in flight, by value (tasks carry a copy, so
// starting a region allocates nothing): its units of work execute as
// unit(i, worker).
type region struct {
	label string
	rec   RunRecorder // non-nil: the cost probe times every unit

	item func(item, worker int) // RunItems: unit i is item i

	// Tiled sweeps: unit b is block b of nb over the n planes of r along ax.
	// perSlot calls tile once per plane; otherwise a block of planes arrives
	// as one fat tile.
	tile    func(t Tile, worker int)
	r       Range
	ax      int
	n, nb   int
	perSlot bool
}

func (rg *region) unit(i, worker int) {
	var start time.Time
	if rg.rec != nil {
		start = time.Now()
	}
	if rg.item != nil {
		rg.item(i, worker)
	} else {
		lo, hi := blockSpan(i, rg.nb, rg.n)
		if rg.perSlot {
			for s := lo; s < hi; s++ {
				rg.tile(tileOf(rg.r, rg.ax, s), worker)
			}
		} else {
			rg.tile(planesOf(rg.r, rg.ax, lo, hi, i), worker)
		}
	}
	if rg.rec != nil {
		rg.rec.Tile(i, worker, time.Since(start).Seconds())
	}
}

// box is the index box unit i is labelled with on the profiler timeline
// (zero for items).
func (rg *region) box(i int) Range {
	if rg.item != nil {
		return Range{}
	}
	lo, hi := blockSpan(i, rg.nb, rg.n)
	return planesOf(rg.r, rg.ax, lo, hi, i).Range
}

// execute runs the region's units [0, units) and blocks until all complete:
// inline on the owner when the pool has one worker or there is a single
// unit (the serial fast path), one pool task each otherwise. It is where
// every run meets the tile counters and the cost probe.
func (pl *Plan) execute(rg region, units int) {
	pl.count(rg.label, units)
	if pl.cost != nil && pl.cost.Armed() {
		if rg.rec = pl.cost.BeginRun(rg.label, units); rg.rec != nil {
			defer rg.rec.EndRun()
		}
	}
	if pl.pool.n == 1 || units == 1 {
		for i := 0; i < units; i++ {
			rg.unit(i, 0)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(units)
	for i := 0; i < units; i++ {
		pl.pool.submit(task{rg: rg, i: i, wg: &wg})
	}
	wg.Wait()
}

// sweep is the body of Run, RunFrozen and RunSlots: it schedules the
// partition of r as blocks of consecutive slots (blockCount) and calls fn
// inside each block — once with the block's planes merged into one fat tile
// (Run), or once per plane in ascending order (perSlot).
func (pl *Plan) sweep(label string, r Range, frozen int, perSlot bool, fn func(t Tile, worker int)) {
	if r.Empty() {
		return
	}
	ax, n := slotsOf(r, frozen)
	nb := blockCount(n, pl.pool.n)
	pl.execute(region{label: label, tile: fn, r: r, ax: ax, n: n, nb: nb, perSlot: perSlot}, nb)
}

// Run executes fn over r, blocking until every point is covered exactly
// once. The box is cut into blocks of consecutive planes along the split
// axis — about blocksPerWorker per pool worker — and fn receives each block
// as one fat tile (Index numbers the blocks) with the executing worker's
// index; tiles write disjoint outputs, so no ordering is imposed between
// them. The block count follows the pool size, so fn must not accumulate
// anything whose bits matter per tile: bodies that fill ordered slots use
// RunSlots. label names the kernel for the pool's per-worker timers and the
// tile counters.
func (pl *Plan) Run(label string, r Range, fn func(t Tile, worker int)) {
	pl.sweep(label, r, -1, false, fn)
}

// RunFrozen is Run with one axis exempt from tiling — for kernels whose
// body must hold the full extent of that axis in every tile.
func (pl *Plan) RunFrozen(label string, r Range, frozen int, fn func(t Tile, worker int)) {
	pl.sweep(label, r, frozen, false, fn)
}

// RunSlots executes fn once per partition tile of r — one plane along the
// split axis — with Tile.Index the tile's position in the deterministic
// partition order, in ascending order within each scheduled block. The tile
// set and its order never depend on the pool size, so per-tile results
// written to slot Tile.Index (Slots sizes the array) and folded in ascending
// index order are bitwise identical at any worker count; only the grouping
// of tiles into scheduled blocks follows the pool.
func (pl *Plan) RunSlots(label string, r Range, fn func(t Tile, worker int)) {
	pl.sweep(label, r, -1, true, fn)
}

// RunItems executes fn for every item index in [0, n) — the degenerate
// 1-D decomposition used for per-field work such as halo pack/unpack,
// where each item already writes a disjoint region. Item sweeps route
// through the cost probe like tiled runs do, so halo pack/unpack and
// RK-update work has rows in the cost record instead of being invisible to
// the sampler.
func (pl *Plan) RunItems(label string, n int, fn func(item, worker int)) {
	if n > 0 {
		pl.execute(region{label: label, item: fn}, n)
	}
}

// String describes the plan (diagnostics).
func (pl *Plan) String() string {
	return fmt.Sprintf("par.Plan{workers: %d}", pl.pool.n)
}
