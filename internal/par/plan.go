package par

import (
	"fmt"
	"sync"
	"time"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/prof"
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

// Ledger is one kernel's measured execution on a plan since the last
// ResetLedger: every unit of every run (a scheduled block or an item), each
// timed once by the two prof.Now stamps the unit takes around its body.
// Busy is the units' summed wall time, WorkerBusy its split over the pool's
// workers (one entry per worker) and MaxUnit the longest unit.
type Ledger struct {
	Runs, Units   int
	Busy, MaxUnit time.Duration
	WorkerBusy    []time.Duration

	tiles *obs.Counter // par.tiles.<kernel>; nil without a registry
}

// stamp is one unit's measurement: its start and end on the prof.Now clock
// and the worker that ran it.
type stamp struct {
	t0, t1 int64
	worker int
}

// Plan schedules one block's kernels over a pool. A Plan has a single
// owner goroutine (the rank driving the block); only the pool behind it is
// shared, and its runs never nest. Its ledger, stamp buffer, barrier and
// metric handles are therefore unguarded: the workers write disjoint stamp
// slots, which the owner reads after the barrier.
type Plan struct {
	pool *Pool

	reg      *obs.Registry
	ledger   map[string]*Ledger // per kernel label, lazy
	stamps   []stamp            // the run in flight's unit stamps, grown on demand
	lastBusy time.Duration
	wg       sync.WaitGroup // the run in flight's barrier
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
	for label, e := range pl.ledger {
		e.tiles = pl.counter(label)
	}
}

// counter is the kernel's tile counter in the attached registry (nil
// without one).
func (pl *Plan) counter(label string) *obs.Counter {
	if pl.reg == nil {
		return nil
	}
	return pl.reg.Counter("par.tiles." + label)
}

// Ledger returns the kernel's ledger entry, nil when no run of it has been
// booked on the plan. The entry is read-only to callers and changes with
// the kernel's next run; owner goroutine only.
func (pl *Plan) Ledger(label string) *Ledger { return pl.ledger[label] }

// ResetLedger zeroes every kernel's entry, keeping its buffers and counter
// handle, so the ledger covers the runs from now on.
func (pl *Plan) ResetLedger() {
	for _, e := range pl.ledger {
		clear(e.WorkerBusy)
		*e = Ledger{WorkerBusy: e.WorkerBusy, tiles: e.tiles}
	}
}

// LastBusy returns the busy time, summed over its units, of the plan's
// last run.
func (pl *Plan) LastBusy() time.Duration { return pl.lastBusy }

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
// unit(i, worker), each writing its stamp to stamps[i].
type region struct {
	label  string
	stamps []stamp

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
	t0 := prof.Now()
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
	rg.stamps[i] = stamp{t0: t0, t1: prof.Now(), worker: worker}
}

// execute runs the region's units [0, units) and blocks until all complete:
// inline on the owner when the pool has one worker or there is a single
// unit (the serial fast path), one pool task each otherwise. Then it books
// the run (book).
func (pl *Plan) execute(rg region, units int) {
	if cap(pl.stamps) < units {
		pl.stamps = make([]stamp, units)
	}
	rg.stamps = pl.stamps[:units]
	if pl.pool.n == 1 || units == 1 {
		for i := 0; i < units; i++ {
			rg.unit(i, 0)
		}
	} else {
		pl.wg.Add(units)
		for i := 0; i < units; i++ {
			pl.pool.submit(task{rg: rg, i: i, wg: &pl.wg})
		}
		pl.wg.Wait()
	}
	pl.book(rg.label, rg.stamps)
}

// book folds one run's unit stamps into the kernel's ledger entry, created
// on the kernel's first run, and its tile counter, and keeps the run's busy
// time for LastBusy.
func (pl *Plan) book(label string, st []stamp) {
	e := pl.ledger[label]
	if e == nil {
		if pl.ledger == nil {
			pl.ledger = map[string]*Ledger{}
		}
		e = &Ledger{WorkerBusy: make([]time.Duration, pl.pool.n), tiles: pl.counter(label)}
		pl.ledger[label] = e
	}
	var busy time.Duration
	for _, s := range st {
		d := time.Duration(s.t1 - s.t0)
		busy += d
		e.MaxUnit = max(e.MaxUnit, d)
		e.WorkerBusy[s.worker] += d
	}
	e.Runs++
	e.Units += len(st)
	e.Busy += busy
	pl.lastBusy = busy
	if e.tiles != nil {
		e.tiles.Add(int64(len(st)))
	}
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
// RunSlots. label names the kernel for the plan's ledger, the tile counters
// and the worker tracks.
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
// where each item already writes a disjoint region. Each item is one unit:
// timed and booked like a block, so halo pack/unpack and the RK update have
// ledger entries (and rows in the cost record) like the tiled sweeps.
func (pl *Plan) RunItems(label string, n int, fn func(item, worker int)) {
	if n > 0 {
		pl.execute(region{label: label, item: fn}, n)
	}
}

// String describes the plan (diagnostics).
func (pl *Plan) String() string {
	return fmt.Sprintf("par.Plan{workers: %d}", pl.pool.n)
}
