// Package par is the node-level parallel execution layer: a process-wide
// worker pool plus per-block execution plans that decompose a kernel's
// index space into tiles made of whole unit-stride x-rows and run kernel
// closures over them.
//
// It reproduces, in Go, the node-level half of the paper's §3 optimisation
// story: once the dominant S3D kernels (reaction rates, diffusive fluxes,
// derivative sweeps) are restructured for locality, the remaining wall is
// keeping every core of the node busy on them. The pool is shared by all
// in-process ranks of a decomposed run, so a fixed worker budget is divided
// fairly across ranks exactly as OpenMP threads were divided across MPI
// ranks in the hybrid experiments of figure 3.
//
// Two grains, kept apart. The partition of a sweep box — one tile per plane
// along the slowest splittable axis — depends only on the index-space shape,
// never on the worker count; a reduction's RunSlots body writes one partial
// sum per partition tile into an ordered slot, and the caller folds the
// slots in tile order. The
// scheduling grain is coarser: a plan hands the pool blocks of consecutive
// partition tiles, about four per worker, and a slot-free kernel body (Run)
// receives each block as one fat tile of many rows. Kernel bodies compute
// each point identically whatever tile it arrives in, so the block grouping
// — the one thing that follows the pool size — cannot reach a result bit.
//
// Determinism contract: solutions and every ordered reduction are bitwise
// identical for any pool size, which keeps restart files, regression
// baselines and the paper-reproduction numbers stable whatever hardware the
// run lands on.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/prof"
)

// task is one scheduled unit of a parallel region — a block of tiles or an
// item — handed to a worker.
type task struct {
	rg region
	i  int
	wg *sync.WaitGroup
}

// Pool is a fixed set of worker goroutines executing kernel tiles. One
// process-wide pool (see Default) is shared by every in-process rank; tests
// and benchmarks may build dedicated pools with NewPool and must Close them.
//
// A Pool with a single worker never schedules: plans execute tiles inline
// on the calling goroutine, preserving the serial fast path.
type Pool struct {
	n      int
	tasks  chan task
	wg     sync.WaitGroup
	busy   atomic.Int64
	closed atomic.Bool

	// Metric handles are attached after construction (AttachMetrics) and
	// read by workers, hence the atomic pointers. Nil handles are skipped.
	busyG  atomic.Pointer[obs.Gauge]
	pendG  atomic.Pointer[obs.Gauge]
	tilesC atomic.Pointer[obs.Counter]

	// Per-worker profiler tracks (AttachProfiler): each worker records one
	// busy span per scheduled block, labelled by the kernel, on its own
	// timeline — gaps between spans are idle time. Attached once per
	// profiler.
	profTracks atomic.Pointer[[]*prof.Track]
	profMu     sync.Mutex
	profOwner  *prof.Profiler
}

// NewPool builds a dedicated pool with n workers (n < 1 selects one).
// Callers own its lifetime and should Close it when done; the process-wide
// pool from Default needs no Close.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{n: n}
	if n > 1 {
		// Buffered so submitters stream tiles without a rendezvous per tile.
		p.tasks = make(chan task, 4*n)
		p.wg.Add(n)
		for i := 0; i < n; i++ {
			go p.worker(i)
		}
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.n }

// Close shuts the workers down after the queued tiles drain. Only dedicated
// pools need closing; closing twice is a no-op. Close must not race with
// in-flight plan executions.
func (p *Pool) Close() {
	if p.n <= 1 || !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.tasks)
	p.wg.Wait()
}

// AttachMetrics exports the pool's utilization to a registry:
//
//	par.workers        gauge    pool size
//	par.workers_busy   gauge    workers executing a tile right now
//	par.tiles_pending  gauge    tiles queued but not yet picked up
//	par.tiles_total    counter  scheduled blocks and items executed by pool workers
//
// workers_busy below par.workers while tiles_pending is zero is starvation
// (too few tiles, or a straggler holding the barrier); a persistent pending
// backlog is contention.
//
// Safe to call more than once (ranks sharing a pool attach the same
// registry); the last registry wins.
func (p *Pool) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("par.workers").Set(float64(p.n))
	p.busyG.Store(reg.Gauge("par.workers_busy"))
	p.pendG.Store(reg.Gauge("par.tiles_pending"))
	p.tilesC.Store(reg.Counter("par.tiles_total"))
}

// AttachProfiler gives every pool worker its own timeline track
// (prof.GroupWorker) on which the worker records one busy span per
// executed tile, labelled by the kernel. Safe to call more than once with
// the same profiler (ranks sharing a pool attach the same one): only the
// first call creates tracks. Single-worker pools execute tiles inline on
// the submitting rank's goroutine, so their work already appears inside
// the rank's own spans and no worker tracks are created.
func (p *Pool) AttachProfiler(pr *prof.Profiler) {
	if pr == nil || p.n <= 1 {
		return
	}
	p.profMu.Lock()
	defer p.profMu.Unlock()
	if p.profOwner == pr {
		return
	}
	tracks := make([]*prof.Track, p.n)
	for i := range tracks {
		tracks[i] = pr.NewTrack(prof.GroupWorker, fmt.Sprintf("worker%d", i))
	}
	p.profOwner = pr
	p.profTracks.Store(&tracks)
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for t := range p.tasks {
		nb := p.busy.Add(1)
		if g := p.busyG.Load(); g != nil {
			g.Set(float64(nb))
		}
		if g := p.pendG.Load(); g != nil {
			g.Set(float64(len(p.tasks)))
		}
		var sp prof.Span
		if ts := p.profTracks.Load(); ts != nil {
			tr := (*ts)[id]
			if tr.Recording() {
				// Tag the span with the tile's coordinates so the timeline
				// cross-references the spatial cost maps.
				box := t.rg.box(t.i)
				sp = tr.BeginArgs(t.rg.label, map[string]string{
					"tile": fmt.Sprintf("%d", t.i),
					"lo":   fmt.Sprintf("%d,%d,%d", box.Lo[0], box.Lo[1], box.Lo[2]),
					"hi":   fmt.Sprintf("%d,%d,%d", box.Hi[0], box.Hi[1], box.Hi[2]),
				})
			}
		}
		t.rg.unit(t.i, id)
		sp.End()
		nb = p.busy.Add(-1)
		if g := p.busyG.Load(); g != nil {
			g.Set(float64(nb))
		}
		if c := p.tilesC.Load(); c != nil {
			c.Inc()
		}
		t.wg.Done()
	}
}

// submit enqueues one tile; workers drain the channel concurrently.
func (p *Pool) submit(t task) {
	p.tasks <- t
	if g := p.pendG.Load(); g != nil {
		g.Set(float64(len(p.tasks)))
	}
}

// The process-wide default pool, built lazily on first use so drivers can
// size it (SetDefaultWorkers) before any simulation starts.
var (
	defMu   sync.Mutex
	defPool *Pool
	defSize int // 0 = runtime.NumCPU()
)

// Default returns the process-wide pool, creating it on first use with
// SetDefaultWorkers's size (default runtime.NumCPU()). All in-process ranks
// of a decomposed run share it, so the worker budget is divided fairly
// across ranks.
func Default() *Pool {
	defMu.Lock()
	defer defMu.Unlock()
	if defPool == nil {
		size := defSize
		if size == 0 {
			size = runtime.NumCPU()
		}
		defPool = NewPool(size)
	}
	return defPool
}

// SetDefaultWorkers sizes the process-wide pool (n < 1 restores the
// runtime.NumCPU() default). Call it before simulations start: an existing
// default pool is closed and replaced, which must not race with running
// plans.
func SetDefaultWorkers(n int) {
	defMu.Lock()
	defer defMu.Unlock()
	if n < 1 {
		n = runtime.NumCPU()
	}
	defSize = n
	if defPool != nil && defPool.n != n {
		defPool.Close()
		defPool = nil
	}
}

// DefaultWorkers returns the size the default pool has (or will have when
// first used).
func DefaultWorkers() int {
	defMu.Lock()
	defer defMu.Unlock()
	if defPool != nil {
		return defPool.n
	}
	if defSize > 0 {
		return defSize
	}
	return runtime.NumCPU()
}
