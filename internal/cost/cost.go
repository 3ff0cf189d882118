// Package cost is the spatial cost-attribution layer: the observability
// substrate of the paper's figs. 1–3 cost study. It records what was
// measured — nothing in it models work, and nothing in the solver acts on
// its records (DESIGN.md, "Why there is no dynamic balancer"). A record is
// one collection window (one due step) on the publishing rank, one row per
// kernel that ran:
//
//   - Region seconds. The solver's always-on region timers (their cost is
//     paid whether or not cost maps are on) are read at the window's open
//     and close; the difference is the kernel's exclusive time over the
//     window, the paper's fig. 2 currency, so the rows sum to at most the
//     step's wall.
//
//   - A tile sample. A par.CostProbe installed on the block's Plan counts
//     every run and tile of a tracked kernel and clocks the tiles of the
//     first few runs per window (tile max and mean, per-worker split);
//     beyond that budget BeginRun declines the run, so a kernel that issues
//     hundreds of micro-runs per step (as the figure-4 array-statement
//     sweeps did when they ran in the step) costs the armed probe only a
//     counter bump — clocking each of its tiles would cost more than the
//     tiles do.
//
// Records carry wall-clock and vary run to run; a record describes its own
// rank (who waited on whom across ranks is internal/critpath's answer).
package cost

import (
	"sync/atomic"
	"time"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/par"
)

// Kernels lists the kernels a window tracks, in record order: the
// interior-sweep kernels of the RHS and the filter, then the non-spatial
// item sweeps (halo pack/unpack and the RK register update). The chemistry
// is a share charged out of the solver's ASSEMBLE_FLUXES sweep (region time,
// no plan runs); NSCBC and the instrumentation layers' sweeps are untracked.
var Kernels = []string{
	"COMPUTE_PRIMITIVES",
	"ASSEMBLE_FLUXES",
	"DIVERGENCE",
	"REACTION_RATE_BOUNDS",
	"FILTER",
	"GHOST_EXCHANGE",
	"RK_UPDATE",
}

// kernelIndex maps a plan label to its window slot (-1 when the label is
// not tracked).
func kernelIndex(label string) int {
	for i, k := range Kernels {
		if k == label {
			return i
		}
	}
	return -1
}

// MeasuredKernel is one kernel's wall-clock statistics over a collection
// window. Runs and Tiles count every plan run of the window; RegionS is the
// kernel's exclusive region-timer seconds over the window (exact, from the
// solver's always-on timers, less the shares charged out of them;
// DIVERGENCE's is the DERIVATIVES timer). The tile-level statistics (MaxTileS,
// MeanTileS, Imbalance, WorkerS) come from the per-window sample:
// SampledRuns runs spanning SampledS seconds, SampledTiles tiles wide.
type MeasuredKernel struct {
	Kernel       string    `json:"kernel"`
	Runs         int       `json:"runs"`
	Tiles        int       `json:"tiles"`
	RegionS      float64   `json:"region_s"`
	SampledRuns  int       `json:"sampled_runs"`
	SampledTiles int       `json:"sampled_tiles"`
	SampledS     float64   `json:"sampled_s"`
	MaxTileS     float64   `json:"max_tile_s"`
	MeanTileS    float64   `json:"mean_tile_s"`
	Imbalance    float64   `json:"imbalance"`
	WorkerS      []float64 `json:"worker_busy_s,omitempty"`
}

// Record is one due step's cost document: the payload of the run trace's
// cost record, what subscribers receive, GET /cost serves and the dashboard
// lane summarises.
// Kernels holds one row per tracked kernel that ran in the window, in
// Kernels order.
type Record struct {
	Step    int              `json:"step"`
	Time    float64          `json:"time"`
	Kernels []MeasuredKernel `json:"kernels"`
}

// Collector owns one block's cost sampling: it is the par.CostProbe wall-
// clock sampler and the holder of the collection window. The solver holds
// one per block. Cadence, enable flag, subscribers, the latest record,
// gauges and the GET /cost handler are the embedded obs.Lane; disabled, it
// costs each plan run a single atomic load.
type Collector struct {
	obs.Lane[Record]

	armed atomic.Bool // collection window open (due step in flight)

	// Window state, indexed by position in Kernels. Arm, BeginRun, EndRun
	// and Snapshot all execute on the plan's owner goroutine (plan runs
	// never nest), so the probe path touches it without locks.
	window []measAgg
}

// sampleRuns is how many runs per kernel per window carry the per-tile
// sample. The first runs of a window are as representative as any (the
// window opens at a step boundary, so they span the step's first RK stage),
// and a fixed small count caps the armed probe at a handful of clock reads
// per kernel no matter how many micro-runs it issues.
const sampleRuns = 2

// measAgg accumulates one kernel's wall-clock timings for a window.
type measAgg struct {
	runs      int // every run, timed or not
	tiles     int
	sampRuns  int // the tile-timed sample
	sampSpan  float64
	sampTiles int
	sampTotal float64
	maxTile   float64
	workerS   []float64
}

// NewCollector creates a collector publishing every `every` steps (values
// below 1 select every step).
func NewCollector(every int) *Collector {
	return &Collector{
		Lane:   obs.NewLane[Record](every, setGauges),
		window: make([]measAgg, len(Kernels)),
	}
}

// Arm opens (true) or closes (false) the wall-clock collection window.
// Opening clears the previous window. The solver arms at the start of a due
// step and disarms before publishing, so off-cadence steps pay only the
// probe's Armed() load.
func (c *Collector) Arm(on bool) {
	if on {
		for i := range c.window {
			c.window[i] = measAgg{}
		}
	}
	c.armed.Store(on)
}

// Armed implements par.CostProbe: the one-atomic-load fast path.
func (c *Collector) Armed() bool { return c.armed.Load() }

// BeginRun implements par.CostProbe. Every tracked run is counted (runs,
// tiles); the first sampleRuns runs of each kernel per window get a
// recorder with lock-free disjoint per-tile slots written by the workers.
// Past that budget BeginRun returns nil — the plan runs the kernel
// unwrapped, so a micro-run kernel costs the armed probe one label scan
// and two counter bumps per run, no clock reads, no allocation.
func (c *Collector) BeginRun(label string, tiles int) par.RunRecorder {
	idx := kernelIndex(label)
	if idx < 0 {
		return nil
	}
	a := &c.window[idx]
	a.runs++
	a.tiles += tiles
	if a.runs > sampleRuns {
		return nil
	}
	return &runRec{
		c: c, idx: idx,
		start:  time.Now(),
		sec:    make([]float64, tiles),
		worker: make([]int, tiles),
	}
}

type runRec struct {
	c      *Collector
	idx    int // position in Kernels
	start  time.Time
	sec    []float64
	worker []int
}

// Tile records one tile's wall time; tile indices within a run are
// distinct, so the writes are disjoint.
func (r *runRec) Tile(idx, worker int, seconds float64) {
	r.sec[idx] = seconds
	r.worker[idx] = worker
}

// EndRun closes the run's span and folds the sample into the collection
// window (owner goroutine, after the run barrier — no lock needed).
func (r *runRec) EndRun() {
	span := time.Since(r.start).Seconds()
	a := &r.c.window[r.idx]
	a.sampRuns++
	a.sampSpan += span
	for i, s := range r.sec {
		a.sampTiles++
		a.sampTotal += s
		if s > a.maxTile {
			a.maxTile = s
		}
		w := r.worker[i]
		for len(a.workerS) <= w {
			a.workerS = append(a.workerS, 0)
		}
		a.workerS[w] += s
	}
}

// Snapshot renders the current window as a record's rows, in Kernels order;
// kernels with neither plan runs nor region time are omitted. regionS
// carries each kernel's region-timer seconds over the window (aligned with
// Kernels) — the exact per-kernel totals the sampled probe deliberately does
// not re-measure.
// Owner goroutine only, like the probe path that fills the window.
func (c *Collector) Snapshot(regionS []float64) []MeasuredKernel {
	var out []MeasuredKernel
	for i, k := range Kernels {
		a := &c.window[i]
		if a.tiles == 0 && (i >= len(regionS) || !(regionS[i] > 0)) {
			continue
		}
		mk := MeasuredKernel{
			Kernel: k, Runs: a.runs, Tiles: a.tiles,
			RegionS:      regionS[i],
			SampledRuns:  a.sampRuns,
			SampledTiles: a.sampTiles,
			SampledS:     a.sampSpan,
			MaxTileS:     a.maxTile,
			WorkerS:      append([]float64(nil), a.workerS...),
		}
		if a.sampTiles > 0 {
			mk.MeanTileS = a.sampTotal / float64(a.sampTiles)
		}
		if mk.MeanTileS > 0 {
			mk.Imbalance = mk.MaxTileS / mk.MeanTileS
		}
		out = append(out, mk)
	}
	return out
}

// setGauges publishes a record as the cost.<kernel>.measured_imbalance
// gauges (cost_* in /metrics.prom).
func setGauges(reg *obs.Registry, rec *Record) {
	for _, mk := range rec.Kernels {
		reg.Gauge("cost." + mk.Kernel + ".measured_imbalance").Set(mk.Imbalance)
	}
}
