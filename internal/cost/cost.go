// Package cost is the spatial cost-attribution and load-imbalance layer:
// the observability substrate of the paper's fig. 3 load-balance study. It
// is an observer — nothing in the solver acts on its records (DESIGN.md,
// "Why there is no dynamic balancer"). It answers "where in the domain does
// the time go, and what would a better tiling buy?" with two complementary
// signals:
//
//   - A deterministic work proxy. Chemistry dominates S3D's spatially
//     varying cost, and its stiffness is a pure function of the cell state:
//     reactor.SubstepRate yields the per-cell substep demand an adaptive
//     integrator would pay — a model: this solver's explicit chemistry
//     sweep costs the same in every cell. The solver evaluates it with the
//     species relative-change limit only (dTdt = 0): it reuses the
//     concentrations and production rates the RHS sweep already holds, and
//     the trace-radical species limits dominate the temperature term for
//     stiff cells anyway. Summed per tile (ordered slots) and folded
//     cross-rank in ascending rank order (comm.AllreduceOrdered), the proxy
//     yields per-kernel imbalance ratios, per-rank straggler attribution and
//     a greedy re-tiling what-if estimate that are bitwise identical for any
//     worker count — the property cost.jsonl records and cost-density
//     fields are pinned to.
//
//   - Measured wall-clock. Per-kernel totals come from the solver's
//     always-on region timers (their cost is already paid whether or not
//     cost maps are on), passed in as deltas over the collection window. A
//     par.CostProbe installed on the block's Plan adds per-tile detail
//     (tile max, per-worker split) sampled from the first few runs of each
//     kernel per window; beyond that budget BeginRun declines the run, so
//     kernels that issue hundreds of micro-runs per step (the naive
//     diff-flux statement sweeps) cost the armed probe only a counter
//     bump — clocking each of their tiles would cost more than the tiles
//     do. Timings are real but scheduler-noisy, so they stay out of the
//     deterministic record: they surface in the "measured" section of the
//     GET /cost document and the cost_* gauges, where they corroborate (or
//     indict) the proxy.
//
// Determinism contract: Record and everything derived from it (cost.jsonl,
// cost-density fields) depend only on the solution state and the shape-only
// tile decomposition — never on wall-clock, worker count or tile schedule.
// Measured timings never feed a Record.
package cost

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/par"
)

// Kernels is the curated list of interior-sweep kernels every rank executes
// every step, in the fixed order the cross-rank fold vector is laid out in.
// Boundary-only kernels (NSCBC) and non-spatial item sweeps (GHOST_EXCHANGE,
// RK_UPDATE) are excluded: a label only some ranks run would give ranks
// different fold-vector lengths and break the collective.
var Kernels = []string{
	"COMPUTE_PRIMITIVES",
	"COMPUTE_TRANSPORT",
	"DERIVATIVES",
	"COMPUTESPECIESDIFFFLUX",
	"ASSEMBLE_FLUXES",
	"DIVERGENCE",
	"REACTION_RATE_BOUNDS",
	"FILTER",
}

// ChemKernel is the kernel the chemistry substep proxy attributes spatially
// varying cost to; every other curated kernel is modelled as uniform
// (cost ∝ cells).
const ChemKernel = "REACTION_RATE_BOUNDS"

// MeasuredOnly lists the non-spatial item-sweep labels the measured
// wall-clock side channel tracks in addition to Kernels. They never enter
// the deterministic fold — their item counts vary per rank and per step, so
// a fold slot would break the collective's fixed vector length — but their
// run counts and sampled timings belong in the /cost measured section all
// the same (halo pack/unpack wait is exactly the kind of time a cost study
// must not lose).
var MeasuredOnly = []string{
	"GHOST_EXCHANGE",
	"RK_UPDATE",
}

// MeasuredLabels returns the full measured-window label list: the curated
// fold kernels followed by the measured-only item sweeps, in window order.
func MeasuredLabels() []string {
	out := make([]string, 0, len(Kernels)+len(MeasuredOnly))
	out = append(out, Kernels...)
	return append(out, MeasuredOnly...)
}

// measuredIndex maps a plan label to its measured-window slot (-1 when the
// label is not tracked).
func measuredIndex(label string) int {
	for i, k := range Kernels {
		if k == label {
			return i
		}
	}
	for i, k := range MeasuredOnly {
		if k == label {
			return len(Kernels) + i
		}
	}
	return -1
}

// DefaultWhatIfWorkers is the reference worker count the what-if estimator
// evaluates at. It is fixed (not the live pool size) so records are
// independent of the machine the run lands on.
const DefaultWhatIfWorkers = 4

// WhatIf is the greedy cost-weighted re-tiling estimate for one kernel:
// Current is the makespan of the shape-only schedule (contiguous
// equal-count plane spans per worker — what uniform re-tiling yields),
// Greedy the makespan after cost-weighted LPT assignment of the same tiles,
// both at the fixed reference worker count. Reduction = 1 − Greedy/Current
// is the predicted step-time fraction a cost-aware balancer would recover.
type WhatIf struct {
	Workers   int     `json:"workers"`
	Current   float64 `json:"current_makespan"`
	Greedy    float64 `json:"greedy_makespan"`
	Reduction float64 `json:"reduction"`
}

// KernelStat is one kernel's deterministic cost statistics for a step,
// folded across ranks.
type KernelStat struct {
	Kernel string `json:"kernel"`
	// Tiles is the global tile count (summed over ranks).
	Tiles int `json:"tiles"`
	// ProxyTotal is the global work-proxy sum: substep demand for the
	// chemistry kernel, swept cells for uniform kernels.
	ProxyTotal float64 `json:"proxy_total"`
	// MaxTile / MeanTile are the global per-tile extremes of the proxy.
	MaxTile  float64 `json:"max_tile"`
	MeanTile float64 `json:"mean_tile"`
	// Imbalance is MaxTile/MeanTile (1.0 = perfectly balanced tiles).
	Imbalance float64 `json:"imbalance"`
	WhatIf    WhatIf  `json:"what_if"`
}

// Record is the deterministic per-step cost document: the unit cost.jsonl
// appends, subscribers receive and the dashboard lane summarises. It never
// contains wall-clock values.
type Record struct {
	Step    int          `json:"step"`
	Time    float64      `json:"time"`
	Kernels []KernelStat `json:"kernels"`
	// RankTotals is each rank's chemistry work-proxy total, in rank order.
	RankTotals []float64 `json:"rank_totals"`
	// RankImbalance is max/mean over RankTotals; Straggler the argmax rank.
	RankImbalance float64 `json:"rank_imbalance"`
	Straggler     int     `json:"straggler"`
}

// MeasuredKernel is one kernel's wall-clock statistics from the last
// collection window — real, monotonic, and deliberately quarantined from
// Record (timings vary run to run; the proxy does not). Runs and Tiles
// count every plan run of the window; RegionS is the kernel's region-timer
// seconds over the window (exact, from the solver's always-on timers —
// zero for DIVERGENCE, whose sweep shares the DERIVATIVES timer). The
// tile-level statistics (MaxTileS, MeanTileS, Imbalance, WorkerS) come
// from the per-window sample: SampledRuns runs spanning SampledS seconds,
// SampledTiles tiles wide.
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

// Document is the GET /cost body: the latest deterministic record plus the
// measured side channel.
type Document struct {
	Record   *Record          `json:"record,omitempty"`
	Measured []MeasuredKernel `json:"measured,omitempty"`
}

// Collector owns one block's cost sampling: it is the par.CostProbe wall-
// clock sampler, the fan-out hub for deterministic records, and the holder
// of the measured window. The solver holds one per block. Cadence, enable
// flag, subscribers, the latest document, gauges and the GET /cost handler
// are the embedded obs.Lane; disabled, it costs each plan run a single
// atomic load.
type Collector struct {
	obs.Lane[Record, Document]
	whatIfWorkers int

	armed atomic.Bool // collection window open (due step in flight)

	// Window state, indexed by position in MeasuredLabels(). Arm, BeginRun,
	// EndRun and SnapshotMeasured all execute on the plan's owner goroutine
	// (plan runs never nest), so the probe path touches it without locks.
	window []measAgg

	mu       sync.Mutex
	measSnap []MeasuredKernel
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

// NewCollector creates a collector reducing every `every` steps (values
// below 1 select every step) at the default what-if reference worker count.
func NewCollector(every int) *Collector {
	return &Collector{
		Lane:          obs.NewLane[Record](every, setGauges),
		whatIfWorkers: DefaultWhatIfWorkers,
		window:        make([]measAgg, len(Kernels)+len(MeasuredOnly)),
	}
}

// WhatIfWorkers returns the fixed reference worker count of the estimator.
func (c *Collector) WhatIfWorkers() int { return c.whatIfWorkers }

// Arm opens (true) or closes (false) the wall-clock collection window.
// Opening clears the previous window. The solver arms at the start of a due
// step and disarms after reducing, so off-cadence steps pay only the probe's
// Armed() load.
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
	idx := measuredIndex(label)
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
	idx    int // position in MeasuredLabels()
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

// SnapshotMeasured renders the current window as the measured section, in
// measured-label order (curated kernels first, then the measured-only item
// sweeps), and retains it for the next Publish. regionS, when non-nil,
// carries each label's region-timer seconds over the window (aligned with
// MeasuredLabels) — the solver's always-on timers, the exact per-kernel
// totals the sampled probe deliberately does not re-measure. Owner
// goroutine only, like the probe path that fills the window.
func (c *Collector) SnapshotMeasured(regionS []float64) []MeasuredKernel {
	var out []MeasuredKernel
	for i, k := range MeasuredLabels() {
		a := &c.window[i]
		if a.tiles == 0 {
			continue
		}
		mk := MeasuredKernel{
			Kernel: k, Runs: a.runs, Tiles: a.tiles,
			SampledRuns:  a.sampRuns,
			SampledTiles: a.sampTiles,
			SampledS:     a.sampSpan,
			MaxTileS:     a.maxTile,
			WorkerS:      append([]float64(nil), a.workerS...),
		}
		if i < len(regionS) {
			mk.RegionS = regionS[i]
		}
		if a.sampTiles > 0 {
			mk.MeanTileS = a.sampTotal / float64(a.sampTiles)
		}
		if mk.MeanTileS > 0 {
			mk.Imbalance = mk.MaxTileS / mk.MeanTileS
		}
		out = append(out, mk)
	}
	c.mu.Lock()
	c.measSnap = out
	c.mu.Unlock()
	return out
}

// Publish installs the step's deterministic record (paired with the latest
// measured snapshot) as the live document, updates the cost gauges and fans
// the record out to subscribers.
func (c *Collector) Publish(rec Record) {
	c.mu.Lock()
	doc := &Document{Record: &rec, Measured: c.measSnap}
	c.mu.Unlock()
	c.Lane.Publish(rec, doc)
}

// setGauges publishes a document as the cost.<kernel>.imbalance,
// cost.<kernel>.whatif_reduction, cost.<kernel>.measured_imbalance,
// cost.rank_imbalance and cost.straggler gauges (cost_* in /metrics.prom).
func setGauges(reg *obs.Registry, doc *Document) {
	rec := doc.Record
	for _, ks := range rec.Kernels {
		reg.Gauge("cost." + ks.Kernel + ".imbalance").Set(ks.Imbalance)
		reg.Gauge("cost." + ks.Kernel + ".whatif_reduction").Set(ks.WhatIf.Reduction)
	}
	reg.Gauge("cost.rank_imbalance").Set(rec.RankImbalance)
	reg.Gauge("cost.straggler").Set(float64(rec.Straggler))
	for _, mk := range doc.Measured {
		reg.Gauge("cost." + mk.Kernel + ".measured_imbalance").Set(mk.Imbalance)
	}
}

// Estimate runs the re-tiling what-if on one kernel's per-tile costs:
// Current assigns contiguous equal-count tile spans to the reference
// workers (the shape-only schedule); Greedy sorts tiles by cost (descending,
// ties in tile order) and assigns each to the least-loaded worker — the
// classic LPT bound. Pure and deterministic: same costs, same estimate.
func Estimate(costs []float64, workers int) WhatIf {
	if workers < 1 {
		workers = 1
	}
	n := len(costs)
	w := WhatIf{Workers: workers}
	if n == 0 {
		return w
	}
	for g := 0; g < workers; g++ {
		lo, hi := g*n/workers, (g+1)*n/workers
		var s float64
		for _, v := range costs[lo:hi] {
			s += v
		}
		if s > w.Current {
			w.Current = s
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	loads := make([]float64, workers)
	for _, i := range order {
		am := 0
		for g := 1; g < workers; g++ {
			if loads[g] < loads[am] {
				am = g
			}
		}
		loads[am] += costs[i]
	}
	for _, l := range loads {
		if l > w.Greedy {
			w.Greedy = l
		}
	}
	if w.Current > 0 {
		w.Reduction = 1 - w.Greedy/w.Current
	}
	return w
}

// FoldLen returns the cross-rank fold-vector length for a run of `ranks`
// ranks: five slots per curated kernel plus one chemistry-total slot per
// rank. Every rank derives the same length, the precondition of
// comm.AllreduceOrdered.
func FoldLen(ranks int) int { return 5*len(Kernels) + ranks }

// Fold slot layout per kernel k at base 5k:
//
//	+0 tiles (sum)   +1 proxy total (sum)   +2 max tile proxy (max)
//	+3 current makespan (max over ranks)    +4 greedy makespan (max)
//
// followed by the per-rank chemistry totals (sum; each rank writes only its
// own slot).
const slotsPerKernel = 5

// PackFold writes one rank's contribution into vec (length FoldLen(ranks)):
// tileCosts maps curated kernel → this rank's per-tile proxies in ascending
// tile order; chemTotal is the rank's chemistry proxy total.
func PackFold(vec []float64, tileCosts map[string][]float64, chemTotal float64, rank, whatIfWorkers int) {
	for i := range vec {
		vec[i] = 0
	}
	for ki, k := range Kernels {
		costs := tileCosts[k]
		base := slotsPerKernel * ki
		vec[base] = float64(len(costs))
		var total, maxTile float64
		for _, v := range costs {
			total += v
			if v > maxTile {
				maxTile = v
			}
		}
		vec[base+1] = total
		vec[base+2] = maxTile
		wi := Estimate(costs, whatIfWorkers)
		vec[base+3] = wi.Current
		vec[base+4] = wi.Greedy
	}
	vec[slotsPerKernel*len(Kernels)+rank] = chemTotal
}

// CombineFold folds src into dst honouring the slot layout — the combine
// function handed to comm.AllreduceOrdered.
func CombineFold(dst, src []float64) {
	for ki := range Kernels {
		base := slotsPerKernel * ki
		dst[base] += src[base]
		dst[base+1] += src[base+1]
		if src[base+2] > dst[base+2] {
			dst[base+2] = src[base+2]
		}
		if src[base+3] > dst[base+3] {
			dst[base+3] = src[base+3]
		}
		if src[base+4] > dst[base+4] {
			dst[base+4] = src[base+4]
		}
	}
	for i := slotsPerKernel * len(Kernels); i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// Unpack converts a fully folded vector into the step's Record.
func Unpack(vec []float64, step int, time float64, whatIfWorkers int) Record {
	rec := Record{Step: step, Time: time, Kernels: make([]KernelStat, 0, len(Kernels))}
	for ki, k := range Kernels {
		base := slotsPerKernel * ki
		ks := KernelStat{
			Kernel:     k,
			Tiles:      int(vec[base]),
			ProxyTotal: vec[base+1],
			MaxTile:    vec[base+2],
		}
		if ks.Tiles > 0 {
			ks.MeanTile = ks.ProxyTotal / float64(ks.Tiles)
		}
		if ks.MeanTile > 0 {
			ks.Imbalance = ks.MaxTile / ks.MeanTile
		}
		ks.WhatIf = WhatIf{
			Workers: whatIfWorkers,
			Current: vec[base+3],
			Greedy:  vec[base+4],
		}
		if ks.WhatIf.Current > 0 {
			ks.WhatIf.Reduction = 1 - ks.WhatIf.Greedy/ks.WhatIf.Current
		}
		rec.Kernels = append(rec.Kernels, ks)
	}
	rec.RankTotals = append([]float64(nil), vec[slotsPerKernel*len(Kernels):]...)
	var sum, max float64
	for r, v := range rec.RankTotals {
		sum += v
		if v > max {
			max = v
			rec.Straggler = r
		}
	}
	if n := len(rec.RankTotals); n > 0 && sum > 0 {
		rec.RankImbalance = max / (sum / float64(n))
	}
	return rec
}

// Substeps converts a reactor substep rate (1/s) into the per-cell substep
// demand over a step of length dt: at least one substep, plus the rate-
// limited count, clamped so a single runaway cell cannot blow up the map.
func Substeps(rate, dt float64) float64 {
	if !(rate > 0) || !(dt > 0) || math.IsInf(rate, 0) {
		return 1
	}
	s := math.Ceil(rate * dt)
	if s < 1 {
		return 1
	}
	if s > 1e6 {
		return 1e6
	}
	return s
}
