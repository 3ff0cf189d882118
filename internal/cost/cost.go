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
//   - Units. The block's kernel plan times every unit it schedules once
//     (par.Ledger); the solver resets the plan's ledger at the window's open
//     and Snapshot reads it at the close, so every run and unit of the
//     window is measured: unit max and mean, per-worker busy time.
//
// Records carry wall-clock and vary run to run; a record describes its own
// rank (who waited on whom across ranks is internal/critpath's answer).
package cost

import (
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

// MeasuredKernel is one kernel's wall-clock statistics over a collection
// window. Runs and Tiles count the window's plan runs and their units
// (scheduled blocks or items); RegionS is the kernel's exclusive
// region-timer seconds over the window (exact, from the solver's always-on
// timers, less the shares charged out of them; DIVERGENCE's is the
// DERIVATIVES timer). MaxTileS, MeanTileS, Imbalance (max/mean) and WorkerS
// (busy seconds per pool worker) come from the plan's per-unit times.
type MeasuredKernel struct {
	Kernel    string    `json:"kernel"`
	Runs      int       `json:"runs"`
	Tiles     int       `json:"tiles"`
	RegionS   float64   `json:"region_s"`
	MaxTileS  float64   `json:"max_tile_s"`
	MeanTileS float64   `json:"mean_tile_s"`
	Imbalance float64   `json:"imbalance"`
	WorkerS   []float64 `json:"worker_busy_s,omitempty"`
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

// Collector publishes one block's cost records. Cadence, enable flag,
// subscribers, the latest record, gauges and the GET /cost handler are the
// embedded obs.Lane; the measurements are the block plan's (Snapshot). The
// solver holds one per block.
type Collector struct {
	obs.Lane[Record]
}

// NewCollector creates a collector publishing every `every` steps (values
// below 1 select every step).
func NewCollector(every int) *Collector {
	return &Collector{Lane: obs.NewLane[Record](every, setGauges)}
}

// Snapshot renders the window — pl's ledger since its last ResetLedger — as
// a record's rows, in Kernels order; kernels with neither plan runs nor
// region time are omitted. regionS carries each kernel's region-timer
// seconds over the window (aligned with Kernels). Owner goroutine of pl
// only.
func (c *Collector) Snapshot(pl *par.Plan, regionS []float64) []MeasuredKernel {
	var out []MeasuredKernel
	for i, k := range Kernels {
		mk := MeasuredKernel{Kernel: k, RegionS: regionS[i]}
		if e := pl.Ledger(k); e != nil && e.Runs > 0 {
			mk.Runs, mk.Tiles = e.Runs, e.Units
			mk.MaxTileS = e.MaxUnit.Seconds()
			mk.MeanTileS = e.Busy.Seconds() / float64(e.Units)
			mk.WorkerS = make([]float64, len(e.WorkerBusy))
			for w, d := range e.WorkerBusy {
				mk.WorkerS[w] = d.Seconds()
			}
		} else if !(mk.RegionS > 0) {
			continue
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
