// Package insitu is the science-reduction pipeline of the paper's §8
// workflow, rebuilt for the scale where raw field data cannot leave the
// node: analysis operators (global moments, fixed-bin histograms,
// conditional means ⟨T|Z⟩ and ⟨Y_k|c⟩ with Favre weighting, the |∇c|
// flame-surface integral, reaction-zone volume fractions) are registered
// against solver field-registry names, fused into the solver's tiled
// interior pass the way the health sweep is, and reduced cross-rank so
// every rank agrees on the step's statistics. Only the reduced products —
// a few hundred floats per step — ever leave the solver: to the run trace
// (its analysis records), to the live monitor (GET /analysis, analysis_*
// Prometheus gauges) and to in-process subscribers.
//
// Determinism contract: operators accumulate into per-tile slot rows that
// the owner merges in ascending tile order, and the cross-rank reduction
// folds rank contributions in ascending rank order, so every statistic is
// bitwise reproducible for any worker count and any tile schedule — the
// same ordered-slot discipline as the solver's heat-release fold and the
// health sweep (per-tile slots of a Plan.RunSlots sweep).
package insitu

import (
	"math"

	"github.com/s3dgo/s3d/internal/obs"
)

// Source yields one per-cell value by flat arena index: a registered
// field's storage, or a derived variable (mixture fraction Z, progress c)
// the binding host computes on the fly.
type Source func(idx int) float64

// Binder resolves value sources by name at registration time. The solver
// host resolves registered field names through the field registry; the
// root API layers the derived science variables ("Z", "c") on top.
type Binder interface {
	Source(name string) (Source, error)
}

// Kernel folds one interior cell into an operator's accumulator slice.
// idx is the shared flat arena index of the cell (every registered field
// has identical strides); vol is the cell's quadrature volume.
type Kernel func(acc []float64, idx int, vol float64)

// Operator is one analysis reduction. Its accumulator is a fixed-length
// slice of float64 slots; Init/Merge define the slot semantics so the same
// Merge serves both the ordered tile merge and the ordered rank merge.
type Operator interface {
	// Name labels the operator instance ("T", "T|Z", "flame_surface").
	Name() string
	// Slots returns the accumulator length.
	Slots() int
	// Bind resolves the operator's inputs against the host's fields and
	// returns the per-cell kernel. Binding errors (unknown field, bad
	// bounds) surface at EnableAnalysis time, never mid-run.
	Bind(b Binder) (Kernel, error)
	// Init resets an accumulator slice before a sweep.
	Init(acc []float64)
	// Merge folds src into dst. Must be associative over ordered folds.
	Merge(dst, src []float64)
	// Finish converts a fully merged accumulator into the step's product.
	Finish(acc []float64) Product
}

// Product is one operator's finished result for a step. Scalar statistics
// live in Scalars; binned operators carry their axis and per-bin values.
// All values are sanitized to finite floats (JSON cannot carry NaN/Inf;
// arm the health watchdog to catch non-finite fields at the source).
type Product struct {
	Op      string             `json:"op"`   // operator kind: moments, hist, cond, gradmag, volfrac, scalar
	Name    string             `json:"name"` // instance label
	Scalars map[string]float64 `json:"scalars,omitempty"`
	Lo      float64            `json:"lo,omitempty"` // binned axis range
	Hi      float64            `json:"hi,omitempty"`
	Bins    []float64          `json:"bins,omitempty"`   // per-bin values (means / probabilities)
	Counts  []float64          `json:"counts,omitempty"` // per-bin sample counts
}

// Record is the full analysis document of one step — the payload of the run
// trace's analysis record, what the monitor serves and subscribers receive.
type Record struct {
	Step     int       `json:"step"`
	Time     float64   `json:"time"`
	Products []Product `json:"products"`
}

// BoundOp is one registered operator with its kernel and its slot range in
// the pipeline's concatenated accumulator vector.
type BoundOp struct {
	Op       Operator
	Kern     Kernel
	Off, End int
}

// Pipeline owns the registered operator set and the fan-out of finished
// records. The solver holds one per block. Cadence, enable flag, subscribers,
// the latest record, gauges and the GET /analysis handler are the embedded
// obs.Lane: a disabled pipeline costs the step loop a single atomic load.
type Pipeline struct {
	obs.Lane[Record]
	wantHRR bool

	ops   []BoundOp
	total int
}

// NewPipeline creates an empty pipeline reducing every `every` steps
// (values below 1 select every step).
func NewPipeline(every int) *Pipeline {
	return &Pipeline{Lane: obs.NewLane[Record](every, setGauges)}
}

// setGauges publishes a record's scalars as analysis.<name>.<scalar>; they
// appear in /metrics.prom as analysis_<name>_<scalar>.
func setGauges(reg *obs.Registry, rec *Record) {
	for _, pr := range rec.Products {
		for k, v := range pr.Scalars {
			reg.Gauge("analysis." + pr.Name + "." + k).Set(v)
		}
	}
}

// SetHeatRelease requests the heat-release volume integral as an extra
// scalar product (the host piggybacks it on its chemistry rows).
func (p *Pipeline) SetHeatRelease(on bool) { p.wantHRR = on }

// WantHeatRelease reports whether the heat-release scalar was requested.
func (p *Pipeline) WantHeatRelease() bool { return p.wantHRR }

// Register binds an operator against the host and appends it to the set.
// Call before the first step; the slot layout is append-only.
func (p *Pipeline) Register(op Operator, b Binder) error {
	kern, err := op.Bind(b)
	if err != nil {
		return err
	}
	off := p.total
	p.total += op.Slots()
	p.ops = append(p.ops, BoundOp{Op: op, Kern: kern, Off: off, End: p.total})
	return nil
}

// Ops returns the bound operator set in registration order.
func (p *Pipeline) Ops() []BoundOp { return p.ops }

// TotalSlots returns the length of the concatenated accumulator vector.
func (p *Pipeline) TotalSlots() int { return p.total }

// MergeVec folds a full accumulator vector into dst, operator by operator.
// Deterministic for a fixed fold order — the caller folds tiles and ranks
// in ascending order.
func (p *Pipeline) MergeVec(dst, src []float64) {
	for _, bo := range p.ops {
		bo.Op.Merge(dst[bo.Off:bo.End], src[bo.Off:bo.End])
	}
}

// Publish finishes the merged accumulator into the step's record, appends
// any host-supplied extra products (the heat-release scalar), updates the
// attached gauges and fans the record out to subscribers.
func (p *Pipeline) Publish(step int, time float64, acc []float64, extras []Product) Record {
	rec := Record{Step: step, Time: time, Products: make([]Product, 0, len(p.ops)+len(extras))}
	for _, bo := range p.ops {
		rec.Products = append(rec.Products, sanitize(bo.Op.Finish(acc[bo.Off:bo.End])))
	}
	for _, ex := range extras {
		rec.Products = append(rec.Products, sanitize(ex))
	}
	p.Lane.Publish(rec)
	return rec
}

// sanitize clamps non-finite statistics to zero so every record is JSON-
// representable. Analysis must never take the run down; a NaN here means
// the fields themselves have gone bad, which is the health watchdog's job
// to report.
func sanitize(pr Product) Product {
	for k, v := range pr.Scalars {
		if !finite(v) {
			pr.Scalars[k] = 0
		}
	}
	for i, v := range pr.Bins {
		if !finite(v) {
			pr.Bins[i] = 0
		}
	}
	for i, v := range pr.Counts {
		if !finite(v) {
			pr.Counts[i] = 0
		}
	}
	return pr
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
