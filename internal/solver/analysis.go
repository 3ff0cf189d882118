package solver

// The solver side of the in-situ analysis pipeline (internal/insitu): the
// registered operators' kernels run in the step-end sweep (step.go) — one
// tile pass shared with the health row, one flat index shared by every
// registered field — into ordered per-tile accumulator rows the owner
// merges in ascending tile order; the end-of-step fold reduces the rows
// cross-rank in ascending rank order beside the health row. The statistics
// are therefore bitwise identical for any worker count and any rank count,
// the same contract the health row keeps.

import (
	"github.com/s3dgo/s3d/internal/deriv"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/insitu"
)

// InstallAnalysis attaches a fully registered pipeline to the block. Call
// after every Register: a due step's fold row carries the pipeline's
// accumulator vector with a trailing heat-release slot. Pass nil to detach.
// In decomposed runs every rank must install an identically configured
// pipeline at the same point: a due step's products ride the end-of-step
// fold, whose layout must match across ranks.
func (b *Block) InstallAnalysis(p *insitu.Pipeline) { b.analysis = p }

// Analysis returns the installed pipeline (nil when none).
func (b *Block) Analysis() *insitu.Pipeline { return b.analysis }

// publishAnalysis finishes the run's folded analysis row into the step's
// record.
func (b *Block) publishAnalysis(row []float64) {
	p := b.analysis
	total := p.TotalSlots()
	var extras []insitu.Product
	if p.WantHeatRelease() {
		extras = []insitu.Product{{Op: "scalar", Name: "heat_release", Scalars: map[string]float64{"watts": row[total]}}}
	}
	p.Publish(b.Step, b.Time, row[:total], extras)
}

// fieldBinder resolves insitu sources against the block's field registry.
// Every registered field shares the arena's index mapping, so a source is
// a direct read of the field's storage at the sweep's flat index.
type fieldBinder struct{ b *Block }

// NewBinder returns an insitu.Binder over the block's registered fields.
func (b *Block) NewBinder() insitu.Binder { return fieldBinder{b} }

// Source implements insitu.Binder.
func (fb fieldBinder) Source(name string) (insitu.Source, error) {
	f := fb.b.FieldByName(name)
	if f == nil {
		return nil, &UnknownFieldError{Name: name}
	}
	data := f.Data
	return func(idx int) float64 { return data[idx] }, nil
}

// DerivSource returns an insitu source evaluating ∂f/∂x_a at the sweep's
// flat index with DiffRow and the block's closures: the RHS's own bits, as
// at fold time the primitives are still the final RK stage's.
func (b *Block) DerivSource(f *grid.Field3, a int) insitu.Source {
	ax := grid.Axis(a)
	met := b.G.Metric(ax)
	lo, hi := b.lohi(ax)
	_, sj, sk := f.Strides()
	origin := f.Idx(0, 0, 0)
	return func(idx int) float64 {
		r := idx - origin
		k, j, i := r/sk, r%sk/sj, r%sk%sj
		var d [1]float64
		deriv.DiffRow(d[:], f, ax, met, lo, hi, i, i+1, j, k, deriv.OpSet)
		return d[0]
	}
}

// UnknownFieldError reports an analysis subscription against a field name
// absent from the registry.
type UnknownFieldError struct{ Name string }

func (e *UnknownFieldError) Error() string {
	return "solver: no registered field " + e.Name + " (see the /fields inventory for valid names)"
}
