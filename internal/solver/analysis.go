package solver

// The solver side of the in-situ analysis pipeline (internal/insitu): the
// registered operators run as one fused sweep over the interior — one tile
// pass, one flat index shared by every registered field — into ordered
// per-tile accumulator rows the owner merges in ascending tile order; the
// end-of-step fold (step.go) reduces the rows cross-rank in ascending rank
// order beside the health row. The statistics are therefore bitwise
// identical for any worker count and any rank count, the same contract the
// health sweep keeps.

import (
	"github.com/s3dgo/s3d/internal/deriv"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/insitu"
	"github.com/s3dgo/s3d/internal/par"
)

// InstallAnalysis attaches a fully registered pipeline to the block. Call
// after every Register; the slot layout is frozen here (per-tile rows; the
// end-of-step fold carries the merged vector with a trailing heat-release
// slot). Pass nil to detach. In decomposed runs every rank must install an
// identically configured pipeline at the same point: a due step's products
// ride the end-of-step fold, whose layout must match across ranks.
func (b *Block) InstallAnalysis(p *insitu.Pipeline) {
	b.analysis = p
	b.aSlots, b.aSub = nil, nil
	if p == nil {
		return
	}
	n := b.plan.Slots(b.interior())
	total := p.TotalSlots()
	ops := p.Ops()
	b.aSlots = make([][]float64, n)
	b.aSub = make([][][]float64, n)
	for t := 0; t < n; t++ {
		row := make([]float64, total)
		b.aSlots[t] = row
		sub := make([][]float64, len(ops))
		for oi, bo := range ops {
			sub[oi] = row[bo.Off:bo.End]
		}
		b.aSub[t] = sub
	}
}

// Analysis returns the installed pipeline (nil when none).
func (b *Block) Analysis() *insitu.Pipeline { return b.analysis }

// analysisRow runs the fused reduction sweep of a due step into row
// (TotalSlots+1 slots): tile pass, ordered tile merge, then this step's
// heat-release integral in the trailing slot.
func (b *Block) analysisRow(row []float64) {
	p := b.analysis
	r := b.interior()
	ops := p.Ops()
	wx, wy, wz := b.volW[0], b.volW[1], b.volW[2]
	b.plan.RunSlots("ANALYSIS", r, func(t par.Tile, _ int) {
		sub := b.aSub[t.Index]
		for oi := range ops {
			ops[oi].Op.Init(sub[oi])
		}
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				idx := b.Rho.Idx(t.Lo[0], j, k)
				wyz := wy[j] * wz[k]
				for i := t.Lo[0]; i < t.Hi[0]; i++ {
					vol := wx[i] * wyz
					for oi := range ops {
						ops[oi].Kern(sub[oi], idx, vol)
					}
					idx++
				}
			}
		}
	})

	// Merge in ascending tile order (bitwise-deterministic sums).
	total := p.TotalSlots()
	copy(row[:total], b.aSlots[0])
	for _, s := range b.aSlots[1:] {
		p.MergeVec(row[:total], s)
	}
	row[total] = b.hrrAcc
}

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
