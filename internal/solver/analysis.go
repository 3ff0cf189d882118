package solver

// The solver side of the in-situ analysis pipeline (internal/insitu): the
// registered operators run as one fused sweep over the interior — one tile
// pass, one flat index shared by every registered field — into ordered
// per-tile accumulator rows the owner merges in ascending tile order, then
// reduces cross-rank in ascending rank order. The statistics are therefore
// bitwise identical for any worker count and any rank count, the same
// contract the health sweep keeps.

import (
	"github.com/s3dgo/s3d/internal/insitu"
	"github.com/s3dgo/s3d/internal/par"
)

// InstallAnalysis attaches a fully registered pipeline to the block. Call
// after every Register; the slot layout is frozen here (per-tile rows plus
// the merged vector with its trailing heat-release slot). Pass nil to
// detach. In decomposed runs every rank must install an identically
// configured pipeline at the same point: a due step adds one collective,
// which must match across ranks.
func (b *Block) InstallAnalysis(p *insitu.Pipeline) {
	b.analysis = p
	b.aSlots, b.aSub, b.aAcc = nil, nil, nil
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
	b.aAcc = make([]float64, total+1) // +1: the piggybacked heat-release integral
}

// Analysis returns the installed pipeline (nil when none).
func (b *Block) Analysis() *insitu.Pipeline { return b.analysis }

// analysisStep runs the fused reduction sweep for a due step: tile pass,
// ordered tile merge, ordered cross-rank reduction, publish. Runs after
// the health check passed, so all ranks reach it on the same step.
func (b *Block) analysisStep() {
	if !b.aDue {
		return
	}
	b.aDue = false
	p := b.analysis
	reg := b.beginRegion("ANALYSIS")
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
	acc := b.aAcc
	copy(acc[:total], b.aSlots[0])
	for _, row := range b.aSlots[1:] {
		p.MergeVec(acc[:total], row)
	}
	acc[total] = b.hrrAcc

	// Ascending rank order, so decomposed statistics are run-to-run
	// reproducible too.
	if err := b.cart.Comm.AllreduceOrdered(acc, func(dst, src []float64) {
		p.MergeVec(dst[:total], src[:total])
		dst[total] += src[total]
	}); err != nil {
		panic(err) // converted to a Run error by comm's rank recovery
	}

	var extras []insitu.Product
	if p.WantHeatRelease() {
		extras = []insitu.Product{{
			Op:   "scalar",
			Name: "heat_release",
			Scalars: map[string]float64{
				"watts": acc[total],
			},
		}}
	}
	p.Publish(b.Step, b.Time, acc[:total], extras)
	reg.End()
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

// UnknownFieldError reports an analysis subscription against a field name
// absent from the registry.
type UnknownFieldError struct{ Name string }

func (e *UnknownFieldError) Error() string {
	return "solver: no registered field " + e.Name + " (see the /fields inventory for valid names)"
}
