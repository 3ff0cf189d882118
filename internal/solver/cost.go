package solver

// The solver side of the cost-attribution sampler (internal/cost): the
// chemistry work proxy collected by chemSource lands in ordered per-tile
// slots and the cost_chem field; costStep turns them into the per-step cost
// record — canonical per-kernel tile-cost vectors, a cross-rank ordered
// fold, the greedy re-tiling what-if — and refreshes the cost_density map.
// Everything in the record derives from the solution state and the
// shape-only tile decomposition, so cost.jsonl is bitwise identical for any
// worker count; the wall-clock timings the plan's probe gathered stay in
// the measured side channel of the GET /cost document.

import (
	"github.com/s3dgo/s3d/internal/cost"
	"github.com/s3dgo/s3d/internal/par"
)

// InstallCost attaches a cost collector to the block and its kernel plan
// (pass nil to detach). In decomposed runs every rank must install an
// identically configured collector: a due step adds one collective, which
// must match across ranks.
func (b *Block) InstallCost(c *cost.Collector) {
	b.costC = c
	b.cSlots, b.cFold, b.cRegionBase = nil, nil, nil
	if c == nil {
		b.plan.SetCost(nil)
		return
	}
	b.plan.SetCost(c)
	b.cSlots = make([]float64, b.plan.Slots(b.interior()))
	b.cFold = make([]float64, cost.FoldLen(b.Ranks()))
	b.cRegionBase = make([]float64, len(cost.MeasuredLabels()))
}

// costArm opens the collection window for the step about to run: it arms
// the plan probe and baselines the always-on region timers, so the reduce
// can hand the collector exact per-kernel wall totals for the window
// without the probe re-measuring them.
func (b *Block) costArm(dt float64) {
	b.costDt = dt
	b.costC.Arm(true)
	for i, k := range cost.MeasuredLabels() {
		b.cRegionBase[i] = 0
		if r := b.Timers.Region(k); r != nil {
			b.cRegionBase[i] = r.Inclusive.Seconds()
		}
	}
}

// costRegionDeltas returns the per-label region-timer seconds accumulated
// since costArm, aligned with cost.MeasuredLabels. DIVERGENCE shares the
// DERIVATIVES timer, so its slot stays zero and its time lands in the
// DERIVATIVES entry.
func (b *Block) costRegionDeltas() []float64 {
	labels := cost.MeasuredLabels()
	out := make([]float64, len(labels))
	for i, k := range labels {
		if r := b.Timers.Region(k); r != nil {
			out[i] = r.Inclusive.Seconds() - b.cRegionBase[i]
		}
	}
	return out
}

// Cost returns the installed collector (nil when none).
func (b *Block) Cost() *cost.Collector { return b.costC }

// costStep runs the cost reduction for a due step: refresh the cost_density
// map from the chemistry proxy, build the canonical per-kernel tile-cost
// vectors, fold them cross-rank in ascending rank order and publish the
// record plus the measured wall-clock snapshot. Runs after the health check
// passed, so all ranks reach it on the same step.
func (b *Block) costStep() {
	if !b.costDue {
		return
	}
	b.costDue = false
	c := b.costC
	reg := b.beginRegion("COST")
	r := b.interior()
	n := b.plan.Slots(r)

	// cost_density: the per-cell total work proxy. Each uniform kernel
	// contributes one unit per cell; chemistry contributes its substep
	// demand from cost_chem (zero on inert runs).
	base := float64(len(cost.Kernels) - 1)
	b.plan.Run("COST", r, func(t par.Tile, _ int) {
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				for i := t.Lo[0]; i < t.Hi[0]; i++ {
					b.costDensF.Set(i, j, k, base+b.costChemF.At(i, j, k))
				}
			}
		}
	})

	// Canonical per-kernel tile costs over the plane partition: the
	// chemistry kernel carries the per-tile proxy sums (ascending tile order
	// — the slots were written by disjoint tiles; all zero on inert runs);
	// every other curated kernel is modelled as uniform, one unit per swept
	// cell, so its per-tile cost is the cell count of a plane.
	cellsPerTile := float64(r.Ext(0)*r.Ext(1)*r.Ext(2)) / float64(n)
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = cellsPerTile
	}
	tileCosts := make(map[string][]float64, len(cost.Kernels))
	for _, k := range cost.Kernels {
		costs := uniform
		if k == cost.ChemKernel {
			costs = b.cSlots
		}
		tileCosts[k] = costs
	}
	var chemTotal float64
	for _, v := range b.cSlots {
		chemTotal += v
	}

	cost.PackFold(b.cFold, tileCosts, chemTotal, b.Rank(), c.WhatIfWorkers())
	// Ascending rank order, so decomposed records are run-to-run
	// reproducible too.
	if err := b.cart.Comm.AllreduceOrdered(b.cFold, cost.CombineFold); err != nil {
		panic(err) // converted to a Run error by comm's rank recovery
	}
	rec := cost.Unpack(b.cFold, b.Step, b.Time, c.WhatIfWorkers())

	// Close the wall-clock window before publishing so the measured section
	// pairs with this record.
	c.SnapshotMeasured(b.costRegionDeltas())
	c.Arm(false)
	c.Publish(rec)
	reg.End()
}
