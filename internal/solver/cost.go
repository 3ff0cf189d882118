package solver

// The solver side of the cost-attribution sampler (internal/cost): a due
// step opens a collection window — the plan's probe counts and samples the
// tracked kernels' tiles, the always-on region timers are baselined — and
// costStep closes it and publishes what was measured. Nothing here feeds
// the state, and a record is this rank's own window: publishing needs no
// collective.

import "github.com/s3dgo/s3d/internal/cost"

// InstallCost attaches a cost collector to the block and its kernel plan
// (pass nil to detach).
func (b *Block) InstallCost(c *cost.Collector) {
	b.costC = c
	b.cRegionBase = nil
	if c == nil {
		b.plan.SetCost(nil)
		return
	}
	b.plan.SetCost(c)
	b.cRegionBase = make([]float64, len(cost.Kernels))
}

// Cost returns the installed collector (nil when none).
func (b *Block) Cost() *cost.Collector { return b.costC }

// costRegionSeconds fills out (aligned with cost.Kernels) with each
// kernel's exclusive region-timer seconds so far. The DIVERGENCE sweep runs
// under the DERIVATIVES timer; each fused sweep's timer keeps what it does
// not charge to REACTION_RATE_BOUNDS (flux sweep) or NSCBC (divergence).
func (b *Block) costRegionSeconds(out []float64) {
	for i, k := range cost.Kernels {
		if k == "DIVERGENCE" {
			k = "DERIVATIVES"
		}
		out[i] = 0
		if r := b.Timers.Region(k); r != nil {
			out[i] = r.Exclusive.Seconds()
		}
	}
}

// costArm opens the collection window for the step about to run: it arms
// the plan probe and baselines the always-on region timers, so costStep can
// hand the collector exact per-kernel wall totals for the window without
// the probe re-measuring them.
func (b *Block) costArm() {
	b.costC.Arm(true)
	b.costRegionSeconds(b.cRegionBase)
}

// costStep closes a due step's window and publishes its record. Runs after
// the end-of-step fold's clean verdict, so an aborted step publishes
// nothing.
func (b *Block) costStep() {
	if !b.costDue {
		return
	}
	b.costDue = false
	reg := b.beginRegion("COST")
	c := b.costC
	regionS := make([]float64, len(cost.Kernels))
	b.costRegionSeconds(regionS)
	for i := range regionS {
		regionS[i] -= b.cRegionBase[i]
	}
	rows := c.Snapshot(regionS)
	c.Arm(false)
	c.Publish(cost.Record{Step: b.Step, Time: b.Time, Kernels: rows})
	reg.End()
}
