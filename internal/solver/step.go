package solver

import (
	"math"

	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/deriv"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/insitu"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/prof"
	"github.com/s3dgo/s3d/internal/rk"
)

// Advance integrates the block forward by nSteps steps of size dt using the
// six-stage fourth-order low-storage Runge–Kutta scheme (paper §2.6) and
// applies the tenth-order filter at the configured cadence.
func (b *Block) Advance(nSteps int, dt float64) {
	for s := 0; s < nSteps; s++ {
		b.StepOnce(dt)
	}
}

// StepOnce advances a single time step, panicking on an unrecoverable
// state (the historical contract; StepChecked returns it as an error).
func (b *Block) StepOnce(dt float64) {
	if err := b.StepChecked(dt); err != nil {
		panic(err)
	}
}

// StepChecked advances a single time step and, when a health watchdog is
// armed, evaluates the physics invariants at the end of the step,
// returning a *health.Violation instead of panicking when the run has
// gone bad. A kernel fault mid-step (NaN density, failed temperature
// inversion) does not interrupt the step: the faulting rank completes the
// step's full communication pattern with the faulted cells skipped, so in
// decomposed runs no neighbour deadlocks, and every rank grades the run's
// sample from the end-of-step fold, so all ranks agree on the abort.
// Without an armed watchdog the per-step health cost is a nil check plus at
// most one atomic load.
func (b *Block) StepChecked(dt float64) error {
	if inj := b.inj; inj != nil && b.Step+1 >= inj.step {
		b.Q[iRhoE].Set(inj.i, inj.j, inj.k, math.NaN())
		b.inj = nil
	}
	b.inStep = true
	// One atomic load per step when analysis is installed but disabled.
	b.aDue = b.analysis != nil && b.analysis.Due(b.Step+1)
	// Likewise for the cost layer; a due step opens the collection window:
	// the plan's ledger then holds this step's runs.
	b.costDue = b.costC != nil && b.costC.Due(b.Step+1)
	if b.costDue {
		b.costArm()
	}
	// And for the critpath analyzer: a due step records comm envelopes and
	// ends in a cross-rank deposit barrier.
	b.critDue = b.critA != nil && b.critA.Due(b.Step+1)
	if b.critDue {
		b.critArm()
	}
	scheme := rk.RK46NL
	nStages := scheme.Stages()
	if len(b.StageWall) != nStages {
		b.StageWall = make([]float64, nStages)
	}
	var stageStart int64
	rhsCall := 0
	stepSpan := b.profT.Begin("STEP")
	stepOpen := true
	defer func() {
		if stepOpen {
			stepSpan.End()
		}
	}()
	// Zero the 2N accumulation registers: the dQ bank is one contiguous
	// arena run, so this is a single stride-1 sweep.
	for i := range b.dqBank {
		b.dqBank[i] = 0
	}
	scheme.Drive(b.Time, dt, func(stageTime float64) {
		stageStart = prof.Now()
		rhsCall++
		b.critStage(rhsCall)
		// The heat-release integral piggybacks on the final stage's
		// chemistry in the flux sweep (see telemetry.go); a due analysis
		// step needing heat release requests the same collection.
		b.collectHRR = (b.telemetryOn || (b.aDue && b.analysis.WantHeatRelease())) &&
			rhsCall == nStages
		// An armed watchdog grades the final stage's diffusivities.
		b.diffDue = rhsCall == nStages && b.watch != nil && b.watch.Armed()
		rhsSpan := b.profT.BeginAt("RHS", stageStart)
		b.EvalRHS(stageTime)
		rhsSpan.End()
	}, func(stage int, a, bb, _ float64) {
		reg := b.beginRegion("RK_UPDATE")
		b.rkUpdateBank(a, bb, dt)
		b.StageWall[stage] = float64(reg.End()-stageStart) / 1e9
	})
	b.collectHRR, b.diffDue = false, false
	b.Step++
	b.Time += dt
	if fe := b.cfg.FilterEvery; fe > 0 && b.Step%fe == 0 {
		b.ApplyFilter()
	}
	b.inStep = false
	// Close the STEP span before the end-of-step reductions: the critpath
	// deposit snapshots the track, and an event records only at End, so a
	// still-open STEP would vanish from blame's top-level coverage.
	stepOpen = false
	stepSpan.End()
	if err := b.foldStep(dt); err != nil {
		return err
	}
	// The cost record and the critpath deposit follow the fold's clean
	// verdict, so an aborted step publishes none; the deposit barrier runs
	// last, so its record reflects the step's full communication pattern.
	b.costStep()
	b.critStep()
	return nil
}

// foldStep ends an armed or analysed step in its one collective: the
// step-end sweep's row — the watchdog's health row and a due analysis
// step's products with the heat-release slot — folds over the ranks in
// ascending rank order, every rank grades the run's sample — the same
// verdict, the same step to return from — and the analysis record
// publishes only after a clean verdict. The sweep and the fold are charged
// to HEALTH when the watchdog is armed, to ANALYSIS otherwise.
func (b *Block) foldStep(dt float64) error {
	armed, due := b.watch != nil && b.watch.Armed(), b.aDue
	b.aDue = false
	nh, n := 0, 0
	if armed {
		nh, n = hLen, hLen
	}
	if due {
		n += b.analysis.TotalSlots() + 1
	}
	if n == 0 {
		return nil
	}
	region := "HEALTH"
	if !armed {
		region = "ANALYSIS"
	}
	// merge folds row src into dst: tiles in ascending tile order, ranks in
	// ascending rank order.
	merge := func(dst, src []float64) {
		if armed {
			mergeHealth(dst[:nh], src[:nh])
		}
		if due {
			t := n - 1 // the heat-release slot
			b.analysis.MergeVec(dst[nh:t], src[nh:t])
			dst[t] += src[t]
		}
	}
	reg := b.beginRegion(region)
	row := b.stepEndRow(region, nh, n, merge)
	if err := b.cart.Comm.AllreduceOrdered(row, merge); err != nil {
		panic(err) // converted to a Run error by comm's rank recovery
	}
	var viol *health.Violation
	if armed {
		viol = b.healthVerdict(row[:nh], dt)
	}
	reg.End()
	if viol != nil {
		return viol
	}
	if due {
		reg := b.beginRegion("ANALYSIS")
		b.publishAnalysis(row[nh:])
		reg.End()
	}
	return nil
}

// stepEndRow runs the step-end sweep and returns this rank's fold row of n
// slots: one RunSlots pass over the interior whose cell loop adds every
// cell to its tile's health row (the first nh slots; nh is 0 when the
// watchdog is disarmed) and to its tile's analysis accumulators (the slots
// up to the last, when the step is due), then one merge of the tile rows in
// ascending tile order. The fault word and the heat-release slot are set
// last: this rank's kernel fault and the final RK stage's integral.
func (b *Block) stepEndRow(label string, nh, n int, merge func(dst, src []float64)) []float64 {
	r := b.interior()
	tiles := b.plan.Slots(r)
	if cap(b.fold) < n*(1+tiles) {
		b.fold = make([]float64, n*(1+tiles))
	}
	row, slots := b.fold[:n], b.fold[n:n*(1+tiles)]
	rank := float64(b.Rank())
	var hc healthCells
	if nh > 0 {
		hc = b.healthCells()
	}
	var ops []insitu.BoundOp
	if n > nh {
		ops = b.analysis.Ops()
	}
	wx, wy, wz := b.volW[0], b.volW[1], b.volW[2]
	b.plan.RunSlots(label, r, func(t par.Tile, _ int) {
		tr := slots[t.Index*n : (t.Index+1)*n]
		var h *hRow
		if nh > 0 {
			h = (*hRow)(tr[:nh])
			h.reset(rank)
		}
		acc := tr[nh:]
		for _, op := range ops {
			op.Op.Init(acc[op.Off:op.End])
		}
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				idx := b.Rho.Idx(t.Lo[0], j, k)
				wyz := wy[j] * wz[k]
				for i := t.Lo[0]; i < t.Hi[0]; i++ {
					vol := wx[i] * wyz
					if h != nil {
						gc := [3]float64{float64(i + b.i0), float64(j + b.j0), float64(k + b.k0)}
						hc.add(h, idx, &gc, vol)
					}
					for oi := range ops {
						ops[oi].Kern(acc[ops[oi].Off:ops[oi].End], idx, vol)
					}
					idx++
				}
			}
		}
	})

	copy(row, slots[:n])
	for t := 1; t < tiles; t++ {
		merge(row, slots[t*n:(t+1)*n])
	}
	if nh > 0 && b.fault != nil {
		row[hFault] = rank + 1
	}
	if n > nh {
		row[n-1] = b.hrrAcc
	}
	return row
}

// rkUpdateBank advances the RK 2N registers: dq ← a·dq + dt·rhs and
// q ← q + bb·dq. The Q/dQ/rhs banks are per-register arena runs, so the
// update is one stride-1 loop per register over the full storage — no tile
// bookkeeping, no per-field indexing. Covering the ghost layers is bitwise
// safe: rhs ghosts are never written (they hold exact zeros from
// allocation), so dq stays zero there and q is unchanged; interior points
// see exactly the per-point arithmetic of the former interior-tiled update,
// which no chunking can alter.
func (b *Block) rkUpdateBank(a, bb, dt float64) {
	per := b.fs.FieldLen()
	b.plan.RunItems("RK_UPDATE", b.nvar, func(v, _ int) {
		lo := v * per
		rkUpdateRegister(b.qBank[lo:lo+per], b.dqBank[lo:lo+per], b.rhsBank[lo:lo+per], a, bb, dt)
	})
}

// rkUpdateRegister advances one register: dq[i] = a·dq[i] + dt·r[i];
// q[i] += b·dq[i], for i over its full storage. q, dq, r have equal length.
func rkUpdateRegister(q, dq, r []float64, a, b, dt float64) {
	for i := range dq {
		dq[i] = a*dq[i] + dt*r[i]
		q[i] += b * dq[i]
	}
}

// RKUpdateBankOnly runs one register update with representative RK46NL
// coefficients (benchmark hook for benchmark/'s solver.rk_update_us_per_gp).
func (b *Block) RKUpdateBankOnly(dt float64) { b.rkUpdateBank(-0.7, 0.5, dt) }

// ApplyFilter applies the tenth-order low-pass filter to every conserved
// field along every active axis (paper §2.6: an eleven-point explicit filter
// removes spurious high-frequency fluctuations). Each pass writes through
// the rhs bank, dead between steps (the next stage's divergence rewrites its
// interior before anything reads it): a tile filters a variable's box of Q
// into rhs and copies it straight back. FilterRange and CopyRange touch the
// tile box alone, so the rhs ghosts stay the exact zeros rkUpdateBank relies
// on.
func (b *Block) ApplyFilter() {
	defer b.beginRegion("FILTER").End()
	sigma := b.cfg.FilterStrength
	if sigma <= 0 {
		sigma = 1
	}
	r := b.interior()
	for _, d := range b.active {
		a := grid.Axis(d)
		// The pass along a reads ghosts along a alone; they are refilled
		// here because the earlier passes changed the interior they mirror.
		var along haloLists
		along[d] = b.haloQ[d]
		b.exchangeHalos(along, tagConserved)
		lo, hi := b.lohi(a)
		// Every tile holds whole lines along a, the only axis the stencil
		// reaches along, so a tile's copy-back overwrites no Q value another
		// tile still reads.
		b.plan.RunFrozen("FILTER", r, d, func(t par.Tile, _ int) {
			for v, q := range b.Q {
				deriv.FilterRange(b.rhs[v], q, a, sigma, lo, hi, t.Lo, t.Hi)
				q.CopyRange(b.rhs[v], t.Lo, t.Hi)
			}
		})
	}
}

// RefreshPrimitives recomputes the primitive fields from the current
// conserved state: recovery over the interior, then the primitive halo
// exchange, which fills the ghost face slabs the flux stage reads with the
// owner's values. The RHS begins with it; between steps it serves
// diagnostics.
func (b *Block) RefreshPrimitives() {
	b.computePrimitives()
	b.exchangeHalos(b.haloPrim, tagPrimitive)
}

// GlobalDt returns the acoustic time step reduced across all ranks.
func (b *Block) GlobalDt() float64 {
	v := []float64{b.AcousticDt()}
	b.cart.Comm.Allreduce(comm.Min, v)
	return v[0]
}

// RunParallel decomposes the configuration over a dims[0]×dims[1]×dims[2]
// process grid and runs body on every rank's freshly constructed block.
func RunParallel(cfg *Config, dims [3]int, body func(b *Block)) error {
	if err := CheckDecomposition(cfg, dims); err != nil {
		return err
	}
	w := comm.NewWorld(dims[0] * dims[1] * dims[2])
	return w.Run(func(c *comm.Comm) {
		cart, err := comm.NewCart(c, dims, periodicAxes(cfg))
		if err != nil {
			panic(err)
		}
		blk, err := NewParallel(cfg, cart)
		if err != nil {
			panic(err)
		}
		body(blk)
	})
}
