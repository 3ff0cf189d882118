package solver

// The solver side of the run-health watchdog (internal/health): a fused
// interior sweep fills a health.Sample per step from fields the RHS
// already computed, tiled kernels record would-be panics as structured
// faults instead of killing pool workers, and decomposed runs agree on
// abort through an allreduce'd status word so no rank is left blocked in
// a halo exchange its neighbour will never complete.

import (
	"math"

	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/par"
)

// Rank returns this block's rank (0 for serial runs).
func (b *Block) Rank() int { return b.cart.Comm.Rank() }

// Ranks returns the number of ranks in the run (1 for serial).
func (b *Block) Ranks() int { return b.cart.Comm.Size() }

// InstallWatchdog attaches a health watchdog to the block. While the
// watchdog is armed, StepChecked evaluates the physics invariants at the
// end of every step and returns a *health.Violation instead of panicking;
// kernels that would panic record a fault the evaluation reports. Pass
// nil to detach (restoring the panic behaviour). In decomposed runs every
// rank must install and arm its watchdog at the same point: an armed step
// adds two small collectives (the global mass/energy sums and the abort
// status word), which must match across ranks.
func (b *Block) InstallWatchdog(w *health.Watchdog) {
	b.watch = w
	if w == nil {
		return
	}
	b.hMin = b.G.MinSpacing()
	b.hSlots = make([]hAcc, b.plan.Slots(b.interior()))
	maxN := w.Config().SliceMax
	w.SetSliceSource(func() health.Slice { return b.healthSlice(maxN) })
}

// Watchdog returns the installed watchdog (nil when none).
func (b *Block) Watchdog() *health.Watchdog { return b.watch }

// watchArmed reports whether faults should become violations rather than
// panics. Called only on the fault path, so its atomic load costs nothing
// on healthy steps.
func (b *Block) watchArmed() bool { return b.watch != nil && b.watch.Armed() }

// recordFault captures the first would-be panic of a tiled kernel as a
// structured violation. Workers record under a mutex; the owner reads
// b.fault without locking after the kernel's WaitGroup barrier
// (happens-before), so the healthy path never touches the lock.
// Primitive sweeps cover ghost layers, so the first cell to fault may be a
// periodic (or halo) image of the bad cell; the global coordinates wrap to
// the owning interior cell.
func (b *Block) recordFault(check, quantity string, value float64, i, j, k int, msg string) {
	step := b.Step
	if b.inStep {
		step++ // the step being computed, matching the end-of-step sample
	}
	g := b.cfg.Grid
	cell := [3]int{
		wrapCell(i+b.i0, g.Nx),
		wrapCell(j+b.j0, g.Ny),
		wrapCell(k+b.k0, g.Nz),
	}
	b.faultMu.Lock()
	if b.fault == nil {
		b.fault = &health.Violation{
			Check: check, Rank: b.Rank(), Step: step,
			Cell:     cell,
			Quantity: quantity, Value: health.F(value), Message: msg,
		}
	}
	b.faultMu.Unlock()
}

// wrapCell maps a global coordinate that may lie in a ghost image back into
// [0, n).
func wrapCell(x, n int) int {
	if n <= 0 {
		return x
	}
	x %= n
	if x < 0 {
		x += n
	}
	return x
}

// nanInjection is the test hook behind InjectNaNAt.
type nanInjection struct{ step, i, j, k int }

// InjectNaNAt plants a NaN into the conserved energy at local cell
// (i, j, k) at the start of step number step — a test hook for the
// watchdog, flight recorder and cross-rank abort paths.
func (b *Block) InjectNaNAt(step, i, j, k int) {
	b.inj = &nanInjection{step: step, i: i, j: j, k: k}
}

// hExt tracks one extremum and the global cell attaining it.
type hExt struct {
	v float64
	c [3]int
}

// hAcc is one tile's health accumulator. Tiles write disjoint slots;
// the owner merges them in ascending tile order so the mass/energy sums
// are bitwise deterministic for any worker count (the same ordered-slot
// scheme as Plan.RunReduce).
type hAcc struct {
	nan     int
	nanCell [3]int
	nanVar  int

	rhoMin, rhoMax hExt
	tMin, tMax     hExt
	pMin, pMax     hExt
	yMin, yMax     hExt
	yClip          hExt
	speed, diff    hExt

	mass, energy float64
}

// conservedQuantity names conserved variable v for violations: the
// registry's stable checkpoint name of the v-th conserved register (the Q
// bank occupies ids [0, nvar) by registration order).
func (b *Block) conservedQuantity(v int) string {
	return b.fs.Meta(v).Ckpt
}

// healthSample runs the fused health sweep over the interior: NaN scan of
// the conserved state, primitive extrema with locations, unclipped
// mass-fraction bounds, CFL estimates and the conserved volume integrals.
// Primitives are sampled as the final RK stage left them (the same
// convention as the telemetry extrema); the NaN scan and the integrals
// see the end-of-step conserved state.
func (b *Block) healthSample(dt float64) health.Sample {
	r := b.interior()
	gamma := b.watch.Config().Gamma
	slots := b.hSlots // one per partition plane of the interior (InstallWatchdog)
	qr, qe := b.Q[iRho].Data, b.Q[iRhoE].Data
	ur, vr, wr, pr, tr := b.U.Data, b.V.Data, b.W.Data, b.P.Data, b.T.Data
	ns, nvar := b.ns, b.nvar
	// Hoist the per-variable data slices out of the per-cell loops: the
	// sweep reads every conserved field at every cell, and the armed
	// watchdog budget is 2% of a full step.
	qd := make([][]float64, nvar)
	for v := 0; v < nvar; v++ {
		qd[v] = b.Q[v].Data
	}
	mur := b.Mu.Data
	dd := make([][]float64, ns)
	for nsp := 0; nsp < ns; nsp++ {
		dd[nsp] = b.D[nsp].Data
	}
	wx, wy, wz := b.volW[0], b.volW[1], b.volW[2]
	b.plan.RunSlots("HEALTH", r, func(t par.Tile, _ int) {
		a := &slots[t.Index]
		*a = hAcc{
			nanVar: -1,
			rhoMin: hExt{v: math.Inf(1)}, rhoMax: hExt{v: math.Inf(-1)},
			tMin: hExt{v: math.Inf(1)}, tMax: hExt{v: math.Inf(-1)},
			pMin: hExt{v: math.Inf(1)}, pMax: hExt{v: math.Inf(-1)},
			yMin: hExt{v: math.Inf(1)}, yMax: hExt{v: math.Inf(-1)},
		}
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				idx := b.Rho.Idx(t.Lo[0], j, k)
				wyz := wy[j] * wz[k]
				for i := t.Lo[0]; i < t.Hi[0]; i++ {
					gc := [3]int{i + b.i0, j + b.j0, k + b.k0}

					// NaN/Inf scan of every conserved variable: x−x is 0
					// for finite x, NaN for NaN and ±Inf.
					for v := 0; v < nvar; v++ {
						val := qd[v][idx]
						if val-val != 0 {
							if a.nan == 0 {
								a.nanCell, a.nanVar = gc, v
							}
							a.nan++
						}
					}

					rho := qr[idx]
					a.rhoMin.take(rho, gc, rho < a.rhoMin.v)
					a.rhoMax.take(rho, gc, rho > a.rhoMax.v)
					T := tr[idx]
					a.tMin.take(T, gc, T < a.tMin.v)
					a.tMax.take(T, gc, T > a.tMax.v)
					p := pr[idx]
					a.pMin.take(p, gc, p < a.pMin.v)
					a.pMax.take(p, gc, p > a.pMax.v)

					vol := wx[i] * wyz
					a.mass += rho * vol
					a.energy += qe[idx] * vol

					if rho > 0 {
						inv := 1 / rho
						sum, clip := 0.0, 0.0
						for nsp := 0; nsp < ns-1; nsp++ {
							y := qd[iY0+nsp][idx] * inv
							a.yMin.take(y, gc, y < a.yMin.v)
							a.yMax.take(y, gc, y > a.yMax.v)
							sum += y
							if y < 0 {
								clip -= y
							}
						}
						yLast := 1 - sum
						a.yMin.take(yLast, gc, yLast < a.yMin.v)
						a.yMax.take(yLast, gc, yLast > a.yMax.v)
						if yLast < 0 {
							clip -= yLast
						}
						a.yClip.take(clip, gc, clip > a.yClip.v)

						if p > 0 {
							s := math.Abs(ur[idx]) + math.Abs(vr[idx]) + math.Abs(wr[idx]) +
								math.Sqrt(gamma*p*inv)
							a.speed.take(s, gc, s > a.speed.v)
							d := mur[idx] * inv
							for nsp := 0; nsp < ns; nsp++ {
								if dv := dd[nsp][idx]; dv > d {
									d = dv
								}
							}
							a.diff.take(d, gc, d > a.diff.v)
						}
					}
					idx++
				}
			}
		}
	})

	// Merge in ascending tile order (deterministic sums and tie-breaks).
	m := slots[0]
	for si := 1; si < len(slots); si++ {
		s := &slots[si]
		if m.nan == 0 && s.nan > 0 {
			m.nanCell, m.nanVar = s.nanCell, s.nanVar
		}
		m.nan += s.nan
		m.rhoMin.merge(s.rhoMin, s.rhoMin.v < m.rhoMin.v)
		m.rhoMax.merge(s.rhoMax, s.rhoMax.v > m.rhoMax.v)
		m.tMin.merge(s.tMin, s.tMin.v < m.tMin.v)
		m.tMax.merge(s.tMax, s.tMax.v > m.tMax.v)
		m.pMin.merge(s.pMin, s.pMin.v < m.pMin.v)
		m.pMax.merge(s.pMax, s.pMax.v > m.pMax.v)
		m.yMin.merge(s.yMin, s.yMin.v < m.yMin.v)
		m.yMax.merge(s.yMax, s.yMax.v > m.yMax.v)
		m.yClip.merge(s.yClip, s.yClip.v > m.yClip.v)
		m.speed.merge(s.speed, s.speed.v > m.speed.v)
		m.diff.merge(s.diff, s.diff.v > m.diff.v)
		m.mass += s.mass
		m.energy += s.energy
	}

	out := health.Sample{
		Step: b.Step, Time: health.F(b.Time), Dt: health.F(dt),
		NaNCount: m.nan, NaNCell: m.nanCell,
		RhoMin: ext(m.rhoMin), RhoMax: ext(m.rhoMax),
		TMin: ext(m.tMin), TMax: ext(m.tMax),
		PMin: ext(m.pMin), PMax: ext(m.pMax),
		YMin: ext(m.yMin), YMax: ext(m.yMax), YClip: ext(m.yClip),
		Mass: health.F(m.mass), Energy: health.F(m.energy),
	}
	if m.nanVar >= 0 {
		out.NaNQuantity = b.conservedQuantity(m.nanVar)
	}
	dim := 0
	for a := 0; a < 3; a++ {
		if b.G.Dim(grid.Axis(a)) > 1 {
			dim++
		}
	}
	out.CFLAcoustic = health.Extremum{V: health.F(dt * m.speed.v / b.hMin), Cell: m.speed.c}
	out.CFLDiffusive = health.Extremum{
		V: health.F(2 * float64(dim) * dt * m.diff.v / (b.hMin * b.hMin)), Cell: m.diff.c,
	}
	return out
}

// take replaces the extremum when better is true.
func (e *hExt) take(v float64, c [3]int, better bool) {
	if better {
		e.v, e.c = v, c
	}
}

// merge folds another tile's extremum in when better is true.
func (e *hExt) merge(o hExt, better bool) {
	if better {
		*e = o
	}
}

func ext(e hExt) health.Extremum { return health.Extremum{V: health.F(e.v), Cell: e.c} }

// healthCheck evaluates the armed watchdog at the end of a step. It first
// reduces the conserved integrals globally, then allreduces a (level,
// rank+1) status word so every rank returns from the same step: the
// faulting rank completed the step's full communication pattern before this
// point, so no neighbour is left blocked.
func (b *Block) healthCheck(dt float64) error {
	reg := b.beginRegion("HEALTH")
	s := b.healthSample(dt)
	v := []float64{float64(s.Mass), float64(s.Energy)}
	b.cart.Comm.Allreduce(comm.Sum, v)
	s.Mass, s.Energy = health.F(v[0]), health.F(v[1])
	viol := b.watch.Evaluate(&s, b.fault)
	reg.End()
	word := []float64{0, 0}
	if viol != nil {
		word[0], word[1] = float64(health.Fatal), float64(b.Rank()+1)
	}
	b.cart.Comm.Allreduce(comm.Max, word)
	if viol == nil && word[0] >= float64(health.Fatal) {
		viol = health.Remote(int(word[1])-1, b.Step)
		b.watch.NoteRemote(viol)
	}
	if viol != nil {
		return viol
	}
	return nil
}

// healthSlice captures the flight-recorder field slice: the temperature
// mid-z plane, downsampled to at most maxN points per axis.
func (b *Block) healthSlice(maxN int) health.Slice {
	nx, ny := b.G.Nx, b.G.Ny
	kMid := b.G.Nz / 2
	sx, sy := (nx+maxN-1)/maxN, (ny+maxN-1)/maxN
	if sx < 1 {
		sx = 1
	}
	if sy < 1 {
		sy = 1
	}
	onx, ony := (nx+sx-1)/sx, (ny+sy-1)/sy
	sl := health.Slice{Name: "T@z=mid", Nx: onx, Ny: ony, Data: make([]health.F, 0, onx*ony)}
	for j := 0; j < ny; j += sy {
		for i := 0; i < nx; i += sx {
			sl.Data = append(sl.Data, health.F(b.T.At(i, j, kMid)))
		}
	}
	return sl
}
