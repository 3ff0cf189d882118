package solver

// The solver side of the run-health watchdog (internal/health): the
// step-end sweep (step.go) fills a health row per step from fields the RHS
// already computed, tiled kernels record would-be panics as structured
// faults instead of killing pool workers, and the ranks' rows fold into the
// run's sample in the step's one ordered collective, so every rank reaches
// the same verdict on the same step and none is left blocked in a halo
// exchange its neighbour will never complete.

import (
	"math"

	"github.com/s3dgo/s3d/internal/health"
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
// rank must install and arm its watchdog at the same point: an armed step's
// health row rides the end-of-step fold, whose layout must match across
// ranks.
func (b *Block) InstallWatchdog(w *health.Watchdog) {
	b.watch = w
	if w != nil {
		w.SetSliceSource(b.healthSlice)
	}
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
// (happens-before), so the healthy path never touches the lock. Every
// tiled kernel sweeps the interior, so the local cell maps to the global
// one by the block's offset.
func (b *Block) recordFault(check, quantity string, value float64, i, j, k int, msg string) {
	step := b.Step
	if b.inStep {
		step++ // the step being computed, matching the end-of-step sample
	}
	cell := [3]int{i + b.i0, j + b.j0, k + b.k0}
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

// nanInjection is the test hook behind InjectNaNAt.
type nanInjection struct{ step, i, j, k int }

// InjectNaNAt plants a NaN into the conserved energy at local cell
// (i, j, k) at the start of step number step — a test hook for the
// watchdog, flight recorder and cross-rank abort paths.
func (b *Block) InjectNaNAt(step, i, j, k int) {
	b.inj = &nanInjection{step: step, i: i, j: j, k: k}
}

// The health row is one step's watchdog accumulator, flat, so a tile's
// row, a rank's merged row and the run's folded row are one layout that
// mergeHealth merges: the NaN census (count, first cell i/j/k, its
// conserved variable or -1, its rank), the mass and energy integrals, the
// fault word (1 + the lowest rank whose kernels faulted, 0 for none), then
// nExt extrema of five slots (value, global cell i/j/k, owning rank).
const (
	hNaN, hNaNCell, hNaNVar, hNaNRank = 0, 1, 4, 5
	hMass, hEnergy, hFault, hExt      = 6, 7, 8, 9
	hLen                              = hExt + 5*nExt
)

// The extrema: four minima, their maxima, then the largest clipped mass
// fraction, signal speed |u|+|v|+|w|+c and diffusivity.
const (
	eRhoMin, eRhoMax = iota, iota + 4
	eTMin, eTMax
	ePMin, ePMax
	eYMin, eYMax
	eYClip, eSpeed, eDiff, nExt = 8, 9, 10, 11
)

type hRow [hLen]float64

// better reports whether v beats held as extremum e.
func better(e int, v, held float64) bool {
	return e < eRhoMax && v < held || e >= eRhoMax && v > held
}

// take records v at global cell c as extremum e when it beats the one held.
func (r *hRow) take(e int, v float64, c *[3]float64) {
	if o := hExt + 5*e; better(e, v, r[o]) {
		r[o], r[o+1], r[o+2], r[o+3] = v, c[0], c[1], c[2]
	}
}

// mergeHealth folds health row src into dst: counts and integrals add, the
// first non-finite cell and the first fault stay, a better extremum
// replaces the held one with its cell and rank. Tiles merge in ascending
// tile order and ranks fold in ascending rank order, so sums and
// tie-breaks are bitwise deterministic for any worker and rank count.
func mergeHealth(dst, src []float64) {
	d, s := (*hRow)(dst), (*hRow)(src)
	if d[hNaN] == 0 && s[hNaN] > 0 {
		copy(d[hNaNCell:hMass], s[hNaNCell:hMass])
	}
	d[hNaN] += s[hNaN]
	d[hMass] += s[hMass]
	d[hEnergy] += s[hEnergy]
	if d[hFault] == 0 {
		d[hFault] = s[hFault]
	}
	for e, o := 0, hExt; e < nExt; e, o = e+1, o+5 {
		if better(e, s[o], d[o]) {
			copy(d[o:o+5], s[o:o+5])
		}
	}
}

// conservedQuantity names conserved variable v for violations: the
// registry's stable checkpoint name of the v-th conserved register (the Q
// bank occupies ids [0, nvar) by registration order).
func (b *Block) conservedQuantity(v int) string {
	return b.fs.Meta(v).Ckpt
}

// healthCells is what the health cell body reads: the data slices of the
// conserved variables and of the primitives, hoisted out of the step-end
// sweep's cell loop (the armed watchdog budget is 2% of a full step).
// Primitives are sampled as the final RK stage left them (the same
// convention as the telemetry extrema), and so is the diffusivity
// max(μ/ρ, maxₙ Dₙ) that stage's flux rows stored (diff_max); the NaN scan
// and the integrals see the end-of-step conserved state.
type healthCells struct {
	q                   [][]float64 // the conserved variables
	u, v, w, p, t, dmax []float64
	ns                  int
}

func (b *Block) healthCells() healthCells {
	c := healthCells{q: make([][]float64, b.nvar), ns: b.ns,
		u: b.U.Data, v: b.V.Data, w: b.W.Data, p: b.P.Data, t: b.T.Data, dmax: b.diffMax.Data}
	for v, f := range b.Q {
		c.q[v] = f.Data
	}
	return c
}

// reset starts a tile's health row on rank: no non-finite cell, every
// minimum at +Inf, its maximum at −Inf, the clip, speed and diffusivity
// maxima at 0.
func (a *hRow) reset(rank float64) {
	*a = hRow{hNaNVar: -1, hNaNRank: rank}
	for e, o := 0, hExt; e < nExt; e, o = e+1, o+5 {
		if e < eYClip { // minima from +Inf, their maxima from -Inf
			a[o] = math.Inf(1 - 2*(e/eRhoMax))
		}
		a[o+4] = rank
	}
}

// add folds the cell at flat index idx — global cell gc, quadrature volume
// vol — into a: NaN scan of the conserved state, primitive extrema with
// locations, unclipped mass-fraction bounds, the CFL signal speed and
// diffusivity, and the conserved volume integrals.
func (c *healthCells) add(a *hRow, idx int, gc *[3]float64, vol float64) {
	// NaN/Inf scan of every conserved variable: x−x is 0 for finite x, NaN
	// for NaN and ±Inf.
	for v, q := range c.q {
		if val := q[idx]; val-val != 0 {
			if a[hNaN] == 0 {
				copy(a[hNaNCell:hNaNVar], gc[:])
				a[hNaNVar] = float64(v)
			}
			a[hNaN]++
		}
	}

	rho := c.q[iRho][idx]
	a.take(eRhoMin, rho, gc)
	a.take(eRhoMax, rho, gc)
	T := c.t[idx]
	a.take(eTMin, T, gc)
	a.take(eTMax, T, gc)
	p := c.p[idx]
	a.take(ePMin, p, gc)
	a.take(ePMax, p, gc)

	a[hMass] += rho * vol
	a[hEnergy] += c.q[iRhoE][idx] * vol

	if rho <= 0 {
		return
	}
	inv := 1 / rho
	sum, clip := 0.0, 0.0
	for n := 0; n < c.ns-1; n++ {
		y := c.q[iY0+n][idx] * inv
		a.take(eYMin, y, gc)
		a.take(eYMax, y, gc)
		sum += y
		if y < 0 {
			clip -= y
		}
	}
	yLast := 1 - sum
	a.take(eYMin, yLast, gc)
	a.take(eYMax, yLast, gc)
	if yLast < 0 {
		clip -= yLast
	}
	a.take(eYClip, clip, gc)

	if p > 0 {
		s := math.Abs(c.u[idx]) + math.Abs(c.v[idx]) + math.Abs(c.w[idx]) +
			math.Sqrt(health.AcousticGamma*p*inv)
		a.take(eSpeed, s, gc)
		a.take(eDiff, c.dmax[idx], gc)
	}
}

// healthVerdict grades the run's folded health row on this rank. Every
// rank builds the identical sample — the CFL numbers divide the folded
// signal speeds by the global grid's minimum spacing over the run's active
// axes — and grades it with identical hysteresis state, so every rank
// returns the same rule violation. A kernel fault is this rank's own, or
// Remote naming the lowest peer whose kernels faulted.
func (b *Block) healthVerdict(row []float64, dt float64) *health.Violation {
	r := (*hRow)(row)
	cell := func(o int) [3]int { return [3]int{int(r[o]), int(r[o+1]), int(r[o+2])} }
	ext := func(e int) health.Extremum {
		o := hExt + 5*e
		return health.Extremum{V: health.F(r[o]), Cell: cell(o + 1), Rank: int(r[o+4])}
	}
	s := health.Sample{
		Step: b.Step, Time: health.F(b.Time), Dt: health.F(dt),
		NaNCount: int(r[hNaN]), NaNCell: cell(hNaNCell), NaNRank: int(r[hNaNRank]),
		RhoMin: ext(eRhoMin), RhoMax: ext(eRhoMax),
		TMin: ext(eTMin), TMax: ext(eTMax),
		PMin: ext(ePMin), PMax: ext(ePMax),
		YMin: ext(eYMin), YMax: ext(eYMax), YClip: ext(eYClip),
		CFLAcoustic: ext(eSpeed), CFLDiffusive: ext(eDiff),
		Mass: health.F(r[hMass]), Energy: health.F(r[hEnergy]),
	}
	if v := int(r[hNaNVar]); v >= 0 {
		s.NaNQuantity = b.conservedQuantity(v)
	}
	h := b.cfg.Grid.MinSpacing()
	s.CFLAcoustic.V = health.F(dt * float64(s.CFLAcoustic.V) / h)
	s.CFLDiffusive.V = health.F(2 * float64(len(b.active)) * dt * float64(s.CFLDiffusive.V) / (h * h))
	fault := b.fault
	if w := r[hFault]; fault == nil && w > 0 {
		fault = health.Remote(int(w)-1, b.Step)
	}
	return b.watch.Evaluate(&s, fault)
}

// healthSlice captures the flight-recorder field slice: the temperature
// mid-z plane, downsampled to at most health.SliceResolution points per
// axis.
func (b *Block) healthSlice() health.Slice {
	const maxN = health.SliceResolution
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
