package solver

import (
	"time"

	"github.com/s3dgo/s3d/internal/deriv"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/thermo"
)

// gasR is the universal gas constant (J/(mol·K)).
const gasR = thermo.R

// message tag bases of the exchange rounds: the filter's conserved state,
// and the two rounds of each RHS evaluation.
const (
	tagConserved = 0
	tagFlux      = 100
	tagPrimitive = 200
)

// computeRHS evaluates dQ/dt into b.rhs at simulation time t. It performs
// the full S3D right-hand side: primitive recovery over the interior, ghost
// exchange of the primitives the flux stage differentiates, the
// pencil-fused flux stage (transport properties, derivatives, diffusive
// fluxes and the convective + viscous + diffusive flux assembly, one x-row
// at a time), a second ghost exchange of the fluxes, flux divergence,
// chemical source terms and NSCBC boundary corrections. No stage reads a
// ghost cell of Q. Every stage with interior extent runs tiled over the
// block's worker-pool plan.
func (b *Block) computeRHS(t float64) {
	b.RefreshPrimitives()
	b.assembleFluxes()

	b.exchangeHalos(b.haloFlux, tagFlux)

	b.divergence()
	if !b.cfg.ChemistryOff {
		b.chemSource()
	}
	b.applyNSCBC(t)
}

// EvalRHS runs one full right-hand-side evaluation at simulation time t
// (benchmark hook: benchmark/'s solver.rhs_us_per_gp times exactly what an RK
// stage costs).
func (b *Block) EvalRHS(t float64) { b.computeRHS(t) }

// lohi returns the derivative closures for an axis.
func (b *Block) lohi(a grid.Axis) (deriv.BC, deriv.BC) {
	lo, hi := deriv.OneSided, deriv.OneSided
	if b.loGhost[a] {
		lo = deriv.UseGhosts
	}
	if b.hiGhost[a] {
		hi = deriv.UseGhosts
	}
	return lo, hi
}

// interior returns the block's interior index box.
func (b *Block) interior() par.Range {
	return par.Interior(b.G.Nx, b.G.Ny, b.G.Nz)
}

// assembleFluxes is the pencil-fused flux stage. It builds flux[var][dir]
// over the interior for every active direction,
//
//	mass:      ρu_d
//	momentum:  ρu_c·u_d + δ_cd·p − τ_cd                  (paper eqs. 2, 14)
//	energy:    u_d(ρe₀+p) − (τ·u)_d + q_d               (paper eqs. 3, 20)
//	species:   ρY_n·u_d + J_nd                           (paper eq. 4)
//
// with q = −λ∇T + Σ hₙ·Jₙ, one interior x-row at a time in the worker's row
// scratch (fluxRow): derivative rows, then transport and diffusive-flux
// rows, then the flux rows — the only values stored, because the flux halo
// exchange and the divergence read them. No gradient, transport or J field
// exists.
func (b *Block) assembleFluxes() {
	defer b.beginRegion("ASSEMBLE_FLUXES").End()
	b.plan.Run("ASSEMBLE_FLUXES", b.interior(), func(t par.Tile, worker int) {
		ws := &b.ws[worker]
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				b.fluxRow(ws, t.Lo[0], t.Hi[0], j, k)
			}
		}
	})
}

// rowScratch is one worker's x-row scratch for the flux stage, the
// chemistry sweep, the NSCBC planes (normalRows) and the figure-4 study;
// every row is one x-row long.
type rowScratch struct {
	du                 [3][3][]float64 // ∂u_c/∂x_d; a zero row along an inactive d
	dT, dW             [3][]float64
	dY                 [3][][]float64  // ∂Yₙ/∂x_d: [dir][species]
	j                  [3][][]float64  // Jₙ along d: [dir][species]
	q                  [3][]float64    // heat flux along d
	tau                [3][3][]float64 // τ_cd; τ_dc is the same row
	mu, lam            []float64       // μ and λ
	negRhoD, yOverW, h [][]float64     // (−ρ)·Dₙ, Yₙ/W and hₙ(T) per species
	y                  [][]float64     // views of the Yₙ rows (no storage of their own)
	sum                []float64       // Σₙ J*ₙ
	c, wdot            [][]float64     // chemistry: concentrations and ω̇ₙ per species
	hrr                []float64       // chemistry: heat-release rate
	drho, dp           []float64       // NSCBC: normal derivatives of ρ and p
	// gradDst[d] and normalDst[d] are the rows above that one DiffRows call
	// along d fills, in the order of Block.gradSrc and Block.normalSrc.
	gradDst, normalDst [3][][]float64
}

func newRowScratch(nx, ns int, active []int) rowScratch {
	row := func() []float64 { return make([]float64, nx) }
	rows := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = row()
		}
		return out
	}
	var rs rowScratch
	for c := range rs.du {
		rs.du[c] = [3][]float64{row(), row(), row()} // an inactive d stays zero
		for d := c; d < 3; d++ {
			rs.tau[c][d] = row()
			rs.tau[d][c] = rs.tau[c][d]
		}
	}
	rs.sum, rs.drho, rs.dp, rs.mu, rs.lam = row(), row(), row(), row(), row()
	for _, d := range active {
		rs.dT[d], rs.dW[d], rs.q[d] = row(), row(), row()
		rs.dY[d], rs.j[d] = rows(ns), rows(ns)
		rs.gradDst[d] = append([][]float64{rs.du[0][d], rs.du[1][d], rs.du[2][d], rs.dT[d], rs.dW[d]}, rs.dY[d]...)
		rs.normalDst[d] = append([][]float64{rs.drho, rs.dp, rs.du[0][d], rs.du[1][d], rs.du[2][d]}, rs.dY[d]...)
	}
	rs.negRhoD, rs.yOverW, rs.h = rows(ns), rows(ns), rows(ns)
	rs.c, rs.wdot, rs.hrr = rows(ns), rows(ns), row()
	rs.y = make([][]float64, ns)
	return rs
}

// fluxRow runs assembleFluxes over the points [x0, x1) of row (j, k) as
// short loops over the row. A derivative row carries DiffRange's bits and
// every per-point expression keeps the association of the stored-gradient
// pipeline this stage replaced, so the fluxes carry that pipeline's bits.
func (b *Block) fluxRow(ws *kernScratch, x0, x1, j, k int) {
	rs := &ws.rows
	w := x1 - x0
	p0 := b.Rho.Idx(x0, j, k)
	ns := b.ns

	// (1) Derivative rows: every field of gradSrc, one call per axis.
	for _, d := range b.active {
		a := grid.Axis(d)
		lo, hi := b.lohi(a)
		deriv.DiffRows(rs.gradDst[d], b.gradSrc, a, b.G.Metric(a), lo, hi, x0, x1, j, k)
	}

	// (2) The pointwise property rows, then the diffusive-flux rows.
	b.transportRows(ws, p0, w)
	for _, d := range b.active {
		jRow(rs.j[d], rs.dY[d], rs.negRhoD, rs.yOverW, rs.y, rs.dW[d], rs.sum[:w])
	}

	// (3) Flux rows: the heat flux (eq. 20), the stress tensor, then mass,
	// momentum and energy, then species.
	lam := rs.lam[:w]
	for _, d := range b.active {
		q, dT := rs.q[d][:w], rs.dT[d][:w]
		for i := range q {
			q[i] = -lam[i] * dT[i]
		}
		for n := 0; n < ns; n++ {
			h, jn := rs.h[n][:w], rs.j[d][n][:w]
			for i := range q {
				q[i] += h[i] * jn[i]
			}
		}
	}
	stressRows(rs, w)
	rhoR, pR := b.Rho.Data[p0:p0+w], b.P.Data[p0:p0+w]
	uR, vR, wR := b.U.Data[p0:p0+w], b.V.Data[p0:p0+w], b.W.Data[p0:p0+w]
	eR := b.Q[iRhoE].Data[p0 : p0+w]
	vel := [3][]float64{uR, vR, wR}
	for _, d := range b.active {
		fm := b.flux[iRho][d].Data[p0 : p0+w]
		f0, f1, f2 := b.flux[iRhoU][d].Data[p0:p0+w], b.flux[iRhoU+1][d].Data[p0:p0+w], b.flux[iRhoU+2][d].Data[p0:p0+w]
		fe := b.flux[iRhoE][d].Data[p0 : p0+w]
		t0, t1, t2 := rs.tau[0][d][:w], rs.tau[1][d][:w], rs.tau[2][d][:w]
		ud, q := vel[d][:w], rs.q[d][:w]
		for i := range fm {
			rho, u, uc, vc, wc := rhoR[i], ud[i], uR[i], vR[i], wR[i]
			fm[i] = rho * u
			f0[i] = rho*uc*u - t0[i]
			f1[i] = rho*vc*u - t1[i]
			f2[i] = rho*wc*u - t2[i]
			e := u*(eR[i]+pR[i]) + q[i]
			e -= t0[i] * uc
			e -= t1[i] * vc
			e -= t2[i] * wc
			fe[i] = e
		}
		// The pressure joins the normal momentum flux after the stress, in
		// the order the per-point assembly added it.
		fd := b.flux[iRhoU+d][d].Data[p0 : p0+w]
		for i := range fd {
			fd[i] += pR[i]
		}
	}
	for _, d := range b.active {
		u := vel[d][:w]
		for n := 0; n < ns-1; n++ {
			f := b.flux[iY0+n][d].Data[p0 : p0+w]
			y, jn := rs.y[n][:w], rs.j[d][n][:w]
			for i := range f {
				f[i] = rhoR[i]*y[i]*u[i] + jn[i]
			}
		}
	}
}

// stressRows fills the six distinct rows of the stress tensor (eq. 14)
// τ = μ(∇u + ∇uᵀ − ⅔δ∇·u) at the w points of the μ row. τ mixes every
// direction and is formed from all nine velocity derivatives in one
// association whatever the block's shape: along a one-point axis du holds
// the +0 a stored gradient held. τ_dc shares τ_cd's row: the two sums differ
// only in operand order, which IEEE addition does not see.
func stressRows(rs *rowScratch, w int) {
	mu := rs.mu[:w]
	g00, g01, g02 := rs.du[0][0][:w], rs.du[0][1][:w], rs.du[0][2][:w]
	g10, g11, g12 := rs.du[1][0][:w], rs.du[1][1][:w], rs.du[1][2][:w]
	g20, g21, g22 := rs.du[2][0][:w], rs.du[2][1][:w], rs.du[2][2][:w]
	txx, tyy, tzz := rs.tau[0][0][:w], rs.tau[1][1][:w], rs.tau[2][2][:w]
	txy, txz, tyz := rs.tau[0][1][:w], rs.tau[0][2][:w], rs.tau[1][2][:w]
	for i := range mu {
		m, gx, gy, gz := mu[i], g00[i], g11[i], g22[i]
		div := gx + gy + gz
		m23 := m * 2.0 / 3.0 * div
		txx[i] = m*(gx+gx) - m23
		tyy[i] = m*(gy+gy) - m23
		tzz[i] = m*(gz+gz) - m23
		txy[i] = m * (g01[i] + g10[i])
		txz[i] = m * (g02[i] + g20[i])
		tyz[i] = m * (g12[i] + g21[i])
	}
}

// transportRows evaluates the transport model and the species enthalpies at
// the w points from flat index p0 into the rows the flux stage reads: μ and
// λ, and per species (−ρ)·Dₙ, Yₙ/W and hₙ(T) — formed once per point and
// reused by every direction — and views of the Yₙ rows. On the final RK
// stage of an armed step the same pass over the Dₙ rows stores
// max(μ/ρ, maxₙ Dₙ) for the watchdog's diffusion number (diff_max).
func (b *Block) transportRows(ws *kernScratch, p0, w int) {
	rs, sp := &ws.rows, b.mech.Set.Species
	T, rho, wmix := b.T.Data[p0:p0+w], b.Rho.Data[p0:p0+w], b.Wmix.Data[p0:p0+w]
	b.diffusivityRows(ws, p0, w, rs.negRhoD)
	var diffMax []float64
	if b.diffDue {
		diffMax = b.diffMax.Data[p0 : p0+w]
		mu := rs.mu[:w]
		for i := range diffMax {
			diffMax[i] = mu[i] / rho[i]
		}
	}
	for n, d := range rs.negRhoD {
		d, y, yOverW, h := d[:w], rs.y[n], rs.yOverW[n][:w], rs.h[n][:w]
		for i, m := range diffMax {
			if d[i] > m {
				diffMax[i] = d[i]
			}
		}
		for i := range d {
			d[i] = -rho[i] * d[i]
			yOverW[i] = y[i] / wmix[i]
			h[i] = sp[n].H(T[i])
		}
	}
}

// diffusivityRows evaluates the transport model at the w points from flat
// index p0 with one MixtureRow call through the worker's clone: μ and λ into
// the worker's rows, views of the Yₙ rows into rs.y, and into d the Dₙ rows —
// mixture-averaged, or under the constant-Lewis ablation D = λ/(ρ·cp·Le)
// for every species (no differential diffusion).
func (b *Block) diffusivityRows(ws *kernScratch, p0, w int, d [][]float64) {
	rs := &ws.rows
	T, lam := b.T.Data[p0:p0+w], rs.lam[:w]
	cutRows(rs.y, b.Y, p0, p0+w)
	ws.trans.MixtureRow(T, b.P.Data[p0:p0+w], b.Wmix.Data[p0:p0+w], rs.y, rs.mu, lam, d)
	if le := b.cfg.ConstLewis; le > 0 {
		rho, yw := b.Rho.Data[p0:p0+w], ws.yw
		for i := range T {
			for n, y := range rs.y {
				yw[n] = y[i]
			}
			dl := lam[i] / (rho[i] * ws.mech.Set.CpMass(T[i], yw) * le)
			for _, dn := range d {
				dn[i] = dl
			}
		}
	}
}

// PrepareAssembleInputs runs the RHS stages the flux stage depends on, so
// the stage can be benchmarked in isolation.
func (b *Block) PrepareAssembleInputs() { b.PrepareDiffFluxInputs() }

// AssembleFluxesOnly invokes just the pencil-fused flux stage; inputs must
// have been prepared by PrepareAssembleInputs.
func (b *Block) AssembleFluxesOnly() { b.assembleFluxes() }

// divergence sets rhs[v] = −Σ_d ∂flux[v][d]/∂x_d over the interior, d over
// the active axes, finishing one x-row of rhs[v] at a time: the x derivative
// lands with OpSet (along a one-point x axis the row starts from +0), y and
// z accumulate with OpAdd, and the row is scaled by −1 (minusOne). Per point
// that is the set, add, add, scale of the whole-tile passes the row loop
// replaced, and DiffRow's bits are DiffRange's for any tiling.
func (b *Block) divergence() {
	defer b.beginRegionNamed("DERIVATIVES", "DIVERGENCE").End()
	xActive := b.isActive(0)
	var lo, hi [3]deriv.BC
	var met [3][]float64
	for _, d := range b.active {
		lo[d], hi[d] = b.lohi(grid.Axis(d))
		met[d] = b.G.Metric(grid.Axis(d))
	}
	b.plan.Run("DIVERGENCE", b.interior(), func(t par.Tile, _ int) {
		x0, x1 := t.Lo[0], t.Hi[0]
		neg := minusOne
		for v := 0; v < b.nvar; v++ {
			rhs, flux := b.rhs[v], &b.flux[v]
			for k := t.Lo[2]; k < t.Hi[2]; k++ {
				for j := t.Lo[1]; j < t.Hi[1]; j++ {
					p := rhs.Idx(x0, j, k)
					r := rhs.Data[p : p+x1-x0]
					op := deriv.OpSet
					if !xActive {
						clear(r)
						op = deriv.OpAdd
					}
					for _, d := range b.active {
						deriv.DiffRow(r, flux[d], grid.Axis(d), met[d], lo[d], hi[d], x0, x1, j, k, op)
						op = deriv.OpAdd
					}
					for i := range r {
						r[i] *= neg
					}
				}
			}
		}
	})
}

// minusOne negates a divergence row. It is a variable so that the compiler
// emits the multiply: it rewrites x·(−1) with a constant −1 to a negation,
// which flips a NaN's sign bit where the multiply keeps it.
var minusOne = -1.0

// chemSource adds the chemical production terms Wₙ·ω̇ₙ to the species
// equations (paper eq. 4). Total energy needs no source: the enthalpy in e₀
// already carries the chemical contribution. Each worker evaluates rates
// through its own mechanism clone; on telemetry steps the heat-release
// integral accumulates through the plan's ordered reduction slots, so the
// sum is bitwise identical for any worker count.
func (b *Block) chemSource() {
	defer b.beginRegion("REACTION_RATE_BOUNDS").End()
	if d := b.stragglerDelay; d > 0 {
		// Injected slowdown (SetStragglerDelay): charged inside the
		// chemistry region so the critpath analyzer blames the right kernel.
		time.Sleep(d)
	}
	// The heat-release fold writes ordered slots and so sweeps partition
	// tile by partition tile; every other stage takes the plan's fat tiles.
	if b.collectHRR {
		b.hrrAcc = b.plan.RunReduce("REACTION_RATE_BOUNDS", b.interior(),
			func(t par.Tile, w int) float64 { return b.chemTileSweep(t, w, true) })
		return
	}
	b.plan.Run("REACTION_RATE_BOUNDS", b.interior(), func(t par.Tile, w int) {
		b.chemTileSweep(t, w, false)
	})
}

// chemTileSweep evaluates the chemistry kernel over one tile, one x-row at
// a time: the rates of chemRow, Wₙ·ω̇ₙ added to the species rhs rows, plus
// (flagged) the heat-release integrand sum from one HeatReleaseRow call, in
// point order.
func (b *Block) chemTileSweep(t par.Tile, worker int, collect bool) (hrr float64) {
	ws := &b.ws[worker]
	rs, species := &ws.rows, b.mech.Set.Species
	x0, x1 := t.Lo[0], t.Hi[0]
	w := x1 - x0
	for k := t.Lo[2]; k < t.Hi[2]; k++ {
		for j := t.Lo[1]; j < t.Hi[1]; j++ {
			p0, T := b.chemRow(ws, x0, x1, j, k)
			for n := 0; n < b.ns-1; n++ {
				r, wd, wn := b.rhs[iY0+n].Data[p0:p0+w], rs.wdot[n][:w], species[n].W
				for i := range r {
					r[i] += wn * wd[i]
				}
			}
			if collect {
				q := rs.hrr[:w]
				ws.mech.HeatReleaseRow(T, rs.wdot, q)
				for i := range q {
					hrr += q[i] * b.cellVol(x0+i, j, k)
				}
			}
		}
	}
	return hrr
}

// chemRow evaluates ω̇ₙ at the points [x0, x1) of row (j, k) into the
// worker's wdot rows — the species rows cut from the primitives, one
// ConcentrationsRow and one ProductionRatesRow call — and returns the row's
// flat start index and temperature row.
func (b *Block) chemRow(ws *kernScratch, x0, x1, j, k int) (p0 int, T []float64) {
	rs := &ws.rows
	p0 = b.Rho.Idx(x0, j, k)
	p1 := p0 + x1 - x0
	T = b.T.Data[p0:p1]
	cutRows(rs.y, b.Y, p0, p1)
	ws.mech.ConcentrationsRow(b.Rho.Data[p0:p1], rs.y, rs.c)
	ws.mech.ProductionRatesRow(T, rs.c, rs.wdot)
	return p0, T
}

// HeatReleaseField fills dst (interior order, x fastest) with the heat-release
// rate −Σ ω̇ₙhₙ (W/m³) of the current primitives: chemRow and one
// HeatReleaseRow call per x-row, tiled over the plan. Owner goroutine only,
// between steps (it uses the workers' chemistry scratch).
func (b *Block) HeatReleaseField(dst []float64) {
	nx, ny := b.G.Nx, b.G.Ny
	b.plan.Run("REACTION_RATE_BOUNDS", b.interior(), func(t par.Tile, worker int) {
		ws := &b.ws[worker]
		x0, x1 := t.Lo[0], t.Hi[0]
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				_, T := b.chemRow(ws, x0, x1, j, k)
				o := (k*ny + j) * nx
				ws.mech.HeatReleaseRow(T, ws.rows.wdot, dst[o+x0:o+x1])
			}
		}
	})
}
