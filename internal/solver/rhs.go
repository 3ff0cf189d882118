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

// message tag bases for the two exchange rounds of each RHS evaluation.
const (
	tagConserved = 0
	tagFlux      = 100
)

// computeRHS evaluates dQ/dt into b.rhs at simulation time t. It performs
// the full S3D right-hand side: ghost exchange of the conserved state,
// primitive and transport-property recovery, the pencil-fused flux stage
// (derivatives, diffusive fluxes and the convective + viscous + diffusive
// flux assembly, one x-row at a time), a second ghost exchange of the
// fluxes, flux divergence, chemical source terms and NSCBC boundary
// corrections. Every stage with interior extent runs tiled over the block's
// worker-pool plan.
func (b *Block) computeRHS(t float64) {
	b.exchangeHalos(b.haloQ, tagConserved)
	b.computePrimitives()
	b.computeTransport()
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
// scratch (fluxRow): derivative rows, then diffusive-flux rows, then the
// flux rows — the only values stored, because the flux halo exchange and the
// divergence read them. No gradient or J field exists.
func (b *Block) assembleFluxes() {
	defer b.beginRegion("ASSEMBLE_FLUXES").End()
	b.plan.Run("ASSEMBLE_FLUXES", b.interior(), func(t par.Tile, worker int) {
		rs := &b.ws[worker].rows
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				b.fluxRow(rs, t.Lo[0], t.Hi[0], j, k)
			}
		}
	})
}

// rowScratch is one worker's x-row scratch for the flux stage, the NSCBC
// planes (normalRows) and the figure-4 study; every row is one x-row long.
type rowScratch struct {
	du                 [3][3][]float64 // ∂u_c/∂x_d; a zero row along an inactive d
	dT, dW             [3][]float64
	dY                 [3][][]float64 // ∂Yₙ/∂x_d: [dir][species]
	j                  [3][][]float64 // Jₙ along d: [dir][species]
	q                  [3][]float64   // heat flux along d
	negRhoD, yOverW, h [][]float64    // (−ρ)·Dₙ, Yₙ/W and hₙ(T) per species
	y                  [][]float64    // views of the Yₙ rows (no storage of their own)
	sum                []float64      // Σₙ J*ₙ
	drho, dp           []float64      // NSCBC: normal derivatives of ρ and p
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
	}
	for _, d := range active {
		rs.dT[d], rs.dW[d], rs.q[d] = row(), row(), row()
		rs.dY[d], rs.j[d] = rows(ns), rows(ns)
	}
	rs.negRhoD, rs.yOverW, rs.h = rows(ns), rows(ns), rows(ns)
	rs.sum, rs.drho, rs.dp = row(), row(), row()
	rs.y = make([][]float64, ns)
	return rs
}

// fluxRow runs assembleFluxes over the points [x0, x1) of row (j, k) as
// short loops over the row. A derivative row carries DiffRange's bits and
// every per-point expression keeps its association, so the fluxes are bit
// for bit those of the stored-gradient pipeline this stage replaced.
func (b *Block) fluxRow(rs *rowScratch, x0, x1, j, k int) {
	w := x1 - x0
	p0 := b.Rho.Idx(x0, j, k)
	ns := b.ns

	// (1) Derivative rows.
	for _, d := range b.active {
		a := grid.Axis(d)
		lo, hi := b.lohi(a)
		met := b.G.Metric(a)
		deriv.DiffRow(rs.du[0][d], b.U, a, met, lo, hi, x0, x1, j, k)
		deriv.DiffRow(rs.du[1][d], b.V, a, met, lo, hi, x0, x1, j, k)
		deriv.DiffRow(rs.du[2][d], b.W, a, met, lo, hi, x0, x1, j, k)
		deriv.DiffRow(rs.dT[d], b.T, a, met, lo, hi, x0, x1, j, k)
		deriv.DiffRow(rs.dW[d], b.Wmix, a, met, lo, hi, x0, x1, j, k)
		for n := 0; n < ns; n++ {
			deriv.DiffRow(rs.dY[d][n], b.Y[n], a, met, lo, hi, x0, x1, j, k)
		}
	}

	// (2) Diffusive-flux rows, and the species enthalpies hₙ(T).
	b.diffusionRows(rs, p0, w)
	for _, d := range b.active {
		jRow(rs.j[d], rs.dY[d], rs.negRhoD, rs.yOverW, rs.y, rs.dW[d], rs.sum[:w])
	}
	T := b.T.Data[p0 : p0+w]
	for n, sp := range b.mech.Set.Species {
		h := rs.h[n][:w]
		for i := range h {
			h[i] = sp.H(T[i])
		}
	}

	// (3) Flux rows: the heat flux (eq. 20), then mass, momentum and energy
	// point by point, then species. The stress tensor (eq. 14)
	// τ = μ(∇u + ∇uᵀ − ⅔δ∇·u) mixes every direction and is formed from all
	// nine velocity derivatives in one association whatever the block's
	// shape: along a one-point axis du holds the +0 a stored gradient held.
	lam := b.Lambda.Data[p0 : p0+w]
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
	rhoR, pR, muR := b.Rho.Data[p0:p0+w], b.P.Data[p0:p0+w], b.Mu.Data[p0:p0+w]
	uR, vR, wR := b.U.Data[p0:p0+w], b.V.Data[p0:p0+w], b.W.Data[p0:p0+w]
	eR := b.Q[iRhoE].Data[p0 : p0+w]
	for i := 0; i < w; i++ {
		rho, p, mu, rhoE := rhoR[i], pR[i], muR[i], eR[i]
		u := [3]float64{uR[i], vR[i], wR[i]}
		var gu [3][3]float64
		for c := 0; c < 3; c++ {
			for d := 0; d < 3; d++ {
				gu[c][d] = rs.du[c][d][i]
			}
		}
		div := gu[0][0] + gu[1][1] + gu[2][2]
		var tau [3][3]float64
		for c := 0; c < 3; c++ {
			for d := 0; d < 3; d++ {
				tau[c][d] = mu * (gu[c][d] + gu[d][c])
			}
			tau[c][c] -= mu * 2.0 / 3.0 * div
		}
		x := p0 + i
		for _, d := range b.active {
			b.flux[iRho][d].Data[x] = rho * u[d]
			for c := 0; c < 3; c++ {
				f := rho*u[c]*u[d] - tau[c][d]
				if c == d {
					f += p
				}
				b.flux[iRhoU+c][d].Data[x] = f
			}
			fe := u[d]*(rhoE+p) + rs.q[d][i]
			for c := 0; c < 3; c++ {
				fe -= tau[c][d] * u[c]
			}
			b.flux[iRhoE][d].Data[x] = fe
		}
	}
	vel := [3][]float64{uR, vR, wR}
	for _, d := range b.active {
		u := vel[d]
		for n := 0; n < ns-1; n++ {
			f := b.flux[iY0+n][d].Data[p0 : p0+w]
			y, jn := rs.y[n][:w], rs.j[d][n][:w]
			for i := range f {
				f[i] = rhoR[i]*y[i]*u[i] + jn[i]
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
// the active axes. The x derivative lands with OpSet and y/z accumulate with
// OpAdd, fusing the former separate scratch-field AXPY passes into the
// derivative sweeps; per point the arithmetic (set, add, add, negate) is
// unchanged, and DiffRange's is the same for any tiling. The derivative
// along a one-point x axis is the +0 the sum then starts from.
func (b *Block) divergence() {
	defer b.beginRegionNamed("DERIVATIVES", "DIVERGENCE").End()
	b.plan.Run("DIVERGENCE", b.interior(), func(t par.Tile, _ int) {
		for v := 0; v < b.nvar; v++ {
			op := deriv.OpSet
			if !b.isActive(0) {
				b.rhs[v].FillRange(0, t.Lo, t.Hi)
				op = deriv.OpAdd
			}
			for _, d := range b.active {
				a := grid.Axis(d)
				lo, hi := b.lohi(a)
				deriv.DiffRange(b.rhs[v], b.flux[v][d], a, b.G.Metric(a), lo, hi, t.Lo, t.Hi, op)
				op = deriv.OpAdd
			}
			b.rhs[v].ScaleRange(-1, t.Lo, t.Hi)
		}
	})
}

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

// chemTileSweep evaluates the chemistry kernel over one tile: production
// rates added to the species equations, plus (flagged) the heat-release
// integrand sum.
func (b *Block) chemTileSweep(t par.Tile, worker int, collect bool) (hrr float64) {
	ns := b.ns
	species := b.mech.Set.Species
	ws := &b.ws[worker]
	for k := t.Lo[2]; k < t.Hi[2]; k++ {
		for j := t.Lo[1]; j < t.Hi[1]; j++ {
			for i := t.Lo[0]; i < t.Hi[0]; i++ {
				rho := b.Rho.At(i, j, k)
				T := b.T.At(i, j, k)
				for n := 0; n < ns; n++ {
					ws.cw[n] = rho * b.Y[n].At(i, j, k) / species[n].W
				}
				ws.mech.ProductionRates(T, ws.cw, ws.wdot)
				for n := 0; n < ns-1; n++ {
					b.rhs[iY0+n].Add(i, j, k, species[n].W*ws.wdot[n])
				}
				if collect {
					hrr += ws.mech.HeatReleaseRate(T, ws.wdot) * b.cellVol(i, j, k)
				}
			}
		}
	}
	return hrr
}
