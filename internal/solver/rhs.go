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
// primitive and transport-property recovery, gradient evaluation, flux
// assembly (convective + viscous + diffusive), a second ghost exchange of
// the fluxes, flux divergence, chemical source terms and NSCBC boundary
// corrections. Every stage with interior extent runs tiled over the block's
// worker-pool plan.
func (b *Block) computeRHS(t float64) {
	b.exchangeHalos(b.haloQ, tagConserved)
	b.computePrimitives()
	b.computeTransport()
	b.computeGradients()
	b.computeDiffFlux()
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

// diff differentiates f along axis a into dst with the block's closures.
func (b *Block) diff(dst, f *grid.Field3, a grid.Axis) {
	lo, hi := b.lohi(a)
	deriv.Diff(dst, f, a, b.G.Metric(a), lo, hi)
}

// diffTile differentiates f along axis a into dst over one tile's box.
// DiffRange applies identical arithmetic per point for any tiling, so the
// assembled derivative is bitwise independent of the pool size.
func (b *Block) diffTile(dst, f *grid.Field3, a grid.Axis, t par.Tile, op deriv.Op) {
	lo, hi := b.lohi(a)
	deriv.DiffRange(dst, f, a, b.G.Metric(a), lo, hi, t.Lo, t.Hi, op)
}

// interior returns the block's interior index box.
func (b *Block) interior() par.Range {
	return par.Interior(b.G.Nx, b.G.Ny, b.G.Nz)
}

// computeGradients evaluates the first derivatives needed by the viscous
// and diffusive fluxes (velocity, temperature, species, mean molecular
// weight) and, on axes with physical NSCBC faces, density and pressure
// gradients for the characteristic boundary treatment. One tiled sweep per
// active direction: each tile computes every field's derivative over its own
// box, reusing the source lines while they are cache-hot.
func (b *Block) computeGradients() {
	defer b.beginRegion("DERIVATIVES").End()
	vel := [3]*grid.Field3{b.U, b.V, b.W}
	r := b.interior()
	for _, d := range b.active {
		a := grid.Axis(d)
		needsBC := b.needsNSCBC(d)
		b.plan.Run("DERIVATIVES", r, func(t par.Tile, _ int) {
			for c := 0; c < 3; c++ {
				b.diffTile(b.dU[c][d], vel[c], a, t, deriv.OpSet)
			}
			b.diffTile(b.dT[d], b.T, a, t, deriv.OpSet)
			b.diffTile(b.dW[d], b.Wmix, a, t, deriv.OpSet)
			for n := 0; n < b.ns; n++ {
				b.diffTile(b.dY[n][d], b.Y[n], a, t, deriv.OpSet)
			}
			if needsBC {
				b.diffTile(b.dRho[d], b.Rho, a, t, deriv.OpSet)
				b.diffTile(b.dP[d], b.P, a, t, deriv.OpSet)
			}
		})
	}
}

// needsNSCBC reports whether the axis has a physical characteristic face on
// this block.
func (b *Block) needsNSCBC(a int) bool {
	loPhys := !b.interiorF[a][0] && b.faceBC[a][0] != Periodic
	hiPhys := !b.interiorF[a][1] && b.faceBC[a][1] != Periodic
	return loPhys || hiPhys
}

// assembleFluxes builds flux[var][dir] over the interior for every active
// direction:
//
//	mass:      ρu_d
//	momentum:  ρu_c·u_d + δ_cd·p − τ_cd                  (paper eqs. 2, 14)
//	energy:    u_d(ρe₀+p) − (τ·u)_d + q_d               (paper eqs. 3, 20)
//	species:   ρY_n·u_d + J_nd                           (paper eq. 4)
//
// with q = −λ∇T + Σ hₙ·Jₙ. The diffusive fluxes J were prepared by
// computeDiffFlux (figure 4/5 kernel) including the correction velocity.
//
// The kernel is fused in the paper's figure-4/5 style: every field shares
// one flat row index, so each tile makes a single pass over the gradient and
// flux fields with one index computation per cell, the species enthalpies
// h_n(T) are evaluated once per cell into a per-worker buffer and reused by
// every direction, and each J value is read exactly once per (cell,
// direction).
//
// Along a one-point axis every gradient is an exact +0, which is what the
// zero-initialised gu holds there: the stress tensor is formed from the same
// nine operands in the same association whatever the block's shape, and only
// the loads and the per-direction flux loop are restricted to active axes.
func (b *Block) assembleFluxes() {
	defer b.beginRegion("ASSEMBLE_FLUXES").End()
	b.plan.Run("ASSEMBLE_FLUXES", b.interior(), b.assembleFluxesTile)
}

// assembleFluxesTile is the fused flux-assembly tile body.
func (b *Block) assembleFluxesTile(t par.Tile, worker int) {
	g := b.g
	ns := b.ns
	species := b.mech.Set.Species
	active := b.active
	h := b.ws[worker].hw
	for k := t.Lo[2]; k < t.Hi[2]; k++ {
		for j := t.Lo[1]; j < t.Hi[1]; j++ {
			row := b.Rho.Idx(0, j, k)
			for i := t.Lo[0]; i < t.Hi[0]; i++ {
				// One flat index addresses every same-shape field.
				p0 := row + i
				rho := b.Rho.Data[p0]
				u := [3]float64{b.U.Data[p0], b.V.Data[p0], b.W.Data[p0]}
				p := b.P.Data[p0]
				T := b.T.Data[p0]
				mu := g.mu[p0]
				lam := g.lam[p0]
				rhoE := b.Q[iRhoE].Data[p0]

				// Stress tensor (eq. 14): τ = μ(∇u + ∇uᵀ − ⅔δ∇·u).
				var gu [3][3]float64
				for _, d := range active {
					for c := 0; c < 3; c++ {
						gu[c][d] = g.dU[c][d][p0]
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

				// Species enthalpies: once per cell, reused by every
				// direction's heat flux and nowhere re-evaluated.
				for n := 0; n < ns; n++ {
					h[n] = species[n].H(T)
				}

				for _, d := range active {
					// Heat flux (eq. 20); each J read feeds both the heat
					// flux and the species flux below via jd.
					q := -lam * g.dT[d][p0]
					for n := 0; n < ns; n++ {
						q += h[n] * b.J[d][n].Data[p0]
					}

					b.flux[iRho][d].Data[p0] = rho * u[d]
					for c := 0; c < 3; c++ {
						f := rho*u[c]*u[d] - tau[c][d]
						if c == d {
							f += p
						}
						b.flux[iRhoU+c][d].Data[p0] = f
					}
					fe := u[d]*(rhoE+p) + q
					for c := 0; c < 3; c++ {
						fe -= tau[c][d] * u[c]
					}
					b.flux[iRhoE][d].Data[p0] = fe
					for n := 0; n < ns-1; n++ {
						b.flux[iY0+n][d].Data[p0] =
							rho*b.Y[n].Data[p0]*u[d] + b.J[d][n].Data[p0]
					}
				}
			}
		}
	}
}

// PrepareAssembleInputs runs the RHS stages assembleFluxes depends on, so
// the fused kernel can be benchmarked in isolation.
func (b *Block) PrepareAssembleInputs() {
	b.PrepareDiffFluxInputs()
	b.computeDiffFlux()
}

// AssembleFluxesOnly invokes just the fused flux-assembly kernel; inputs
// must have been prepared by PrepareAssembleInputs.
func (b *Block) AssembleFluxesOnly() { b.assembleFluxes() }

// divergence sets rhs[v] = −Σ_d ∂flux[v][d]/∂x_d over the interior, d over
// the active axes. The x derivative lands with OpSet and y/z accumulate with
// OpAdd, fusing the former separate scratch-field AXPY passes into the
// derivative sweeps; per point the arithmetic (set, add, add, negate) is
// unchanged. The derivative along a one-point x axis is the +0 the sum then
// starts from.
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
				b.diffTile(b.rhs[v], b.flux[v][d], grid.Axis(d), t, op)
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
