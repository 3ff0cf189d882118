package solver

import (
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
)

// ghosted returns the interior box grown by the ghost width on every face
// with valid ghost data — the bounding box of the interior plus its ghost
// face slabs.
func (b *Block) ghosted() par.Range {
	r := b.interior()
	for _, a := range b.active {
		if b.loGhost[a] {
			r.Lo[a] = -grid.Ghost
		}
		if b.hiGhost[a] {
			r.Hi[a] += grid.Ghost
		}
	}
	return r
}

// computePrimitives recovers ρ, u, v, w, Y, T, p, W from the conserved
// fields over the interior plus the ghost face slabs of connected faces —
// the read-set of the gradient sweeps (see halo.go): a ghost point is
// visited iff exactly one of its indices lies outside the interior. Edge
// and corner ghosts hold no valid conserved data and are skipped.
// Temperature Newton iteration warm-starts from the previous value stored in
// b.T. Each point's recovery is independent, so the sweep tiles over the
// worker pool with a per-worker species scratch vector.
//
// An unrecoverable state (non-positive density, failed temperature
// inversion) is recorded as a structured health fault and the cell is
// skipped, leaving its primitives stale: pool workers have no panic
// recovery, so a worker panic would kill the process with the owner's
// WaitGroup still waiting. After the barrier the owner re-raises the fault
// as a panic unless an armed watchdog will turn it into a health.Violation
// at the end of the step (see health.go).
func (b *Block) computePrimitives() {
	defer b.beginRegion("COMPUTE_PRIMITIVES").End()

	b.plan.Run("COMPUTE_PRIMITIVES", b.ghosted(), b.primitivesTile)
	// The WaitGroup barrier inside plan.Run orders every worker's fault
	// write before this read — no atomics on the healthy path.
	if b.fault != nil && !b.watchArmed() {
		panic(b.fault)
	}
}

// primitivesTile recovers the primitives over one tile of the ghosted box,
// clipping each row to the read-set: a row with j or k in a ghost layer
// keeps only its interior i range, and a row with both outside (edges and
// corners) is skipped. Each field's segment of a row is cut once (one
// layout: one flat offset addresses a point in every field) and indexed by
// i. A clipped row is never empty: the plan splits x only when y and z have
// one point, and then no row is clipped.
func (b *Block) primitivesTile(t par.Tile, worker int) {
	set, ns, ws := b.mech.Set, b.ns, &b.ws[worker]
	yw, qY, yR := ws.yw, ws.yIn[:ns-1], ws.yOut[:ns]
	for k := t.Lo[2]; k < t.Hi[2]; k++ {
		kGhost := k < 0 || k >= b.G.Nz
		for j := t.Lo[1]; j < t.Hi[1]; j++ {
			jGhost := j < 0 || j >= b.G.Ny
			if kGhost && jGhost {
				continue
			}
			iLo, iHi := t.Lo[0], t.Hi[0]
			if kGhost || jGhost {
				iLo, iHi = max(iLo, 0), min(iHi, b.G.Nx)
			}
			p0 := b.Rho.Idx(iLo, j, k)
			p1 := p0 + iHi - iLo
			rhoQ, eQ := b.Q[iRho].Data[p0:p1], b.Q[iRhoE].Data[p0:p1]
			ruQ, rvQ, rwQ := b.Q[iRhoU].Data[p0:p1], b.Q[iRhoV].Data[p0:p1], b.Q[iRhoW].Data[p0:p1]
			rhoR, uR, vR, wR := b.Rho.Data[p0:p1], b.U.Data[p0:p1], b.V.Data[p0:p1], b.W.Data[p0:p1]
			tR, pR, wmR := b.T.Data[p0:p1], b.P.Data[p0:p1], b.Wmix.Data[p0:p1]
			cutRows(qY, b.Q[iY0:], p0, p1)
			cutRows(yR, b.Y, p0, p1)
			for i, rho := range rhoQ {
				if !(rho > 0) { // NaN included
					b.recordFault("density", "rho", rho, iLo+i, j, k, "non-positive density")
					continue
				}
				inv := 1 / rho
				u := ruQ[i] * inv
				v := rvQ[i] * inv
				w := rwQ[i] * inv
				var sum float64
				for n, q := range qY {
					y := q[i] * inv
					// Clip round-off excursions; the filter keeps these tiny.
					if y < 0 {
						y = 0
					}
					yw[n] = y
					sum += y
				}
				yLast := 1 - sum
				if yLast < 0 {
					// Renormalise pathological states rather than carrying a
					// negative inert fraction.
					scale := 1 / sum
					for n := 0; n < ns-1; n++ {
						yw[n] *= scale
					}
					yLast = 0
				}
				yw[ns-1] = yLast

				eInt := eQ[i]*inv - 0.5*(u*u+v*v+w*w)
				Wm := set.MeanW(yw)
				T, ok := set.TFromEW(eInt, yw, Wm, tR[i])
				if !ok {
					b.recordFault("temperature_inversion", "e_int", eInt, iLo+i, j, k,
						"temperature inversion failed")
					continue
				}
				rhoR[i] = rho
				uR[i] = u
				vR[i] = v
				wR[i] = w
				tR[i] = T
				pR[i] = rho * gasR * T / Wm
				wmR[i] = Wm
				for n, y := range yR {
					y[i] = yw[n]
				}
			}
		}
	}
}

// computeTransport evaluates μ, λ and D over the interior, tiled over the
// pool: the flux kernels that consume them are interior sweeps, so no
// transport property is ever read in a ghost cell. The transport model
// carries internal scratch, so each worker evaluates through its own clone.
// Rows are cut once, as in primitivesTile.
func (b *Block) computeTransport() {
	defer b.beginRegion("COMPUTE_TRANSPORT").End()

	ns := b.ns
	le := b.cfg.ConstLewis
	b.plan.Run("COMPUTE_TRANSPORT", b.interior(), func(t par.Tile, worker int) {
		ws := &b.ws[worker]
		yw, yR, dR := ws.yw, ws.yIn[:ns], ws.yOut[:ns]
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				p0 := b.Rho.Idx(t.Lo[0], j, k)
				p1 := p0 + t.Hi[0] - t.Lo[0]
				tR, pR, rhoR := b.T.Data[p0:p1], b.P.Data[p0:p1], b.Rho.Data[p0:p1]
				muR, lamR := b.Mu.Data[p0:p1], b.Lambda.Data[p0:p1]
				cutRows(yR, b.Y, p0, p1)
				cutRows(dR, b.D, p0, p1)
				for i, T := range tR {
					for n, y := range yR {
						yw[n] = y[i]
					}
					ws.trans.Mixture(T, pR[i], yw, &ws.props)
					muR[i] = ws.props.Mu
					lamR[i] = ws.props.Lambda
					if le > 0 {
						// Constant-Lewis ablation: D = λ/(ρ·cp·Le) for every
						// species (no differential diffusion).
						d := ws.props.Lambda / (rhoR[i] * ws.mech.Set.CpMass(T, yw) * le)
						for _, dn := range dR {
							dn[i] = d
						}
						continue
					}
					for n, dn := range dR {
						dn[i] = ws.props.Dmix[n]
					}
				}
			}
		}
	})
}

// cutRows points dst[n] at the segment [p0, p1) of fields[n], for every n
// of dst.
func cutRows(dst [][]float64, fields []*grid.Field3, p0, p1 int) {
	for n := range dst {
		dst[n] = fields[n].Data[p0:p1]
	}
}
