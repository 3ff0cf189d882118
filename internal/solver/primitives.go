package solver

import (
	"math"

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
// corners) is skipped.
func (b *Block) primitivesTile(t par.Tile, worker int) {
	set := b.mech.Set
	ns := b.ns
	yw := b.ws[worker].yw
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
			for i := iLo; i < iHi; i++ {
				rho := b.Q[iRho].At(i, j, k)
				if !(rho > 0) || math.IsNaN(rho) {
					b.recordFault("density", "rho", rho, i, j, k, "non-positive density")
					continue
				}
				inv := 1 / rho
				u := b.Q[iRhoU].At(i, j, k) * inv
				v := b.Q[iRhoV].At(i, j, k) * inv
				w := b.Q[iRhoW].At(i, j, k) * inv
				var sum float64
				for n := 0; n < ns-1; n++ {
					y := b.Q[iY0+n].At(i, j, k) * inv
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

				e0 := b.Q[iRhoE].At(i, j, k) * inv
				eInt := e0 - 0.5*(u*u+v*v+w*w)
				T, ok := set.TFromE(eInt, yw, b.T.At(i, j, k))
				if !ok {
					b.recordFault("temperature_inversion", "e_int", eInt, i, j, k,
						"temperature inversion failed")
					continue
				}
				Wm := set.MeanW(yw)
				b.Rho.Set(i, j, k, rho)
				b.U.Set(i, j, k, u)
				b.V.Set(i, j, k, v)
				b.W.Set(i, j, k, w)
				b.T.Set(i, j, k, T)
				b.P.Set(i, j, k, rho*gasR*T/Wm)
				b.Wmix.Set(i, j, k, Wm)
				for n := 0; n < ns; n++ {
					b.Y[n].Set(i, j, k, yw[n])
				}
			}
		}
	}
}

// computeTransport evaluates μ, λ and D over the interior, tiled over the
// pool: the flux kernels that consume them are interior sweeps, so no
// transport property is ever read in a ghost cell. The transport model
// carries internal scratch, so each worker evaluates through its own clone.
func (b *Block) computeTransport() {
	defer b.beginRegion("COMPUTE_TRANSPORT").End()

	ns := b.ns
	le := b.cfg.ConstLewis
	b.plan.Run("COMPUTE_TRANSPORT", b.interior(), func(t par.Tile, worker int) {
		ws := &b.ws[worker]
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				for i := t.Lo[0]; i < t.Hi[0]; i++ {
					b.gatherYInto(ws.yw, i, j, k)
					T := b.T.At(i, j, k)
					ws.trans.Mixture(T, b.P.At(i, j, k), ws.yw, &ws.props)
					b.Mu.Set(i, j, k, ws.props.Mu)
					b.Lambda.Set(i, j, k, ws.props.Lambda)
					if le > 0 {
						// Constant-Lewis ablation: D = λ/(ρ·cp·Le) for every
						// species (no differential diffusion).
						d := ws.props.Lambda / (b.Rho.At(i, j, k) * ws.mech.Set.CpMass(T, ws.yw) * le)
						for n := 0; n < ns; n++ {
							b.D[n].Set(i, j, k, d)
						}
						continue
					}
					for n := 0; n < ns; n++ {
						b.D[n].Set(i, j, k, ws.props.Dmix[n])
					}
				}
			}
		}
	})
}
