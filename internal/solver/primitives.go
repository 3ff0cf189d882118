package solver

import (
	"math"

	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
)

// computePrimitives recovers ρ, u, v, w, Y, T, p, W from the conserved
// fields over the block interior. Ghost cells are not recovered here: the
// primitive halo exchange that follows (EvalRHS, RefreshPrimitives)
// copies the owner's values into the face slabs the flux stage reads, so
// every point's primitives are computed once, by the rank that owns it.
// Temperature Newton iteration warm-starts from the previous value stored in
// b.T. Each point's recovery is independent, so the sweep tiles over the
// worker pool with per-worker row scratch (primRows).
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

	b.plan.Run("COMPUTE_PRIMITIVES", b.interior(), b.primitivesTile)
	// The WaitGroup barrier inside plan.Run orders every worker's fault
	// write before this read — no atomics on the healthy path.
	if b.fault != nil && !b.watchArmed() {
		panic(b.fault)
	}
}

// primitivesTile recovers the primitives over one interior tile, one x-row
// at a time, in three passes. Each field's segment of a row is cut once (one
// layout: one flat offset addresses a point in every field) and indexed by
// i. (1) A scalar pass takes 1/ρ, u, v, w, the clipped and renormalised Yₙ
// and e_int into the worker's row scratch and writes no field. (2) One
// thermo.Set.TFromERow call recovers the row's W and T from the guesses in
// b.T. (3) A commit pass records the faults in point order, so a tile's
// first fault is its first faulted point's, and writes each field's row at
// the points that recovered, so a faulted point keeps every primitive it
// had.
func (b *Block) primitivesTile(t par.Tile, worker int) {
	set, ns, ws := b.mech.Set, b.ns, &b.ws[worker]
	qY, yR, pr := ws.yIn[:ns-1], ws.yOut[:ns], &ws.prim
	iLo := t.Lo[0]
	nx := t.Hi[0] - iLo
	uS, vS, wS, eS := pr.u[:nx], pr.v[:nx], pr.w[:nx], pr.e[:nx]
	tS, wmS, okS, yS := pr.T[:nx], pr.W[:nx], pr.ok[:nx], pr.y[:ns*nx]
	for k := t.Lo[2]; k < t.Hi[2]; k++ {
		for j := t.Lo[1]; j < t.Hi[1]; j++ {
			p0 := b.Rho.Idx(iLo, j, k)
			p1 := p0 + nx
			rhoQ, eQ := b.Q[iRho].Data[p0:p1], b.Q[iRhoE].Data[p0:p1]
			ruQ, rvQ, rwQ := b.Q[iRhoU].Data[p0:p1], b.Q[iRhoV].Data[p0:p1], b.Q[iRhoW].Data[p0:p1]
			rhoR, uR, vR, wR := b.Rho.Data[p0:p1], b.U.Data[p0:p1], b.V.Data[p0:p1], b.W.Data[p0:p1]
			tR, pR, wmR := b.T.Data[p0:p1], b.P.Data[p0:p1], b.Wmix.Data[p0:p1]
			cutRows(qY, b.Q[iY0:], p0, p1)
			cutRows(yR, b.Y, p0, p1)

			// (1) The scalar pass. A point of non-positive density gets a
			// NaN energy and no species: the inversion hands it to the
			// scalar TFromEW, and (3) reads none of its answer.
			for i, rho := range rhoQ {
				if !(rho > 0) { // NaN included
					eS[i] = math.NaN()
					for n := 0; n < ns; n++ {
						yS[n*nx+i] = 0
					}
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
					yS[n*nx+i] = y
					sum += y
				}
				yLast := 1 - sum
				if yLast < 0 {
					// Renormalise pathological states rather than carrying a
					// negative inert fraction.
					scale := 1 / sum
					for n := 0; n < ns-1; n++ {
						yS[n*nx+i] *= scale
					}
					yLast = 0
				}
				yS[(ns-1)*nx+i] = yLast
				uS[i], vS[i], wS[i] = u, v, w
				eS[i] = eQ[i]*inv - 0.5*(u*u+v*v+w*w)
			}

			// (2) W and T of the row.
			set.TFromERow(tS, wmS, okS, eS, yS, tR, ws.yw)

			// (3) The commit pass: the faults in point order, then each
			// field's row at the points that recovered.
			for i, rho := range rhoQ {
				switch {
				case !(rho > 0):
					okS[i] = false
					b.recordFault("density", "rho", rho, iLo+i, j, k, "non-positive density")
				case !okS[i]:
					b.recordFault("temperature_inversion", "e_int", eS[i], iLo+i, j, k,
						"temperature inversion failed")
				}
			}
			commit(rhoR, rhoQ, okS)
			commit(uR, uS, okS)
			commit(vR, vS, okS)
			commit(wR, wS, okS)
			commit(tR, tS, okS)
			commit(wmR, wmS, okS)
			for i, ok := range okS {
				if ok {
					pR[i] = rhoQ[i] * gasR * tS[i] / wmS[i]
				}
			}
			for n, y := range yR {
				commit(y, yS[n*nx:(n+1)*nx], okS)
			}
		}
	}
}

// commit sets dst[i] = src[i] at every point i where ok[i]; dst sets the
// length.
func commit(dst, src []float64, ok []bool) {
	src, ok = src[:len(dst)], ok[:len(dst)]
	for i, good := range ok {
		if good {
			dst[i] = src[i]
		}
	}
}

// primRows is one worker's x-row scratch of the primitives sweep: the
// velocities, internal energy, temperature and mixture molecular weight of
// a row, its species rows end to end (thermo.Set.TFromERow's layout) and
// the inversion's ok mask.
type primRows struct {
	u, v, w, e, T, W []float64
	y                []float64
	ok               []bool
}

func newPrimRows(nx, ns int) primRows {
	row := func() []float64 { return make([]float64, nx) }
	return primRows{
		u: row(), v: row(), w: row(), e: row(), T: row(), W: row(),
		y:  make([]float64, ns*nx),
		ok: make([]bool, nx),
	}
}

// cutRows points dst[n] at the segment [p0, p1) of fields[n], for every n
// of dst.
func cutRows(dst [][]float64, fields []*grid.Field3, p0, p1 int) {
	for n := range dst {
		dst[n] = fields[n].Data[p0:p1]
	}
}
