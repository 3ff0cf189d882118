package solver

import (
	"math"

	"github.com/s3dgo/s3d/internal/deriv"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
)

// Navier–Stokes characteristic boundary conditions (paper §2.6, citing
// Poinsot-Lele-style non-reflecting inflow/outflow as refined by Yoo et
// al.). The interior discretisation already used one-sided stencils at
// physical faces; the correction replaces the *normal inviscid* part of the
// right-hand side on each boundary plane with its characteristic (LODI)
// form, in which outgoing wave amplitudes are taken from the interior and
// incoming ones are prescribed:
//
//   - non-reflecting outflow: incoming acoustic wave relaxes pressure to
//     p∞ with strength σ·c·(1−M²)/L;
//   - non-reflecting inflow: incoming acoustic, entropy, shear and species
//     waves relax u, T, (v,w) and Y toward the target inflow state.

// nscbcTileSweep applies every physical, non-periodic face to the rows it
// shares with a tile, faces in x-low, x-high, …, z-high order (so an edge or
// corner point takes its faces' corrections in that order): an x-face
// corrects a row's end point, a y- or z-face its plane's whole row.
func (b *Block) nscbcTileSweep(ws *kernScratch, tl par.Tile, t float64) {
	for _, a := range b.active {
		for side := 0; side < 2; side++ {
			if b.interiorF[a][side] || b.faceBC[a][side] == Periodic {
				continue
			}
			// r: the tile's rows on the face plane, at index bi along a.
			bi := side * (b.G.Dim(grid.Axis(a)) - 1)
			r := tl.Range
			r.Lo[a], r.Hi[a] = max(r.Lo[a], bi), min(r.Hi[a], bi+1)
			if r.Empty() {
				continue
			}
			for k := r.Lo[2]; k < r.Hi[2]; k++ {
				for j := r.Lo[1]; j < r.Hi[1]; j++ {
					b.charRow(ws, a, side, r.Lo[0], r.Hi[0], j, k, t)
				}
			}
		}
	}
}

// NSCBC relaxation strengths (dimensionless): σ at outflows, η at inflows.
const (
	sigmaOut = 0.25
	etaIn    = 0.3
)

// domainLength returns the global physical extent along the axis, the L in
// the relaxation coefficients.
func (b *Block) domainLength(a int) float64 {
	switch a {
	case 0:
		return b.cfg.Grid.Lx
	case 1:
		return b.cfg.Grid.Ly
	default:
		return b.cfg.Grid.Lz
	}
}

// charRow applies face (a, side) at the points [x0, x1) of row (j, k) on its
// plane; each point updates only its own rhs entries.
func (b *Block) charRow(ws *kernScratch, a, side, x0, x1, j, k int, t float64) {
	bc := b.faceBC[a][side]
	L := b.domainLength(a)
	set := b.mech.Set
	ns := b.ns
	species := set.Species
	t1a := (a + 1) % 3 // first tangential axis
	t2a := (a + 2) % 3
	vel := [3]*grid.Field3{b.U, b.V, b.W}
	rs := &ws.rows

	b.normalRows(rs, a, x0, x1, j, k)
	for i := x0; i < x1; i++ {
		r := i - x0
		rho := b.Rho.At(i, j, k)
		p := b.P.At(i, j, k)
		T := b.T.At(i, j, k)
		b.gatherYInto(ws.yw, i, j, k)
		c := set.SoundSpeed(T, ws.yw)
		un := vel[a].At(i, j, k)
		ut1 := vel[t1a].At(i, j, k)
		ut2 := vel[t2a].At(i, j, k)
		mach := math.Abs(un) / c
		oneM2 := 1 - mach*mach
		if oneM2 < 0.05 {
			oneM2 = 0.05
		}

		// One-sided normal derivatives from the plane row's scratch.
		dp := rs.dp[r]
		drho := rs.drho[r]
		dun := rs.du[a][a][r]
		dut1 := rs.du[t1a][a][r]
		dut2 := rs.du[t2a][a][r]

		// Wave amplitudes from the interior (outgoing values).
		l1 := (un - c) * (dp - rho*c*dun)
		l2 := un * (c*c*drho - dp)
		l3 := un * dut1
		l4 := un * dut2
		l5 := (un + c) * (dp + rho*c*dun)
		lY := ws.hw // scratch: species wave amplitudes
		for sp := 0; sp < ns; sp++ {
			lY[sp] = un * rs.dY[a][sp][r]
		}

		// Override incoming amplitudes per boundary type.
		switch bc {
		case OutflowNSCBC:
			kp := sigmaOut * c * oneM2 / L
			if side == 0 {
				l5 = kp * (p - b.cfg.PInf) // incoming at a low face travels +n
			} else {
				l1 = kp * (p - b.cfg.PInf)
			}
		case InflowNSCBC:
			// The target's normal component is U whatever the
			// face axis.
			tgt := &ws.tgt
			b.cfg.Inflow(b.G.Yc[j], b.G.Zc[k], t, tgt)
			ku := etaIn * rho * c * c * oneM2 / L
			kt := etaIn * c / L
			if side == 0 {
				l5 = ku * (un - tgt.U)
			} else {
				l1 = -ku * (un - tgt.U)
			}
			l2 = -etaIn * (c / L) * rho * c * c * (T - tgt.T) / T
			tgtT1, tgtT2 := tangentialTargets(a, tgt)
			l3 = kt * (ut1 - tgtT1)
			l4 = kt * (ut2 - tgtT2)
			for sp := 0; sp < ns; sp++ {
				lY[sp] = kt * (ws.yw[sp] - tgt.Y[sp])
			}
		}

		// LODI d-vector.
		d1 := (l2 + 0.5*(l5+l1)) / (c * c)
		d2 := 0.5 * (l5 + l1)
		d3 := (l5 - l1) / (2 * rho * c)
		d4 := l3
		d5 := l4

		// Primitive time derivatives from the characteristic normal terms.
		drhoDt := -d1
		dpDt := -d2
		duDt := [3]float64{}
		duDt[a] = -d3
		duDt[t1a] = -d4
		duDt[t2a] = -d5
		dYDt := ws.cw // scratch
		for sp := 0; sp < ns; sp++ {
			dYDt[sp] = -lY[sp]
		}

		// Mixture quantities for the energy conversion.
		W := b.Wmix.At(i, j, k)
		cp := set.CpMass(T, ws.yw)
		var dWDt float64
		for sp := 0; sp < ns; sp++ {
			dWDt += dYDt[sp] / species[sp].W
		}
		dWDt *= -W * W
		dTDt := T * (dpDt/p - drhoDt/rho + dWDt/W)
		var dhDt float64
		var hMix float64
		for sp := 0; sp < ns; sp++ {
			hsp := species[sp].H(T)
			hMix += ws.yw[sp] * hsp
			dhDt += hsp * dYDt[sp]
		}
		dhDt += cp * dTDt

		uVec := [3]float64{b.U.At(i, j, k), b.V.At(i, j, k), b.W.At(i, j, k)}
		ke := 0.5 * (uVec[0]*uVec[0] + uVec[1]*uVec[1] + uVec[2]*uVec[2])
		dRhoE := hMix*drhoDt + rho*dhDt - dpDt + ke*drhoDt +
			rho*(uVec[0]*duDt[0]+uVec[1]*duDt[1]+uVec[2]*duDt[2])

		// Conventional normal inviscid flux derivative at this point, to
		// be removed from the RHS (the divergence already subtracted it).
		dphi := b.normalInviscidDeriv(ws, a, side, i, j, k)

		// rhs_new = rhs_old + ∂φ_inv/∂n + ddt_char.
		b.rhs[iRho].Add(i, j, k, dphi[iRho]+drhoDt)
		for comp := 0; comp < 3; comp++ {
			b.rhs[iRhoU+comp].Add(i, j, k,
				dphi[iRhoU+comp]+uVec[comp]*drhoDt+rho*duDt[comp])
		}
		b.rhs[iRhoE].Add(i, j, k, dphi[iRhoE]+dRhoE)
		for sp := 0; sp < ns-1; sp++ {
			b.rhs[iY0+sp].Add(i, j, k,
				dphi[iY0+sp]+ws.yw[sp]*drhoDt+rho*dYDt[sp])
		}
	}
}

// normalRows differentiates ρ, p, u, v, w and every Yₙ (normalSrc) along the
// face normal a over the points [x0, x1) of plane row (j, k) into the
// worker's row scratch (drho, dp, du[·][a], dY[a]) in one DiffRows call: the
// one-sided closure points DiffRange gives those points, which the wave
// amplitudes read.
func (b *Block) normalRows(rs *rowScratch, a, x0, x1, j, k int) {
	axis := grid.Axis(a)
	lo, hi := b.lohi(axis)
	deriv.DiffRows(rs.normalDst[a], b.normalSrc, axis, b.G.Metric(axis), lo, hi, x0, x1, j, k)
}

// tangentialTargets maps the inflow target velocity vector onto the face's
// tangential axes.
func tangentialTargets(a int, tgt *InflowState) (float64, float64) {
	v := [3]float64{tgt.U, tgt.V, tgt.W}
	return v[(a+1)%3], v[(a+2)%3]
}

// normalInviscidDeriv computes ∂φ_inv/∂n for every conserved variable at a
// boundary point with the same one-sided stencil the divergence used, where
// φ_inv is the inviscid part of the normal flux (convection + pressure).
// Results land in the worker's nvOut buffer (valid until its next call), so
// the per-point hot path allocates nothing.
func (b *Block) normalInviscidDeriv(ws *kernScratch, a, side, i, j, k int) []float64 {
	met := b.G.Metric(grid.Axis(a))
	nvar := b.nvar
	out := ws.nvOut
	for v := 0; v < nvar; v++ {
		out[v] = 0
	}
	flux := ws.nvFlux
	idx := [3]int{i, j, k}
	bi := idx[a]
	for m := 0; m < 5; m++ {
		off := m
		w := deriv.OneSided4[m]
		if side == 1 {
			off = -m
			w = -w
		}
		pt := idx
		pt[a] = bi + off
		b.inviscidNormalFlux(a, pt[0], pt[1], pt[2], flux)
		for v := 0; v < nvar; v++ {
			out[v] += w * flux[v]
		}
	}
	for v := 0; v < nvar; v++ {
		out[v] *= met[bi]
	}
	return out
}

// inviscidNormalFlux fills flux with the inviscid normal flux components at
// a point: mass ρu_n; momentum ρu_c·u_n + δ_cn·p; energy u_n(ρe₀+p);
// species ρY·u_n.
func (b *Block) inviscidNormalFlux(a, i, j, k int, flux []float64) {
	rho := b.Rho.At(i, j, k)
	p := b.P.At(i, j, k)
	u := [3]float64{b.U.At(i, j, k), b.V.At(i, j, k), b.W.At(i, j, k)}
	un := u[a]
	flux[iRho] = rho * un
	for c := 0; c < 3; c++ {
		f := rho * u[c] * un
		if c == a {
			f += p
		}
		flux[iRhoU+c] = f
	}
	flux[iRhoE] = un * (b.Q[iRhoE].At(i, j, k) + p)
	for n := 0; n < b.ns-1; n++ {
		flux[iY0+n] = rho * b.Y[n].At(i, j, k) * un
	}
}
