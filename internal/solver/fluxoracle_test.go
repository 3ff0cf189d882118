package solver

import (
	"math"
	"testing"

	"github.com/s3dgo/s3d/internal/deriv"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/transport"
)

// The oracles below are the flux stage and the divergence as they were
// before either became a row loop: one DiffRow per field and axis, the
// fluxes assembled point by point from a [3][3] stress tensor with fifteen
// stores per point, and the divergence as four whole-tile passes (set, add,
// add, ×(−1)). The transport properties come from transport.Mixture called
// here, point by point, with the oracle's own model and properties. The
// oracles share jRow with the stage they referee, and nothing else.

// oracleFluxRow is the per-point flux assembly of row (j, k) into want,
// evaluating transport through tr (mixture-averaged: no constant-Lewis case
// is refereed here).
func oracleFluxRow(b *Block, tr *transport.Model, rs *rowScratch, want [][3]*grid.Field3, x0, x1, j, k int) {
	w := x1 - x0
	p0 := b.Rho.Idx(x0, j, k)
	ns := b.ns
	props := transport.Props{Dmix: make([]float64, ns)}
	y := make([]float64, ns)
	muRow, lamRow := make([]float64, w), make([]float64, w)
	for _, d := range b.active {
		a := grid.Axis(d)
		lo, hi := b.lohi(a)
		met := b.G.Metric(a)
		deriv.DiffRow(rs.du[0][d], b.U, a, met, lo, hi, x0, x1, j, k, deriv.OpSet)
		deriv.DiffRow(rs.du[1][d], b.V, a, met, lo, hi, x0, x1, j, k, deriv.OpSet)
		deriv.DiffRow(rs.du[2][d], b.W, a, met, lo, hi, x0, x1, j, k, deriv.OpSet)
		deriv.DiffRow(rs.dT[d], b.T, a, met, lo, hi, x0, x1, j, k, deriv.OpSet)
		deriv.DiffRow(rs.dW[d], b.Wmix, a, met, lo, hi, x0, x1, j, k, deriv.OpSet)
		for n := 0; n < ns; n++ {
			deriv.DiffRow(rs.dY[d][n], b.Y[n], a, met, lo, hi, x0, x1, j, k, deriv.OpSet)
		}
	}
	for i := 0; i < w; i++ {
		x := p0 + i
		for n := range y {
			y[n] = b.Y[n].Data[x]
		}
		tr.Mixture(b.T.Data[x], b.P.Data[x], y, &props)
		muRow[i], lamRow[i] = props.Mu, props.Lambda
		for n := range y {
			rs.negRhoD[n][i] = -b.Rho.Data[x] * props.Dmix[n]
			rs.yOverW[n][i] = y[n] / b.Wmix.Data[x]
		}
	}
	for n := range rs.y {
		rs.y[n] = b.Y[n].Data[p0 : p0+w]
	}
	for _, d := range b.active {
		jRow(rs.j[d], rs.dY[d], rs.negRhoD, rs.yOverW, rs.y, rs.dW[d], rs.sum[:w])
	}
	for n, sp := range b.mech.Set.Species {
		for i := 0; i < w; i++ {
			rs.h[n][i] = sp.H(b.T.Data[p0+i])
		}
	}
	for _, d := range b.active {
		for i := 0; i < w; i++ {
			rs.q[d][i] = -lamRow[i] * rs.dT[d][i]
		}
		for n := 0; n < ns; n++ {
			for i := 0; i < w; i++ {
				rs.q[d][i] += rs.h[n][i] * rs.j[d][n][i]
			}
		}
	}
	for i := 0; i < w; i++ {
		x := p0 + i
		rho, p, mu, rhoE := b.Rho.Data[x], b.P.Data[x], muRow[i], b.Q[iRhoE].Data[x]
		u := [3]float64{b.U.Data[x], b.V.Data[x], b.W.Data[x]}
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
		for _, d := range b.active {
			want[iRho][d].Data[x] = rho * u[d]
			for c := 0; c < 3; c++ {
				f := rho*u[c]*u[d] - tau[c][d]
				if c == d {
					f += p
				}
				want[iRhoU+c][d].Data[x] = f
			}
			fe := u[d]*(rhoE+p) + rs.q[d][i]
			for c := 0; c < 3; c++ {
				fe -= tau[c][d] * u[c]
			}
			want[iRhoE][d].Data[x] = fe
			for n := 0; n < ns-1; n++ {
				want[iY0+n][d].Data[x] = rho*b.Y[n].Data[x]*u[d] + rs.j[d][n][i]
			}
		}
	}
}

// oracleDivergence is the four-pass divergence of flux into rhs over the
// interior: the x derivative set (or +0 along a one-point x axis), y and z
// each differentiated into scratch and added, then the whole box scaled by a
// −1 the compiler cannot see (the multiply, as the pass did it).
func oracleDivergence(b *Block, rhs, scratch *grid.Field3, flux [3]*grid.Field3, neg float64) {
	in := b.interior()
	if !b.isActive(0) {
		rhs.FillRange(0, in.Lo, in.Hi)
	}
	for _, d := range b.active {
		a := grid.Axis(d)
		lo, hi := b.lohi(a)
		dst := rhs
		if d != 0 {
			dst = scratch
		}
		deriv.DiffRange(dst, flux[d], a, b.G.Metric(a), lo, hi, in.Lo, in.Hi)
		if d != 0 {
			for p := range rhs.Data {
				rhs.Data[p] += scratch.Data[p]
			}
		}
	}
	for k := 0; k < b.G.Nz; k++ {
		for j := 0; j < b.G.Ny; j++ {
			r := rhs.Row(j, k)
			for i := range r {
				r[i] *= neg
			}
		}
	}
}

// interiorDiff returns the first interior point where got and want differ.
func interiorDiff(got, want *grid.Field3) (i, j, k int, ok bool) {
	for k := 0; k < got.Nz; k++ {
		for j := 0; j < got.Ny; j++ {
			for i := 0; i < got.Nx; i++ {
				if math.Float64bits(got.At(i, j, k)) != math.Float64bits(want.At(i, j, k)) {
					return i, j, k, false
				}
			}
		}
	}
	return 0, 0, 0, true
}

// TestFluxRowsMatchPerPointOracle: after EvalRHS every flux[v][d] and every
// rhs[v] carries the bits of the per-point assembly and the four-pass
// divergence — on the periodic 3-D air box, the reacting 2-D H2 jet with
// NSCBC faces, a block whose x axis has one point (the divergence starts
// from +0 and adds y and z), at one worker and at three over extents no
// tiling divides evenly. The rhs oracle re-runs the chemistry and NSCBC
// stages of the block itself on top of the oracle divergence.
func TestFluxRowsMatchPerPointOracle(t *testing.T) {
	airBox := func(pool *par.Pool) *Config {
		cfg := airConfig(13, 11, 7, 0.004)
		cfg.Pool = pool
		return cfg
	}
	airIC := func(b *Block) {
		Y := airY(b.cfg)
		b.SetState(func(x, y, z float64, s *InflowState) {
			px, py, pz := 2*math.Pi*x/0.004, 2*math.Pi*y/0.004, 2*math.Pi*z/0.004
			s.U = 3 * math.Sin(px) * math.Cos(py)
			s.V = -2 * math.Cos(px) * math.Sin(pz)
			s.W = math.Sin(py + pz)
			s.T = 300 + 40*math.Cos(px+py)*math.Sin(pz)
			copy(s.Y, Y)
		}, nil)
	}
	cases := []struct {
		name   string
		config func(*par.Pool) *Config
		ic     func(*Block)
	}{
		{"airbox13x11x7", airBox, airIC},
		{"jet25x17x1", degenerateCase{nx: 25, ny: 17, nz: 1, jet: true}.config, degenerateIC},
		{"xline1x11x9", degenerateCase{nx: 1, ny: 11, nz: 9}.config, degenerateIC},
	}
	const tRHS = 3 * degDt
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			pool := par.NewPool(workers)
			cfg := tc.config(pool)
			b, err := NewSerial(cfg)
			if err != nil {
				pool.Close()
				t.Fatal(err)
			}
			tc.ic(b)
			b.Advance(2, degDt)
			b.EvalRHS(tRHS)

			rs := newRowScratch(b.G.Nx, b.ns, b.active)
			tr := transport.MustNew(cfg.Mech.Set)
			want := make([][3]*grid.Field3, b.nvar)
			for v := range want {
				for _, d := range b.active {
					want[v][d] = b.flux[v][d].Clone()
				}
			}
			for k := 0; k < b.G.Nz; k++ {
				for j := 0; j < b.G.Ny; j++ {
					oracleFluxRow(b, tr, &rs, want, 0, b.G.Nx, j, k)
				}
			}
			for v := range want {
				for _, d := range b.active {
					if i, j, k, ok := interiorDiff(b.flux[v][d], want[v][d]); !ok {
						t.Fatalf("%s workers=%d: flux[%d][%d] at (%d,%d,%d) = %x, per-point oracle %x", tc.name, workers,
							v, d, i, j, k, math.Float64bits(b.flux[v][d].At(i, j, k)), math.Float64bits(want[v][d].At(i, j, k)))
					}
				}
			}

			got := make([]*grid.Field3, b.nvar)
			scratch := b.rhs[0].Clone()
			for v := range got {
				got[v] = b.rhs[v].Clone()
				oracleDivergence(b, b.rhs[v], scratch, b.flux[v], -1)
			}
			if !cfg.ChemistryOff {
				b.chemSource()
			}
			b.applyNSCBC(tRHS)
			for v := range got {
				if i, j, k, ok := interiorDiff(got[v], b.rhs[v]); !ok {
					t.Fatalf("%s workers=%d: rhs[%d] at (%d,%d,%d) = %x, four-pass oracle %x", tc.name, workers,
						v, i, j, k, math.Float64bits(got[v].At(i, j, k)), math.Float64bits(b.rhs[v].At(i, j, k)))
				}
			}
			pool.Close()
		}
	}
}
