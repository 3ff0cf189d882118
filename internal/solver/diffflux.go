package solver

import (
	"github.com/s3dgo/s3d/internal/deriv"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
)

// The diffusive-flux computation (paper figure 4) evaluates, for every
// direction m and species n, the mixture-averaged species diffusive flux
//
//	J*ₙₘ = −ρ·Dₙ·(∂Yₙ/∂xₘ + (Yₙ/W)·∂W/∂xₘ)        (paper eq. 19)
//
// followed by the correction flux that enforces Σₙ Jₙₘ = 0 (paper eq. 15):
//
//	Jₙₘ = J*ₙₘ − Yₙ·Σₖ J*ₖₘ.
//
// This 5-D loop nest was the most costly kernel in S3D (11.3% of runtime at
// 4% of peak). The RHS runs it as step (2) of the pencil-fused flux stage,
// one x-row at a time in worker scratch (jRow); no J field is stored.

// jRow forms Jₙ of one direction over a row into j[n] in the figure-4
// kernel's association: J*ₙ = ((−ρ)·Dₙ)·(∂Yₙ + (Yₙ/W)·∂W), the species sum
// ascending from +0, Jₙ = J*ₙ − Yₙ·Σ. The float64 conversions round each
// product as the array-statement kernel rounds it through memory, so no
// multiply-add fusion can make the two differ. sum is scratch of row length.
func jRow(j, dY, negRhoD, yOverW, y [][]float64, dW, sum []float64) {
	w := len(sum)
	dW = dW[:w]
	for n := range j {
		jn, dy, nrd, yw := j[n][:w], dY[n][:w], negRhoD[n][:w], yOverW[n][:w]
		for i := range jn {
			jn[i] = nrd[i] * (dy[i] + float64(yw[i]*dW[i]))
		}
	}
	clear(sum)
	for n := range j {
		jn := j[n][:w]
		for i := range sum {
			sum[i] += jn[i]
		}
	}
	for n := range j {
		jn, yn := j[n][:w], y[n][:w]
		for i := range jn {
			jn[i] -= float64(yn[i] * sum[i])
		}
	}
}

// PrepareDiffFluxInputs runs exactly PrepareAssembleInputs.
//
// Deprecated: the diffusive fluxes are formed in the flux row, so there is
// no separate diffusive-flux stage to prepare. The method remains only
// because the frozen benchmark/probes.go names it.
func (b *Block) PrepareDiffFluxInputs() { b.PrepareAssembleInputs() }

// DiffFluxKernelOnly runs exactly AssembleFluxesOnly.
//
// Deprecated: the diffusive fluxes are formed in the flux row, so timing
// this times the whole flux stage, as AssembleFluxesOnly does. The method
// remains only because the frozen benchmark/probes.go names it.
func (b *Block) DiffFluxKernelOnly() { b.AssembleFluxesOnly() }

// DiffFluxStudy is the figure-4/5 kernel study: the diffusive-flux loop nest
// alone, in its Fortran-90 array-statement form (Naive) and the
// LoopTool-transformed form the RHS runs (Fused), over full-block
// diffusivity, gradient and J arrays the study owns — the step stores none.
// The two differ in memory-access structure alone and agree bit for bit
// (TestDiffFluxKernelsAgree).
type DiffFluxStudy struct {
	b      *Block
	d      [][]float64    // Dₙ per species, block storage layout
	dY     [3][][]float64 // ∂Yₙ/∂x_d: [dir][species], block storage layout
	dW     [3][]float64
	j      [3][][]float64 // Jₙ along d: [dir][species]
	t1, t2 []float64      // Naive's array temporaries
	// views holds each worker's row views of j[d] and dY[d] for Fused.
	views [][2][][]float64
}

// NewDiffFluxStudy prepares the study on b: the RHS stages the kernel reads
// (PrepareAssembleInputs), then Dₙ over every interior row — the flux row's
// transport evaluation, diffusivityRows — and ∂Yₙ and ∂W along every active
// axis into the study's own arrays.
func (b *Block) NewDiffFluxStudy() *DiffFluxStudy {
	b.PrepareAssembleInputs()
	size := b.fs.FieldLen()
	s := &DiffFluxStudy{b: b, t1: make([]float64, size), t2: make([]float64, size),
		views: make([][2][][]float64, len(b.ws))}
	for range b.ns {
		s.d = append(s.d, make([]float64, size))
	}
	d := make([][]float64, b.ns)
	for k := range b.G.Nz {
		for j := range b.G.Ny {
			p := b.Rho.Idx(0, j, k)
			for n := range d {
				d[n] = s.d[n][p : p+b.G.Nx]
			}
			b.diffusivityRows(&b.ws[0], p, b.G.Nx, d)
		}
	}
	for w := range s.views {
		s.views[w] = [2][][]float64{make([][]float64, b.ns), make([][]float64, b.ns)}
	}
	for _, d := range b.active {
		a := grid.Axis(d)
		lo, hi := b.lohi(a)
		diff := func(f *grid.Field3) []float64 {
			out := grid.Scratch("d"+a.String(), b.G.Nx, b.G.Ny, b.G.Nz, grid.Ghost)
			deriv.Diff(out, f, a, b.G.Metric(a), lo, hi)
			return out.Data
		}
		s.dW[d] = diff(b.Wmix)
		for n := 0; n < b.ns; n++ {
			s.dY[d] = append(s.dY[d], diff(b.Y[n]))
			s.j[d] = append(s.j[d], make([]float64, size))
		}
	}
	return s
}

// J returns the diffusive flux of species n along axis d as the last kernel
// left it, in the block's storage layout (interior points valid).
func (s *DiffFluxStudy) J(d, n int) []float64 { return s.j[d][n] }

// Naive runs the array-statement form: per (direction, species) full-grid
// sweeps with two temporaries, 23 per direction for H2. Each statement
// re-reads its operands from memory; every 50³ slice of the 5-D diffFlux
// array "almost completely fills the 1 MB secondary cache", so nothing is
// reused between sweeps (paper §4.1, figure 4).
func (s *DiffFluxStudy) Naive() {
	b := s.b
	t1, t2 := s.t1, s.t2
	nx := b.G.Nx
	rho, wmix := b.Rho.Data, b.Wmix.Data
	for _, m := range b.active {
		dw := s.dW[m]
		for n := 0; n < b.ns; n++ {
			yn, dy, dn, jmn := b.Y[n].Data, s.dY[m][n], s.d[n], s.j[m][n]
			// tmp1 = Y_n/W · dW_m        (array statement 1)
			s.sweep(func(row int) {
				for i := row; i < row+nx; i++ {
					t1[i] = yn[i] / wmix[i] * dw[i]
				}
			})
			// tmp2 = dY_nm + tmp1        (array statement 2)
			s.sweep(func(row int) {
				for i := row; i < row+nx; i++ {
					t2[i] = dy[i] + t1[i]
				}
			})
			// J*_nm = −ρ·D_n·tmp2        (array statement 3)
			s.sweep(func(row int) {
				for i := row; i < row+nx; i++ {
					jmn[i] = -rho[i] * dn[i] * t2[i]
				}
			})
		}
		// Correction: sum over species (array reduction), then subtract —
		// two more passes over the full 4-D slab.
		s.sweep(func(row int) {
			for i := row; i < row+nx; i++ {
				t1[i] = 0
			}
		})
		for n := 0; n < b.ns; n++ {
			jmn := s.j[m][n]
			s.sweep(func(row int) {
				for i := row; i < row+nx; i++ {
					t1[i] += jmn[i]
				}
			})
		}
		for n := 0; n < b.ns; n++ {
			jmn, yn := s.j[m][n], b.Y[n].Data
			s.sweep(func(row int) {
				for i := row; i < row+nx; i++ {
					jmn[i] -= yn[i] * t1[i]
				}
			})
		}
	}
}

// sweep runs one array statement over the interior, row-parallel, with fn
// receiving the flat start index of every interior row: the interior is
// tiled with the i axis frozen so fn always spans whole contiguous rows (as
// the compiled Fortran 90 array syntax did — the naive form's cost is its
// memory traffic, not its indexing), and each statement is a tiled sweep of
// its own with a barrier after it, preserving the statement-at-a-time
// structure whose cache behaviour figure 4 dissects.
func (s *DiffFluxStudy) sweep(fn func(row int)) {
	b := s.b
	b.plan.RunFrozen("COMPUTESPECIESDIFFFLUX", b.interior(), 0, func(t par.Tile, _ int) {
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				fn(b.Rho.Idx(0, j, k))
			}
		}
	})
}

// Fused runs the RHS's own diffusive-flux rows (jRow) over every interior
// row: unswitched, scalarised and fused, (−ρ)·Dₙ and Yₙ/W formed once per
// point and reused by every direction.
func (s *DiffFluxStudy) Fused() {
	b := s.b
	b.plan.Run("COMPUTESPECIESDIFFFLUX", b.interior(), func(t par.Tile, worker int) {
		rs := &b.ws[worker].rows
		jv, dyv := s.views[worker][0], s.views[worker][1]
		w := t.Hi[0] - t.Lo[0]
		for k := t.Lo[2]; k < t.Hi[2]; k++ {
			for j := t.Lo[1]; j < t.Hi[1]; j++ {
				p := b.Rho.Idx(t.Lo[0], j, k)
				s.diffusionRows(rs, p, w)
				for _, d := range b.active {
					for n := range jv {
						jv[n], dyv[n] = s.j[d][n][p:p+w], s.dY[d][n][p:p+w]
					}
					jRow(jv, dyv, rs.negRhoD, rs.yOverW, rs.y, s.dW[d][p:p+w], rs.sum[:w])
				}
			}
		}
	})
}

// diffusionRows fills the per-species rows jRow reads at the w points from
// flat index p0 from the study's Dₙ arrays, as the flux row's transportRows
// fills them: (−ρ)·Dₙ and Yₙ/W in the worker's scratch, and views of the Yₙ
// rows.
func (s *DiffFluxStudy) diffusionRows(rs *rowScratch, p0, w int) {
	b := s.b
	rho, wmix := b.Rho.Data[p0:p0+w], b.Wmix.Data[p0:p0+w]
	for n := 0; n < b.ns; n++ {
		y, dn := b.Y[n].Data[p0:p0+w], s.d[n][p0:p0+w]
		nrd, yw := rs.negRhoD[n][:w], rs.yOverW[n][:w]
		for i := range nrd {
			nrd[i] = -rho[i] * dn[i]
			yw[i] = y[i] / wmix[i]
		}
		rs.y[n] = y
	}
}
