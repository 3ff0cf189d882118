package solver

import (
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
// 4% of peak). Two implementations are provided, reproducing the figure 4/5
// optimisation study. They differ in memory-access structure alone: both
// evaluate (Yₙ/W)·∂W, ((−ρ)·Dₙ)·(∂Yₙ + ·), the species sum ascending from +0
// and J*ₙ − Yₙ·Σ in that association, so they agree bit for bit
// (TestDiffFluxKernelsAgree) and the solution hashes hold on either:
//
//   - computeDiffFluxFused, the default, is the LoopTool-transformed form:
//     conditionals unswitched, array statements scalarised and fused into a
//     single triply-nested loop, so loaded values (ρ, W, Yₙ, ρDₙ) are reused
//     from registers across species and directions.
//   - computeDiffFluxNaive mirrors the original Fortran-90 array-syntax
//     code: one full-grid array statement at a time, per direction and
//     species, with temporary arrays and shared subexpressions re-read from
//     memory on every sweep — the version that evicts every 50³ slice from
//     cache before it can be reused. It runs only when Config.DiffFlux
//     selects it (the figure-4 ablation).
//
// Both visit the active directions only: along a one-point axis every
// gradient is zero and no J field is registered.
func (b *Block) computeDiffFlux() {
	defer b.beginRegion("COMPUTESPECIESDIFFFLUX").End()
	if b.cfg.DiffFlux == DiffFluxNaive {
		b.computeDiffFluxNaive()
		return
	}
	b.computeDiffFluxFused()
}

// PrepareDiffFluxInputs runs exactly the RHS stages the diffusive-flux
// kernel depends on (ghost fill, primitives, transport, gradients), so
// benchmarks can time the kernel in isolation (the figure-4 methodology:
// HPCToolkit pinned this loop nest alone).
func (b *Block) PrepareDiffFluxInputs() {
	b.exchangeHalos(b.haloQ, tagConserved)
	b.computePrimitives()
	b.computeTransport()
	b.computeGradients()
}

// DiffFluxKernelOnly invokes just the configured diffusive-flux kernel;
// inputs must have been prepared by PrepareDiffFluxInputs.
func (b *Block) DiffFluxKernelOnly() { b.computeDiffFlux() }

// naiveScratch returns the temporary arrays the array-syntax code relies
// on; they are registered in the block's field arena ("naive_t1"/"naive_t2").
func (b *Block) naiveScratch() (*grid.Field3, *grid.Field3) {
	return b.naiveT1, b.naiveT2
}

// eachRowTile invokes fn with the flat start index of every interior row in
// the tile, so the array statements below run over contiguous unit-stride
// spans (as the compiled Fortran 90 array syntax did) — the naive version's
// cost is its memory traffic, not its indexing. Each array statement is a
// separate tiled sweep with a barrier between statements, preserving the
// statement-at-a-time structure whose cache behaviour figure 4 dissects.
func (b *Block) eachRowTile(t par.Tile, fn func(row int)) {
	for k := t.Lo[2]; k < t.Hi[2]; k++ {
		for j := t.Lo[1]; j < t.Hi[1]; j++ {
			fn(b.Rho.Idx(0, j, k))
		}
	}
}

// naiveSweep runs one array statement over the interior, row-parallel. The
// interior is tiled with the i axis frozen so fn always spans whole rows.
func (b *Block) naiveSweep(fn func(row int)) {
	r := par.Interior(b.G.Nx, b.G.Ny, b.G.Nz)
	b.plan.RunFrozen("COMPUTESPECIESDIFFFLUX", r, 0, func(t par.Tile, _ int) {
		b.eachRowTile(t, fn)
	})
}

// computeDiffFluxNaive: per (direction, species) full-grid array sweeps.
// Each array statement re-reads its operands from memory; every 50³ slice
// of the 5-D diffFlux array "almost completely fills the 1 MB secondary
// cache", so nothing is reused between sweeps (paper §4.1, figure 4).
func (b *Block) computeDiffFluxNaive() {
	g := b.g
	ns := b.ns
	t1, t2 := b.naiveScratch()
	nx := b.G.Nx
	for _, m := range b.active {
		dw := g.dW[m]
		for n := 0; n < ns; n++ {
			yn := b.Y[n].Data
			wmix := b.Wmix.Data
			dy := g.dY[n][m]
			dn := g.d[n]
			rho := b.Rho.Data
			jmn := b.J[m][n].Data
			// tmp1 = Y_n/W · dW_m        (array statement 1)
			b.naiveSweep(func(row int) {
				for i := row; i < row+nx; i++ {
					t1.Data[i] = yn[i] / wmix[i] * dw[i]
				}
			})
			// tmp2 = dY_nm + tmp1        (array statement 2)
			b.naiveSweep(func(row int) {
				for i := row; i < row+nx; i++ {
					t2.Data[i] = dy[i] + t1.Data[i]
				}
			})
			// J*_nm = −ρ·D_n·tmp2        (array statement 3)
			b.naiveSweep(func(row int) {
				for i := row; i < row+nx; i++ {
					jmn[i] = -rho[i] * dn[i] * t2.Data[i]
				}
			})
		}
		// Correction: sum over species (array reduction), then subtract —
		// two more passes over the full 4-D slab.
		b.naiveSweep(func(row int) {
			for i := row; i < row+nx; i++ {
				t1.Data[i] = 0
			}
		})
		for n := 0; n < ns; n++ {
			jmn := b.J[m][n].Data
			b.naiveSweep(func(row int) {
				for i := row; i < row+nx; i++ {
					t1.Data[i] += jmn[i]
				}
			})
		}
		for n := 0; n < ns; n++ {
			jmn := b.J[m][n].Data
			yn := b.Y[n].Data
			b.naiveSweep(func(row int) {
				for i := row; i < row+nx; i++ {
					jmn[i] -= yn[i] * t1.Data[i]
				}
			})
		}
	}
}

// computeDiffFluxFused: one pass over the interior, tiled over the pool,
// with per-worker (−ρ)·Dₙ, Yₙ/W and J* scratch vectors.
func (b *Block) computeDiffFluxFused() {
	b.plan.Run("COMPUTESPECIESDIFFFLUX", b.interior(), func(t par.Tile, worker int) {
		b.diffFluxFusedTile(t, &b.ws[worker])
	})
}

// diffFluxFusedTile evaluates every product in the naive kernel's
// association. The naive kernel rounds each array statement through memory;
// the float64 conversions round the same products here, so a compiler that
// fuses multiply-adds cannot make the two kernels differ.
func (b *Block) diffFluxFusedTile(t par.Tile, ws *kernScratch) {
	g := b.g
	ns := b.ns
	active := b.active
	negRhoD := ws.hw // per-point scratch: (−ρ)·Dₙ
	yOverW := ws.yw  // Yₙ/W
	jstar := ws.cw
	for k := t.Lo[2]; k < t.Hi[2]; k++ {
		for j := t.Lo[1]; j < t.Hi[1]; j++ {
			row := b.Rho.Idx(0, j, k)
			for i := t.Lo[0]; i < t.Hi[0]; i++ {
				p := row + i
				rho := b.Rho.Data[p]
				w := b.Wmix.Data[p]
				// Loaded once, reused across the directions.
				for n := 0; n < ns; n++ {
					negRhoD[n] = -rho * g.d[n][p]
					yOverW[n] = b.Y[n].Data[p] / w
				}
				for _, m := range active {
					dw := g.dW[m][p]
					var sum float64
					for n := 0; n < ns; n++ {
						js := negRhoD[n] * (g.dY[n][m][p] + float64(yOverW[n]*dw))
						jstar[n] = js
						sum += js
					}
					for n := 0; n < ns; n++ {
						b.J[m][n].Data[p] = jstar[n] - float64(b.Y[n].Data[p]*sum)
					}
				}
			}
		}
	}
}
