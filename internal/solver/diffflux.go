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
// optimisation study. They differ in memory-access structure and in one
// association — (Yₙ/W)·∂W versus Yₙ·(∂W·(1/W)) — so they agree to 1e-12
// relative (TestDiffFluxKernelsAgree), not bit for bit. The default
// (Config.DiffFlux zero value) is still the naive figure-4 form; the seed
// solution hash is pinned on it:
//
//   - computeDiffFluxNaive mirrors the original Fortran-90 array-syntax
//     code: one full-grid array statement at a time, per direction and
//     species, with temporary arrays and shared subexpressions re-read from
//     memory on every sweep — the version that evicts every 50³ slice from
//     cache before it can be reused.
//   - computeDiffFluxOptimized is the LoopTool-transformed equivalent:
//     conditionals unswitched, array statements scalarised and fused into a
//     single triply-nested loop, species loop unroll-and-jammed, so loaded
//     values (ρ, W-gradient terms, Yₙ) are reused from registers.
func (b *Block) computeDiffFlux() {
	defer b.beginRegion("COMPUTESPECIESDIFFFLUX").End()
	switch b.cfg.DiffFlux {
	case DiffFluxOptimized:
		b.computeDiffFluxOptimized()
	default:
		b.computeDiffFluxNaive()
	}
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
	for m := 0; m < 3; m++ {
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

// computeDiffFluxOptimized: fused single pass with register reuse and a
// two-way unroll-and-jam over species, tiled over the pool with per-worker
// ρD and J* scratch vectors.
func (b *Block) computeDiffFluxOptimized() {
	r := par.Interior(b.G.Nx, b.G.Ny, b.G.Nz)
	b.plan.Run("COMPUTESPECIESDIFFFLUX", r, func(t par.Tile, worker int) {
		b.diffFluxOptimizedTile(t, &b.ws[worker])
	})
}

func (b *Block) diffFluxOptimizedTile(t par.Tile, ws *kernScratch) {
	g := b.g
	ns := b.ns
	rhoD := ws.hw // per-point scratch: ρ·D_n
	jstar := ws.cw
	for k := t.Lo[2]; k < t.Hi[2]; k++ {
		for j := t.Lo[1]; j < t.Hi[1]; j++ {
			rowRho := b.Rho.Idx(0, j, k)
			rowW := b.Wmix.Idx(0, j, k)
			for i := t.Lo[0]; i < t.Hi[0]; i++ {
				rho := b.Rho.Data[rowRho+i]
				invW := 1 / b.Wmix.Data[rowW+i]
				// ρDₙ loaded once, reused across the three directions.
				nEven := ns - ns%2
				for n := 0; n < nEven; n += 2 {
					rhoD[n] = rho * g.d[n][rowRho+i]
					rhoD[n+1] = rho * g.d[n+1][rowRho+i]
				}
				for n := nEven; n < ns; n++ {
					rhoD[n] = rho * g.d[n][rowRho+i]
				}
				for m := 0; m < 3; m++ {
					dw := g.dW[m][rowW+i] * invW
					var sum float64
					for n := 0; n < nEven; n += 2 {
						j0 := -rhoD[n] * (g.dY[n][m][rowRho+i] + b.Y[n].Data[rowRho+i]*dw)
						j1 := -rhoD[n+1] * (g.dY[n+1][m][rowRho+i] + b.Y[n+1].Data[rowRho+i]*dw)
						jstar[n], jstar[n+1] = j0, j1
						sum += j0
						sum += j1
					}
					for n := nEven; n < ns; n++ {
						j0 := -rhoD[n] * (g.dY[n][m][rowRho+i] + b.Y[n].Data[rowRho+i]*dw)
						jstar[n] = j0
						sum += j0
					}
					for n := 0; n < ns; n++ {
						b.J[m][n].Data[rowRho+i] = jstar[n] - b.Y[n].Data[rowRho+i]*sum
					}
				}
			}
		}
	}
}
