package solver

import (
	"math"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
)

// oracleChemTileSweep is the chemistry sweep as it was before it became a
// row loop: per point, the concentrations gathered through the field
// accessors, one ProductionRates call through m, Wₙ·ω̇ₙ added to rhs, and
// (collect) −Σₙ ω̇ₙ·hₙ(T) summed in species order times the cell volume.
func oracleChemTileSweep(b *Block, m *chem.Mechanism, rhs []*grid.Field3, t par.Tile, collect bool) (hrr float64) {
	ns := b.ns
	species := m.Set.Species
	c, wdot := make([]float64, ns), make([]float64, ns)
	for k := t.Lo[2]; k < t.Hi[2]; k++ {
		for j := t.Lo[1]; j < t.Hi[1]; j++ {
			for i := t.Lo[0]; i < t.Hi[0]; i++ {
				rho := b.Rho.At(i, j, k)
				T := b.T.At(i, j, k)
				for n := 0; n < ns; n++ {
					c[n] = rho * b.Y[n].At(i, j, k) / species[n].W
				}
				m.ProductionRates(T, c, wdot)
				for n := 0; n < ns-1; n++ {
					rhs[iY0+n].Add(i, j, k, species[n].W*wdot[n])
				}
				if collect {
					var q float64
					for n, sp := range species {
						q -= wdot[n] * sp.HMolar(T)
					}
					hrr += q * b.cellVol(i, j, k)
				}
			}
		}
	}
	return hrr
}

// TestChemSourceMatchesPerPointOracle: on a reacting 2-D H2 jet whose x
// extent (17) is no multiple of the batch exponential's four lanes, at one
// and two workers, EvalRHS with chemistry on leaves in every species rhs
// the bits of EvalRHS with chemistry off plus the per-point oracle, without
// and with the heat-release fold, and the folded integral equals the
// oracle's through the same ordered reduction. The block runs without its
// NSCBC faces, so its rhs is the divergence plus the chemistry alone. A
// NaN-payload lane checks how the divergence adds the parked chemistry:
// where a divergence NaN meets a parked NaN the sum keeps the chemistry
// NaN's payload, as the separate chemistry pass's rhs += Wₙ·ω̇ₙ did (x86's
// ADDSD keeps its register operand's NaN, and that pass held Wₙ·ω̇ₙ in the
// register).
func TestChemSourceMatchesPerPointOracle(t *testing.T) {
	const tRHS = 2 * degDt
	for _, workers := range []int{1, 2} {
		pool := par.NewPool(workers)
		b, err := NewSerial(degenerateCase{nx: 17, ny: 12, nz: 1, jet: true}.config(pool))
		if err != nil {
			pool.Close()
			t.Fatal(err)
		}
		degenerateIC(b)
		b.Advance(2, degDt)
		// An off-centre radical seed: 1.5× the H partial density below a
		// third of the height, so the per-tile heat-release slots are no
		// mirror image of each other and their fold order shows in the bits.
		h := iY0 + b.cfg.Mech.Set.Index("H")
		for j := 0; j < b.G.Ny/3; j++ {
			r := b.Q[h].Row(j, 0)
			for i := range r {
				r[i] *= 1.5
			}
		}
		// Each primitive recovery starts its temperature iteration from the
		// same guess, so every evaluation below sees the same primitives.
		guess := b.T.Clone()
		refresh := func() {
			copy(b.T.Data, guess.Data)
			b.RefreshPrimitives()
		}

		// Every face marked periodic, so no NSCBC face applies (the
		// derivative closures, fixed at construction, stay one-sided); then
		// the divergence alone: EvalRHS with chemistry off.
		b.faceBC = [3][2]BCType{}
		b.cfg.ChemistryOff = true
		copy(b.T.Data, guess.Data)
		b.EvalRHS(tRHS)
		b.cfg.ChemistryOff = false
		start := make([]*grid.Field3, b.nvar)
		for v := range start {
			start[v] = b.rhs[v].Clone()
		}
		mechs := make([]*chem.Mechanism, b.plan.Workers())
		for w := range mechs {
			mechs[w] = b.cfg.Mech.Clone()
		}
		for _, collect := range []bool{false, true} {
			want := make([]*grid.Field3, b.nvar)
			for v := range want {
				want[v] = start[v].Clone()
			}
			slots := make([]float64, b.plan.Slots(b.interior()))
			b.plan.RunSlots("oracle", b.interior(), func(tl par.Tile, w int) {
				slots[tl.Index] = oracleChemTileSweep(b, mechs[w], want, tl, collect)
			})
			var wantHRR float64
			for _, v := range slots {
				wantHRR += v
			}
			b.collectHRR, b.hrrAcc = collect, 0
			copy(b.T.Data, guess.Data)
			b.EvalRHS(tRHS)
			b.collectHRR = false
			for v := range want {
				if i, j, k, ok := interiorDiff(b.rhs[v], want[v]); !ok {
					t.Fatalf("workers=%d collect=%v: rhs[%d] at (%d,%d,%d) = %x, per-point oracle %x", workers, collect,
						v, i, j, k, math.Float64bits(b.rhs[v].At(i, j, k)), math.Float64bits(want[v].At(i, j, k)))
				}
			}
			if collect && math.Float64bits(b.HeatRelease()) != math.Float64bits(wantHRR) {
				t.Fatalf("workers=%d: heat-release integral %x, per-point oracle %x", workers,
					math.Float64bits(b.HeatRelease()), math.Float64bits(wantHRR))
			}
			if collect && !(wantHRR > 0) {
				t.Fatalf("workers=%d: heat-release integral %g: the jet is not reacting", workers, wantHRR)
			}
		}

		// The NaN-payload lane: a NaN with payload A in the first species'
		// x flux at (8, 6) reaches the divergence of its x neighbours, and
		// a parked NaN with payload B waits at (9, 6).
		nanA, nanB := math.Float64frombits(0x7ff80000000000a1), math.Float64frombits(0x7ff80000000000b2)
		rhsPoked := func(chemOff bool) (parked *grid.Field3) {
			b.cfg.ChemistryOff = chemOff
			refresh()
			b.assembleFluxes()
			b.flux[iY0][0].Set(8, 6, 0, nanA)
			b.rhs[iY0].Set(9, 6, 0, nanB)
			parked = b.rhs[iY0].Clone()
			b.exchangeHalos(b.haloFlux, tagFlux)
			b.finishRHS(tRHS)
			b.cfg.ChemistryOff = false
			return parked
		}
		rhsPoked(true)
		want := b.rhs[iY0].Clone()
		parked := rhsPoked(false)
		for k := 0; k < b.G.Nz; k++ {
			for j := 0; j < b.G.Ny; j++ {
				for i := 0; i < b.G.Nx; i++ {
					want.Add(i, j, k, parked.At(i, j, k))
				}
			}
		}
		if got := b.rhs[iY0].At(9, 6, 0); math.Float64bits(got) != math.Float64bits(nanB) {
			t.Fatalf("workers=%d: NaN lane rhs = %x, want the parked payload %x", workers, math.Float64bits(got), math.Float64bits(nanB))
		}
		if i, j, k, ok := interiorDiff(b.rhs[iY0], want); !ok {
			t.Fatalf("workers=%d: NaN lane rhs at (%d,%d,%d) = %x, oracle %x", workers, i, j, k,
				math.Float64bits(b.rhs[iY0].At(i, j, k)), math.Float64bits(want.At(i, j, k)))
		}
		pool.Close()
	}
}
