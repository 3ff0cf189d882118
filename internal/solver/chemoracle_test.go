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
// and two workers, the chemistry part of the rhs sweep leaves in every
// species rhs the bits of the per-point oracle, without and with the
// heat-release fold, and the folded integral equals the oracle's through
// the same ordered reduction. The sweep runs without the block's NSCBC
// faces, so its rhs is the divergence plus the chemistry alone.
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
		b.EvalRHS(tRHS)

		// The divergence alone: the sweep with chemistry off and every face
		// marked periodic, so it applies no NSCBC face (the derivative
		// closures, fixed at construction, stay one-sided).
		b.faceBC = [3][2]BCType{}
		b.cfg.ChemistryOff = true
		b.finishRHS(tRHS)
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
			b.finishRHS(tRHS)
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
		pool.Close()
	}
}
