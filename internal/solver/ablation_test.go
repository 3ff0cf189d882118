package solver

import (
	"math"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/transport"
)

// h2BlobConfig builds an inert box with an H2 blob so species diffusion is
// active, with the given transport model selection.
func h2BlobConfig(t *testing.T, constLewis float64) *Block {
	t.Helper()
	mech := chem.H2Air()
	cfg := &Config{
		Mech:         mech,
		Trans:        transport.MustNew(mech.Set),
		Grid:         grid.New(grid.Spec{Nx: 24, Ny: 8, Nz: 1, Lx: 0.004, Ly: 0.002, Lz: 0.001}),
		PInf:         101325,
		ChemistryOff: true,
		ConstLewis:   constLewis,
	}
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iH2 := mech.Set.Index("H2")
	iN2 := mech.Set.Index("N2")
	iO2 := mech.Set.Index("O2")
	b.SetState(func(x, y, z float64, s *InflowState) {
		blob := 0.05 * math.Exp(-((x-0.002)/(0.0004))*((x-0.002)/0.0004))
		s.T = 600
		for i := range s.Y {
			s.Y[i] = 0
		}
		s.Y[iH2] = blob
		s.Y[iO2] = 0.233 * (1 - blob)
		s.Y[iN2] = 1 - blob - 0.233*(1-blob)
	}, nil)
	return b
}

// diffusivities returns Dₙ at interior point (i, j, k), evaluated as the
// flux row evaluates them (diffusivityRows) over the point's x-row.
func diffusivities(b *Block, i, j, k int) []float64 {
	d := make([][]float64, b.ns)
	for n := range d {
		d[n] = make([]float64, b.G.Nx)
	}
	b.diffusivityRows(&b.ws[0], b.Rho.Idx(0, j, k), b.G.Nx, d)
	out := make([]float64, b.ns)
	for n := range d {
		out[n] = d[n][i]
	}
	return out
}

// h2SpreadRate measures the initial diffusive spreading rate of the H2 blob
// by the species-equation RHS magnitude at the blob flank.
func h2SpreadRate(b *Block) float64 {
	b.EvalRHS(0)
	iH2 := b.mech.Set.Index("H2")
	var m float64
	for i := 0; i < b.G.Nx; i++ {
		if v := math.Abs(b.rhs[iY0+iH2].At(i, b.G.Ny/2, 0)); v > m {
			m = v
		}
	}
	return m
}

func TestConstLewisSuppressesDifferentialDiffusion(t *testing.T) {
	// H2 is a fast-diffusing species (Le ≈ 0.3): with mixture-averaged
	// transport its diffusive source term is markedly larger than under a
	// unity-Lewis model, the differential-diffusion effect behind the
	// lean-ignition physics of §6.3.
	bMix := h2BlobConfig(t, 0)
	bLe := h2BlobConfig(t, 1.0)
	mixAvg := h2SpreadRate(bMix)
	leOne := h2SpreadRate(bLe)
	// The net species RHS also carries the ΣJ = 0 correction flux, which
	// moderates the difference; the effect must still be clearly visible.
	if !(mixAvg > 1.15*leOne) {
		t.Fatalf("mixture-averaged H2 diffusion %g not above unity-Lewis %g", mixAvg, leOne)
	}
	// The coefficient itself is ≈3× thermal diffusivity for H2 in air.
	iH2 := bMix.mech.Set.Index("H2")
	dMix := diffusivities(bMix, 6, 4, 0)[iH2]
	dLe := diffusivities(bLe, 6, 4, 0)[iH2]
	if !(dMix > 2*dLe) {
		t.Fatalf("D_H2 mixture-averaged %g not ≫ unity-Lewis %g", dMix, dLe)
	}
}

func TestConstLewisScalesInversely(t *testing.T) {
	// Doubling Le must halve the diffusion coefficient field.
	b1 := h2BlobConfig(t, 1.0)
	b2 := h2BlobConfig(t, 2.0)
	for _, b := range []*Block{b1, b2} {
		b.RefreshPrimitives()
	}
	iH2 := b1.mech.Set.Index("H2")
	d1 := diffusivities(b1, 5, 4, 0)[iH2]
	d2 := diffusivities(b2, 5, 4, 0)[iH2]
	if math.Abs(d1/d2-2) > 1e-9 {
		t.Fatalf("D(Le=1)/D(Le=2) = %g, want 2", d1/d2)
	}
}

func TestConstLewisAllSpeciesEqual(t *testing.T) {
	b := h2BlobConfig(t, 1.0)
	b.RefreshPrimitives()
	d := diffusivities(b, 3, 3, 0)
	d0 := d[0]
	for n := 1; n < b.ns; n++ {
		if d[n] != d0 {
			t.Fatalf("species %d has different D under constant Lewis", n)
		}
	}
	if d0 <= 0 {
		t.Fatalf("non-positive D %g", d0)
	}
}

func BenchmarkTransportMixtureAveraged(b *testing.B) { benchTransportRows(b, 0) }

func BenchmarkTransportConstLewis(b *testing.B) { benchTransportRows(b, 1.0) }

// benchTransportRows times the flux row's transport evaluation over every
// interior row of the H2 blob box.
func benchTransportRows(b *testing.B, constLewis float64) {
	blk := h2BlobConfig(&testing.T{}, constLewis)
	blk.RefreshPrimitives()
	ws := &blk.ws[0]
	b.ResetTimer()
	for range b.N {
		for j := 0; j < blk.G.Ny; j++ {
			blk.transportRows(ws, blk.Rho.Idx(0, j, 0), blk.G.Nx)
		}
	}
}
