package solver

import (
	"math"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/transport"
)

// Quantitative validation of the constitutive terms (paper §2.2–2.5):
// small-amplitude sinusoidal disturbances in a periodic box must decay at
// the analytic rates ν·k², α·k² and D·k² set by the stress tensor, heat
// flux and species diffusion implementations.

func physicsBox(t *testing.T, nx, ny int, l float64) (*Block, []float64) {
	t.Helper()
	mech := chem.H2Air()
	cfg := &Config{
		Mech:         mech,
		Trans:        transport.MustNew(mech.Set),
		Grid:         grid.New(grid.Spec{Nx: nx, Ny: ny, Nz: 1, Lx: l, Ly: l, Lz: l}),
		PInf:         101325,
		ChemistryOff: true,
	}
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, mech.NumSpecies())
	y[mech.Set.Index("O2")] = 0.233
	y[mech.Set.Index("N2")] = 0.767
	return b, y
}

// mixtureAt evaluates the transport model at interior point (i, j, k) from
// the point's primitives.
func mixtureAt(b *Block, i, j, k int) transport.Props {
	x := b.Rho.Idx(i, j, k)
	y := make([]float64, b.ns)
	for n := range y {
		y[n] = b.Y[n].Data[x]
	}
	props := transport.Props{Dmix: make([]float64, b.ns)}
	b.cfg.Trans.Clone().Mixture(b.T.Data[x], b.P.Data[x], y, &props)
	return props
}

// fitDecayRate measures ln(a0/a1)/dt for the amplitude of a quantity.
func fitDecayRate(a0, a1, elapsed float64) float64 {
	return math.Log(a0/a1) / elapsed
}

func TestShearDecayMatchesViscosity(t *testing.T) {
	// u(y) = U·sin(k·y) with no other gradients: pure shear diffusion,
	// du/dt = ν·∂²u/∂y² → amplitude decays at ν·k².
	l := 0.002
	b, yAir := physicsBox(t, 4, 48, l)
	// The mesh spans [0, L] inclusive, so the exactly periodic wavelength
	// is N·h = L·N/(N−1), not L.
	k := 2 * math.Pi / (l * 48 / 47)
	U := 0.5 // small: keep compressibility negligible
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.U = U * math.Sin(k*y)
		s.T = 300
		copy(s.Y, yAir)
	}, nil)
	b.RefreshPrimitives()
	amp := func() float64 {
		var m float64
		for j := 0; j < b.G.Ny; j++ {
			if v := math.Abs(b.U.At(1, j, 0)); v > m {
				m = v
			}
		}
		return m
	}
	a0 := amp()
	dt := 0.4 * b.AcousticDt()
	steps := 200
	b.Advance(steps, dt)
	b.RefreshPrimitives()
	a1 := amp()
	elapsed := float64(steps) * dt

	rho := b.Rho.At(1, 1, 0)
	mu := mixtureAt(b, 1, 1, 0).Mu
	want := mu / rho * k * k
	got := fitDecayRate(a0, a1, elapsed)
	if rel := math.Abs(got-want) / want; rel > 0.12 {
		t.Fatalf("shear decay rate %g, analytic ν·k² = %g (rel %.2f)", got, want, rel)
	}
}

func TestTemperatureDecayMatchesConductivity(t *testing.T) {
	// T = T0 + T'·sin(k·y) at uniform pressure: the disturbance decays at
	// α·k² with α = λ/(ρ·cp) (isobaric relaxation: pressure equilibrates
	// acoustically much faster than the thermal mode).
	l := 0.001
	b, yAir := physicsBox(t, 4, 48, l)
	k := 2 * math.Pi / (l * 48 / 47) // exactly periodic on the wrap period
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.T = 500 + 2*math.Sin(k*y)
		copy(s.Y, yAir)
	}, nil)
	b.RefreshPrimitives()
	amp := func() float64 {
		lo, hi := b.T.MinMax()
		return (hi - lo) / 2
	}
	a0 := amp()
	dt := 0.4 * b.AcousticDt()
	steps := 400
	b.Advance(steps, dt)
	b.RefreshPrimitives()
	a1 := amp()
	elapsed := float64(steps) * dt

	rho := b.Rho.At(1, 1, 0)
	lam := mixtureAt(b, 1, 1, 0).Lambda
	cp := b.mech.Set.CpMass(500, yAirOf(b))
	want := lam / (rho * cp) * k * k
	got := fitDecayRate(a0, a1, elapsed)
	if rel := math.Abs(got-want) / want; rel > 0.2 {
		t.Fatalf("thermal decay rate %g, analytic α·k² = %g (rel %.2f)", got, want, rel)
	}
}

func yAirOf(b *Block) []float64 {
	y := make([]float64, b.ns)
	for n := 0; n < b.ns; n++ {
		y[n] = b.Y[n].At(1, 1, 0)
	}
	return y
}

func TestSpeciesDecayMatchesDiffusivity(t *testing.T) {
	// A trace H2O sinusoid in air decays at D_H2O·k² (dilute limit).
	l := 0.001
	b, _ := physicsBox(t, 4, 48, l)
	k := 2 * math.Pi / (l * 48 / 47) // exactly periodic on the wrap period
	iH2O := b.mech.Set.Index("H2O")
	iO2 := b.mech.Set.Index("O2")
	iN2 := b.mech.Set.Index("N2")
	b.SetState(func(x, y, z float64, s *InflowState) {
		w := 0.005 * (1 + math.Sin(k*y))
		s.T = 400
		for i := range s.Y {
			s.Y[i] = 0
		}
		s.Y[iH2O] = w
		s.Y[iO2] = 0.233 * (1 - w)
		s.Y[iN2] = 1 - w - 0.233*(1-w)
	}, nil)
	b.RefreshPrimitives()
	amp := func() float64 {
		lo, hi := b.Y[iH2O].MinMax()
		return (hi - lo) / 2
	}
	a0 := amp()
	dt := 0.4 * b.AcousticDt()
	steps := 400
	b.Advance(steps, dt)
	b.RefreshPrimitives()
	a1 := amp()
	elapsed := float64(steps) * dt

	d := mixtureAt(b, 1, 1, 0).Dmix[iH2O]
	want := d * k * k
	got := fitDecayRate(a0, a1, elapsed)
	// Dilute but not infinitely so; the ΣJ=0 correction shifts the rate a
	// few per cent.
	if rel := math.Abs(got-want) / want; rel > 0.2 {
		t.Fatalf("species decay rate %g, analytic D·k² = %g (rel %.2f)", got, want, rel)
	}
}

func TestTaylorGreenKineticEnergyDecay(t *testing.T) {
	// The 2-D Taylor–Green vortex: KE decays at 2·ν·(kx²+ky²)·... for the
	// velocity amplitude, i.e. d(KE)/dt = −2νk²·KE with k² = kx² + ky².
	l := 0.002
	b, yAir := physicsBox(t, 32, 32, l)
	k := 2 * math.Pi / (l * 32 / 31) // exactly periodic on the wrap period
	U := 0.8
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.U = U * math.Sin(k*x) * math.Cos(k*y)
		s.V = -U * math.Cos(k*x) * math.Sin(k*y)
		s.T = 300
		copy(s.Y, yAir)
	}, nil)
	b.RefreshPrimitives()
	ke := func() float64 {
		var s float64
		for j := 0; j < b.G.Ny; j++ {
			for i := 0; i < b.G.Nx; i++ {
				u, v := b.U.At(i, j, 0), b.V.At(i, j, 0)
				s += u*u + v*v
			}
		}
		return s
	}
	e0 := ke()
	dt := 0.4 * b.AcousticDt()
	steps := 150
	b.Advance(steps, dt)
	b.RefreshPrimitives()
	e1 := ke()
	elapsed := float64(steps) * dt

	nu := mixtureAt(b, 1, 1, 0).Mu / b.Rho.At(1, 1, 0)
	want := 2 * nu * 2 * k * k // KE rate: 2νk² per component pair
	got := fitDecayRate(e0, e1, elapsed)
	if rel := math.Abs(got-want) / want; rel > 0.12 {
		t.Fatalf("Taylor-Green KE decay %g, analytic %g (rel %.2f)", got, want, rel)
	}
}
