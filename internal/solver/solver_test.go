package solver

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/transport"
)

// airConfig builds an inert periodic-box configuration over the H2/air
// species set (used as "air" with zero fuel).
func airConfig(nx, ny, nz int, l float64) *Config {
	mech := chem.H2Air()
	return &Config{
		Mech:         mech,
		Trans:        transport.MustNew(mech.Set),
		Grid:         grid.New(grid.Spec{Nx: nx, Ny: ny, Nz: nz, Lx: l, Ly: l, Lz: l}),
		PInf:         101325,
		ChemistryOff: true,
	}
}

// airY returns air mass fractions on the H2/air species set.
func airY(cfg *Config) []float64 {
	Y := make([]float64, cfg.Mech.NumSpecies())
	Y[cfg.Mech.Set.Index("O2")] = 0.233
	Y[cfg.Mech.Set.Index("N2")] = 0.767
	return Y
}

func quiescent(cfg *Config, b *Block, T float64) {
	Y := airY(cfg)
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.U, s.V, s.W = 0, 0, 0
		s.T = T
		copy(s.Y, Y)
	}, nil)
}

func TestQuiescentStateIsSteady(t *testing.T) {
	cfg := airConfig(12, 12, 8, 0.01)
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quiescent(cfg, b, 300)
	b.EvalRHS(0)
	for v := 0; v < b.nvar; v++ {
		_, maxAbs := b.rhs[v].MinMax()
		min, _ := b.rhs[v].MinMax()
		m := math.Max(math.Abs(maxAbs), math.Abs(min))
		// Scale: ρe₀ ~ 2.6e5 J/m³ over dt ~ µs; roundoff-level RHS is tiny.
		if m > 1e-3 {
			t.Fatalf("var %d: quiescent RHS max |dQ/dt| = %g", v, m)
		}
	}
}

func TestQuiescentStepsStayUniform(t *testing.T) {
	cfg := airConfig(10, 10, 5, 0.01)
	cfg.FilterEvery = 2
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quiescent(cfg, b, 500)
	b.RefreshPrimitives()
	dt := b.AcousticDt()
	b.Advance(6, dt)
	b.RefreshPrimitives()
	minT, maxT := b.MinMaxT()
	if maxT-minT > 1e-6 {
		t.Fatalf("uniform state drifted: T ∈ [%g, %g]", minT, maxT)
	}
}

func TestMassConservationPeriodic(t *testing.T) {
	cfg := airConfig(16, 12, 8, 0.02)
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	Y := airY(cfg)
	// Smooth velocity + temperature perturbation.
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.U = 5 * math.Sin(2*math.Pi*x/0.02) * math.Cos(2*math.Pi*y/0.02)
		s.V = -5 * math.Cos(2*math.Pi*x/0.02) * math.Sin(2*math.Pi*y/0.02)
		s.W = 2 * math.Sin(2*math.Pi*z/0.02)
		s.T = 400 + 20*math.Sin(2*math.Pi*x/0.02)
		copy(s.Y, Y)
	}, nil)
	b.RefreshPrimitives()
	m0 := b.TotalMass()
	dt := b.AcousticDt()
	b.Advance(10, dt)
	m1 := b.TotalMass()
	// Periodic + conservative scheme: mass conserved to roundoff.
	if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
		t.Fatalf("mass drift %g relative", rel)
	}
}

func TestEnergyConservationPeriodicInviscidScale(t *testing.T) {
	// Total energy in a periodic adiabatic box is conserved by the
	// conservative formulation (viscosity only redistributes it).
	cfg := airConfig(16, 12, 8, 0.02)
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	Y := airY(cfg)
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.U = 10 * math.Sin(2*math.Pi*x/0.02)
		s.T = 350
		copy(s.Y, Y)
	}, nil)
	b.RefreshPrimitives()
	e0 := b.Q[iRhoE].SumInterior()
	dt := b.AcousticDt()
	b.Advance(10, dt)
	e1 := b.Q[iRhoE].SumInterior()
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 1e-11 {
		t.Fatalf("energy drift %g relative", rel)
	}
}

func TestSpeciesSumPreserved(t *testing.T) {
	cfg := airConfig(12, 8, 6, 0.02)
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Non-uniform composition: an H2 blob in air.
	b.SetState(func(x, y, z float64, s *InflowState) {
		f := 0.05 * math.Exp(-((x-0.01)*(x-0.01)+(y-0.01)*(y-0.01))/(4e-6))
		s.T = 300
		for i := range s.Y {
			s.Y[i] = 0
		}
		s.Y[b.mech.Set.Index("H2")] = f
		s.Y[b.mech.Set.Index("O2")] = 0.233 * (1 - f)
		s.Y[b.mech.Set.Index("N2")] = 1 - f - 0.233*(1-f)
	}, nil)
	b.RefreshPrimitives()
	dt := b.AcousticDt()
	b.Advance(5, dt)
	b.RefreshPrimitives()
	// Mass fractions remain in [0,1] and sum to 1.
	for k := 0; k < b.G.Nz; k++ {
		for j := 0; j < b.G.Ny; j++ {
			for i := 0; i < b.G.Nx; i++ {
				var sum float64
				for n := 0; n < b.ns; n++ {
					y := b.Y[n].At(i, j, k)
					if y < -1e-9 || y > 1+1e-9 {
						t.Fatalf("Y[%d] = %g out of bounds", n, y)
					}
					sum += y
				}
				if math.Abs(sum-1) > 1e-12 {
					t.Fatalf("ΣY = %g at (%d,%d,%d)", sum, i, j, k)
				}
			}
		}
	}
}

func TestAcousticPulseSpeed(t *testing.T) {
	// A small pressure pulse must split into two waves travelling at ±c.
	nx := 128
	L := 1.0
	cfg := airConfig(nx, 1, 1, L)
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	Y := airY(cfg)
	T0 := 300.0
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.T = T0
		copy(s.Y, Y)
	}, func(x, y, z float64) float64 {
		d := (x - 0.5) / 0.04
		return 101325 * (1 + 1e-3*math.Exp(-d*d))
	})
	b.RefreshPrimitives()
	c := cfg.Mech.Set.SoundSpeed(T0, Y)
	dt := 0.25 * (L / float64(nx-1)) / c
	steps := 60
	b.Advance(steps, dt)
	b.RefreshPrimitives()
	elapsed := float64(steps) * dt
	wantX := 0.5 + c*elapsed

	// Locate the right-going pulse peak.
	bestX, bestP := 0.0, 0.0
	for i := nx / 2; i < nx; i++ {
		p := b.P.At(i, 0, 0) - 101325
		if p > bestP {
			bestP = p
			bestX = b.G.Xc[i]
		}
	}
	h := L / float64(nx-1)
	if math.Abs(bestX-wantX) > 3*h {
		t.Fatalf("pulse at x=%g, want %g (±%g)", bestX, wantX, 3*h)
	}
	if bestP < 101325*1e-4*0.3 {
		t.Fatalf("pulse amplitude lost: %g", bestP)
	}
}

// TestDiffFluxKernelsAgree: the figure-4 study's array-statement form and
// its fused form — the RHS's own diffusive-flux rows — evaluate every
// product in the same association, so the J arrays they leave are equal bit
// for bit (which is what let the solution hashes, recorded on the
// array-statement kernel, hold on the fused one), and the correction flux
// makes Σₙ Jₙ vanish at every point.
func TestDiffFluxKernelsAgree(t *testing.T) {
	cfg := airConfig(12, 10, 6, 0.02)
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A composition and temperature gradient so J is non-trivial.
	b.SetState(func(x, y, z float64, s *InflowState) {
		f := 0.02 * (1 + math.Sin(2*math.Pi*x/0.02)*math.Cos(2*math.Pi*y/0.02))
		s.T = 400 + 50*math.Sin(2*math.Pi*y/0.02)*math.Cos(2*math.Pi*z/0.02)
		for i := range s.Y {
			s.Y[i] = 0
		}
		s.Y[b.mech.Set.Index("H2")] = f
		s.Y[b.mech.Set.Index("H2O")] = 0.05
		s.Y[b.mech.Set.Index("O2")] = 0.2
		s.Y[b.mech.Set.Index("N2")] = 1 - f - 0.25
	}, nil)
	study := b.NewDiffFluxStudy()

	study.Naive()
	naive := make([][3][]float64, b.ns)
	for n := 0; n < b.ns; n++ {
		for d := 0; d < 3; d++ {
			naive[n][d] = append([]float64(nil), study.J(d, n)...)
			clear(study.J(d, n))
		}
	}
	study.Fused()
	var maxJ float64
	for n := 0; n < b.ns; n++ {
		for d := 0; d < 3; d++ {
			b.Rho.Each(func(i, j, k int, _ float64) {
				idx := b.Rho.Idx(i, j, k)
				v := study.J(d, n)[idx]
				maxJ = math.Max(maxJ, math.Abs(v))
				if math.Float64bits(v) != math.Float64bits(naive[n][d][idx]) {
					t.Fatalf("kernels disagree: species %d dir %d at (%d,%d,%d): %x vs %x",
						n, d, i, j, k, math.Float64bits(v), math.Float64bits(naive[n][d][idx]))
				}
			})
		}
	}
	if maxJ == 0 {
		t.Fatal("diffusive flux identically zero — test vacuous")
	}
	// Correction property: Σₙ Jₙ = 0 at every point.
	for d := 0; d < 3; d++ {
		b.Rho.Each(func(i, j, k int, _ float64) {
			var s float64
			for n := 0; n < b.ns; n++ {
				s += study.J(d, n)[b.Rho.Idx(i, j, k)]
			}
			if math.Abs(s) > 1e-12*maxJ {
				t.Fatalf("ΣJ = %g at (%d,%d,%d) dir %d", s, i, j, k, d)
			}
		})
	}
}

// TestShortNonPeriodicAxisRejected: a non-periodic axis of 2–4 points cannot
// hold the one-sided boundary stencil, which reaches four points in, so
// construction fails naming the axis and its length; 5 points build.
func TestShortNonPeriodicAxisRejected(t *testing.T) {
	for n := 2; n <= 5; n++ {
		cfg := airConfig(12, n, 1, 0.01)
		cfg.BC[1] = [2]BCType{OutflowNSCBC, OutflowNSCBC}
		_, err := NewSerial(cfg)
		if n == 5 {
			if err != nil {
				t.Fatalf("5-point outflow axis rejected: %v", err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "axis y") ||
			!strings.Contains(err.Error(), fmt.Sprintf("%d points", n)) {
			t.Fatalf("%d-point outflow axis: err = %v, want one naming axis y and %d points", n, err, n)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	mkcfg := func() *Config { return airConfig(16, 12, 8, 0.02) }
	ic := func(b *Block) {
		Y := airY(b.cfg)
		b.SetState(func(x, y, z float64, s *InflowState) {
			s.U = 8 * math.Sin(2*math.Pi*x/0.02) * math.Cos(2*math.Pi*z/0.02)
			s.V = 3 * math.Cos(2*math.Pi*y/0.02)
			s.T = 380 + 15*math.Cos(2*math.Pi*x/0.02)
			copy(s.Y, Y)
		}, nil)
	}
	steps, dt := 4, 5e-7

	cfgS := mkcfg()
	ser, err := NewSerial(cfgS)
	if err != nil {
		t.Fatal(err)
	}
	ic(ser)
	ser.Advance(steps, dt)
	ser.RefreshPrimitives()

	cfgP := mkcfg()
	type result struct {
		i0, j0, k0 int
		nx, ny, nz int
		T          []float64
	}
	results := make(chan result, 4)
	err = RunParallel(cfgP, [3]int{2, 2, 1}, func(b *Block) {
		ic(b)
		b.Advance(steps, dt)
		b.RefreshPrimitives()
		r := result{i0: b.i0, j0: b.j0, k0: b.k0, nx: b.G.Nx, ny: b.G.Ny, nz: b.G.Nz}
		for k := 0; k < b.G.Nz; k++ {
			for j := 0; j < b.G.Ny; j++ {
				for i := 0; i < b.G.Nx; i++ {
					r.T = append(r.T, b.T.At(i, j, k))
				}
			}
		}
		results <- r
	})
	if err != nil {
		t.Fatal(err)
	}
	close(results)
	var worst float64
	for r := range results {
		idx := 0
		for k := 0; k < r.nz; k++ {
			for j := 0; j < r.ny; j++ {
				for i := 0; i < r.nx; i++ {
					want := ser.T.At(r.i0+i, r.j0+j, r.k0+k)
					if d := math.Abs(r.T[idx] - want); d > worst {
						worst = d
					}
					idx++
				}
			}
		}
	}
	if worst > 1e-10 {
		t.Fatalf("parallel/serial temperature mismatch: %g K", worst)
	}
}

func TestOutflowNSCBCPulseExits(t *testing.T) {
	// A pressure pulse must leave through non-reflecting outflows with small
	// residual reflection.
	nx := 96
	L := 0.5
	cfg := airConfig(nx, 1, 1, L)
	cfg.BC[0][0] = OutflowNSCBC
	cfg.BC[0][1] = OutflowNSCBC
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	Y := airY(cfg)
	amp := 2000.0 // Pa
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.T = 300
		copy(s.Y, Y)
	}, func(x, y, z float64) float64 {
		d := (x - 0.25) / 0.03
		return 101325 + amp*math.Exp(-d*d)
	})
	b.RefreshPrimitives()
	c := cfg.Mech.Set.SoundSpeed(300, Y)
	dt := 0.3 * (L / float64(nx-1)) / c
	// Run long enough for both half-pulses to reach and cross the faces.
	steps := int(1.2 * (L / 2) / c / dt)
	b.Advance(steps, dt)
	b.RefreshPrimitives()
	var maxDev float64
	for i := 0; i < nx; i++ {
		if d := math.Abs(b.P.At(i, 0, 0) - 101325); d > maxDev {
			maxDev = d
		}
	}
	if maxDev > 0.15*amp {
		t.Fatalf("residual after outflow = %g Pa (%.1f%% of pulse)", maxDev, 100*maxDev/amp)
	}
}

func TestInflowOutflowChannelHoldsTarget(t *testing.T) {
	// Subsonic inflow at x-min relaxing to 30 m/s, outflow at x-max: after a
	// transient the inlet-plane velocity must sit near the target.
	nx := 64
	L := 0.25
	cfg := airConfig(nx, 1, 1, L)
	cfg.BC[0][0] = InflowNSCBC
	cfg.BC[0][1] = OutflowNSCBC
	Yair := []float64{0, 0.233, 0, 0, 0, 0, 0, 0, 0.767} // H2 O2 O OH H2O H HO2 H2O2 N2
	cfg.Inflow = func(y, z, t float64, tgt *InflowState) {
		tgt.U, tgt.V, tgt.W = 30, 0, 0
		tgt.T = 300
		copy(tgt.Y, Yair)
	}
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.U = 30
		s.T = 300
		copy(s.Y, Yair)
	}, nil)
	b.RefreshPrimitives()
	c := cfg.Mech.Set.SoundSpeed(300, Yair)
	dt := 0.3 * (L / float64(nx-1)) / (c + 30)
	b.Advance(300, dt)
	b.RefreshPrimitives()
	if u := b.U.At(0, 0, 0); math.Abs(u-30) > 3 {
		t.Fatalf("inflow velocity drifted to %g, want ≈ 30", u)
	}
	// Pressure stays near ambient.
	if p := b.P.At(nx/2, 0, 0); math.Abs(p-101325) > 2000 {
		t.Fatalf("channel pressure drifted to %g", p)
	}
	// No NaNs anywhere.
	minT, maxT := b.MinMaxT()
	if math.IsNaN(minT) || maxT > 400 || minT < 250 {
		t.Fatalf("temperature out of range [%g, %g]", minT, maxT)
	}
}

func TestFilterStabilisesNoisyField(t *testing.T) {
	cfg := airConfig(24, 1, 1, 0.1)
	cfg.FilterEvery = 1
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	Y := airY(cfg)
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.T = 300
		copy(s.Y, Y)
	}, func(x, y, z float64) float64 {
		// Odd-even pressure noise on top of ambient.
		i := int(math.Round(x / (0.1 / 23)))
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		return 101325 * (1 + 1e-4*sign)
	})
	b.RefreshPrimitives()
	dt := 0.2 * b.AcousticDt()
	b.Advance(5, dt)
	b.RefreshPrimitives()
	// The filter must have crushed the odd-even mode.
	var rough float64
	for i := 1; i < 23; i++ {
		rough += math.Abs(b.P.At(i+1, 0, 0) - 2*b.P.At(i, 0, 0) + b.P.At(i-1, 0, 0))
	}
	if rough > 0.4*101325*1e-4*4*23 {
		t.Fatalf("odd-even noise survives filter: roughness %g", rough)
	}
}

func TestValidateErrors(t *testing.T) {
	mech := chem.H2Air()
	tr := transport.MustNew(mech.Set)
	g := grid.New(grid.Spec{Nx: 8, Ny: 8, Nz: 1, Lx: 1, Ly: 1, Lz: 1})
	// Missing inflow function.
	cfg := &Config{Mech: mech, Trans: tr, Grid: g, PInf: 101325}
	cfg.BC[0][0] = InflowNSCBC
	cfg.BC[0][1] = OutflowNSCBC
	if _, err := NewSerial(cfg); err == nil {
		t.Fatal("expected error for missing Inflow")
	}
	// One-sided periodic.
	cfg2 := &Config{Mech: mech, Trans: tr, Grid: g, PInf: 101325}
	cfg2.BC[1][0] = Periodic
	cfg2.BC[1][1] = OutflowNSCBC
	if _, err := NewSerial(cfg2); err == nil {
		t.Fatal("expected error for one-sided periodic")
	}
}
