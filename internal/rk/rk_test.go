package rk

import (
	"math"
	"testing"
)

// integrate advances y' = f(t, y) from y0 over [0, T] in n steps and
// returns y(T).
func integrate(s *Scheme, y0 []float64, T float64, n int, f RHS) []float64 {
	st := NewVecState(len(y0))
	copy(st.QV, y0)
	dt := T / float64(n)
	tmp := make([]float64, len(y0))
	for i := 0; i < n; i++ {
		s.StepScratch(st, float64(i)*dt, dt, f, tmp)
	}
	return st.QV
}

func TestSchemesAreConsistent(t *testing.T) {
	for _, s := range []*Scheme{RK46NL} {
		if s.A[0] != 0 {
			t.Errorf("%s: A[0] = %g, want 0", s.Name, s.A[0])
		}
		if len(s.A) != len(s.B) || len(s.B) != len(s.C) {
			t.Errorf("%s: ragged coefficient arrays", s.Name)
		}
		// First-order consistency: Σ b_i·(product telescope) must advance a
		// constant-derivative system by exactly dt. Check directly on y' = 1.
		got := integrate(s, []float64{0}, 1.0, 1, func(_ float64, _ []float64, d []float64) { d[0] = 1 })
		if math.Abs(got[0]-1) > 1e-12 {
			t.Errorf("%s: quadrature of y'=1 gives %g, want 1", s.Name, got[0])
		}
	}
}

func TestExponentialDecayAccuracy(t *testing.T) {
	f := func(_ float64, y []float64, d []float64) { d[0] = -y[0] }
	for _, s := range []*Scheme{RK46NL} {
		got := integrate(s, []float64{1}, 2.0, 50, f)
		want := math.Exp(-2)
		if err := math.Abs(got[0] - want); err > 1e-8 {
			t.Errorf("%s: exp decay error %g", s.Name, err)
		}
	}
}

func TestFourthOrderConvergence(t *testing.T) {
	// Non-autonomous nonlinear problem y' = y·cos(t), y(0)=1, exact
	// y = exp(sin t), which exposes the C (stage-time) coefficients.
	f := func(tt float64, y []float64, d []float64) { d[0] = y[0] * math.Cos(tt) }
	exact := math.Exp(math.Sin(3.0))
	for _, s := range []*Scheme{RK46NL} {
		e1 := math.Abs(integrate(s, []float64{1}, 3.0, 40, f)[0] - exact)
		e2 := math.Abs(integrate(s, []float64{1}, 3.0, 80, f)[0] - exact)
		rate := math.Log2(e1 / e2)
		if rate < 3.7 {
			t.Errorf("%s: convergence rate = %.2f, want ≈ 4", s.Name, rate)
		}
	}
}

func TestOscillatorEnergyNearlyConserved(t *testing.T) {
	// Harmonic oscillator: RK4-family schemes should conserve the energy to
	// the scheme's order over a modest horizon.
	f := func(_ float64, y []float64, d []float64) { d[0], d[1] = y[1], -y[0] }
	for _, s := range []*Scheme{RK46NL} {
		got := integrate(s, []float64{1, 0}, 2*math.Pi, 200, f)
		e := got[0]*got[0] + got[1]*got[1]
		if math.Abs(e-1) > 1e-8 {
			t.Errorf("%s: energy drift %g", s.Name, e-1)
		}
		if math.Abs(got[0]-1) > 1e-7 || math.Abs(got[1]) > 1e-7 {
			t.Errorf("%s: period error (%g, %g)", s.Name, got[0]-1, got[1])
		}
	}
}

func TestDriveMatchesStep(t *testing.T) {
	// The field-style Drive hook must perform the identical update to Step.
	f := func(tt float64, y []float64, d []float64) {
		d[0] = -2*y[0] + math.Sin(tt)
		d[1] = y[0] - y[1]
	}
	s := RK46NL
	a := NewVecState(2)
	a.QV[0], a.QV[1] = 0.3, -0.7
	b := NewVecState(2)
	copy(b.QV, a.QV)
	dt := 0.01
	a.QV = append([]float64(nil), a.QV...)
	s.Step(a, 0.5, dt, f)

	rhs := make([]float64, 2)
	s.Drive(0.5, dt, func(stageTime float64) {
		f(stageTime, b.QV, rhs)
	}, func(stage int, aa, bb, _ float64) {
		for i := range b.QV {
			b.DQV[i] = aa*b.DQV[i] + dt*rhs[i]
			b.QV[i] += bb * b.DQV[i]
		}
	})
	for i := range a.QV {
		if math.Abs(a.QV[i]-b.QV[i]) > 1e-15 {
			t.Fatalf("Drive diverges from Step at %d: %g vs %g", i, a.QV[i], b.QV[i])
		}
	}
}

func TestStabilityOnAdvectionSpectrum(t *testing.T) {
	// RK46-NL is built for convective spectra: a pure-imaginary eigenvalue
	// iλ with |λ·dt| = 1 must not amplify.
	f := func(_ float64, y []float64, d []float64) {
		// (y0 + i·y1)' = i·(y0 + i·y1)
		d[0], d[1] = -y[1], y[0]
	}
	got := integrate(RK46NL, []float64{1, 0}, 1000, 1000, f) // dt = 1 → |λdt| = 1
	mag := math.Hypot(got[0], got[1])
	if mag > 1.0+1e-6 {
		t.Fatalf("amplification %g at |λdt|=1", mag)
	}
}

func BenchmarkStep1M(b *testing.B) {
	n := 1 << 20
	st := NewVecState(n)
	for i := range st.QV {
		st.QV[i] = float64(i%7) * 0.1
	}
	tmp := make([]float64, n)
	f := func(_ float64, y []float64, d []float64) {
		for i := range y {
			d[i] = -y[i]
		}
	}
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RK46NL.StepScratch(st, 0, 1e-3, f, tmp)
	}
}
