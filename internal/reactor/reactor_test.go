package reactor

import (
	"math"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
)

// h2AirMix returns mass fractions for an H2/air mixture at the given
// equivalence ratio on the H2/air mechanism species ordering.
func h2AirMix(m *chem.Mechanism, phi float64) []float64 {
	// Stoichiometric H2/air: Y_H2 ≈ 0.0285 per 0.233·phi... build from moles:
	// H2 + 0.5(O2 + 3.76 N2)/phi
	set := m.Set
	x := make([]float64, set.Len())
	x[set.Index("H2")] = phi
	x[set.Index("O2")] = 0.5
	x[set.Index("N2")] = 0.5 * 3.76
	y := make([]float64, set.Len())
	set.MassFractions(x, y)
	return y
}

func TestIgnitionDelayHotMixture(t *testing.T) {
	m := chem.H2Air()
	y := h2AirMix(m, 1.0)
	tau, tFinal, err := IgnitionDelay(m, 1200, 101325, y, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(tau) {
		t.Fatal("no ignition at 1200 K")
	}
	// H2/air at 1200 K, 1 atm ignites in tens of microseconds.
	if tau < 1e-6 || tau > 1e-3 {
		t.Fatalf("ignition delay = %g s, expected 1e-6..1e-3", tau)
	}
	// Adiabatic flame temperature of stoichiometric H2/air from 1200 K is
	// well above 2300 K.
	if tFinal < 2000 {
		t.Fatalf("final T = %g, expected hot products", tFinal)
	}
}

func TestIgnitionDelayDecreasesWithTemperature(t *testing.T) {
	m := chem.H2Air()
	y := h2AirMix(m, 1.0)
	tau1, _, err := IgnitionDelay(m, 1150, 101325, y, 5e-3)
	if err != nil {
		t.Fatal(err)
	}
	tau2, _, err := IgnitionDelay(m, 1350, 101325, y, 5e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(tau1) || math.IsNaN(tau2) || tau2 >= tau1 {
		t.Fatalf("delays not decreasing: τ(1150)=%g τ(1350)=%g", tau1, tau2)
	}
}

func TestNoIgnitionCold(t *testing.T) {
	m := chem.H2Air()
	y := h2AirMix(m, 1.0)
	tau, _, err := IgnitionDelay(m, 700, 101325, y, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(tau) {
		t.Fatalf("unexpected ignition at 700 K: τ=%g", tau)
	}
}

func TestCrossoverTemperature(t *testing.T) {
	// The crossover temperature of H2/air at 1 atm is ≈ 950–1100 K; the
	// paper's 1100 K coflow must be above it and the 400 K fuel far below.
	m := chem.H2Air()
	y := h2AirMix(m, 0.5)
	tc, err := CrossoverTemperature(m, 101325, y, 3e-3)
	if err != nil {
		t.Fatal(err)
	}
	if tc < 850 || tc > 1250 {
		t.Fatalf("crossover temperature = %g K, expected ≈ 950–1100", tc)
	}
}

func TestMassFractionsStayNormalised(t *testing.T) {
	m := chem.H2Air()
	y := h2AirMix(m, 1.0)
	_, err := ConstPressure(m, 1250, 101325, y, 3e-4, nil, func(s State) {
		var sum float64
		for _, v := range s.Y {
			if v < 0 || v > 1 {
				t.Fatalf("Y out of range: %g", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("ΣY = %g", sum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEquilibrateProducesWater(t *testing.T) {
	m := chem.H2Air()
	y := h2AirMix(m, 1.0)
	st, err := EquilibrateAdiabatic(m, 300, 101325, y)
	if err != nil {
		t.Fatal(err)
	}
	ih2o := m.Set.Index("H2O")
	ih2 := m.Set.Index("H2")
	if st.Y[ih2o] < 0.15 {
		t.Fatalf("equilibrium H2O = %g, want > 0.15", st.Y[ih2o])
	}
	if st.Y[ih2] > 0.005 {
		t.Fatalf("unburnt H2 = %g", st.Y[ih2])
	}
	if st.T < 2000 {
		t.Fatalf("equilibrium T = %g", st.T)
	}
}

func TestCH4IgnitionHot(t *testing.T) {
	m := chem.CH4Skeletal()
	set := m.Set
	x := make([]float64, set.Len())
	x[set.Index("CH4")] = 1
	x[set.Index("O2")] = 2
	x[set.Index("N2")] = 2 * 3.76
	y := make([]float64, set.Len())
	set.MassFractions(x, y)
	tau, tFinal, err := IgnitionDelay(m, 1500, 101325, y, 20e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(tau) {
		t.Fatal("no CH4 ignition at 1500 K")
	}
	if tFinal < 2200 {
		t.Fatalf("CH4 flame temperature = %g, want > 2200", tFinal)
	}
}

func BenchmarkIgnitionH2(b *testing.B) {
	m := chem.H2Air()
	y := h2AirMix(m, 1.0)
	for i := 0; i < b.N; i++ {
		if _, _, err := IgnitionDelay(m, 1300, 101325, y, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
