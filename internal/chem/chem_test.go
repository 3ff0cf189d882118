package chem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/s3dgo/s3d/internal/thermo"
)

func TestH2AirParses(t *testing.T) {
	m := H2Air()
	if got := m.NumSpecies(); got != 9 {
		t.Fatalf("H2/air species = %d, want 9", got)
	}
	if got := len(m.Reactions); got != 21 {
		t.Fatalf("H2/air reactions = %d, want 21", got)
	}
}

func TestCH4SkeletalParses(t *testing.T) {
	m := CH4Skeletal()
	if got := m.NumSpecies(); got != 14 {
		t.Fatalf("CH4 species = %d, want 14", got)
	}
	if len(m.Reactions) < 28 {
		t.Fatalf("CH4 reactions = %d, want ≥ 28", len(m.Reactions))
	}
}

func TestMechanismsBalance(t *testing.T) {
	for _, m := range []*Mechanism{H2Air(), CH4Skeletal()} {
		if err := m.CheckBalance(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

// massRate returns Σᵢ ω̇ᵢ·Wᵢ, which must vanish for any balanced mechanism.
func massRate(m *Mechanism, wdot []float64) float64 {
	var s, scale float64
	for i, sp := range m.Set.Species {
		s += wdot[i] * sp.W
		scale += math.Abs(wdot[i]) * sp.W
	}
	if scale == 0 {
		return 0
	}
	return s / scale
}

func TestMassConservationProperty(t *testing.T) {
	for _, m := range []*Mechanism{H2Air(), CH4Skeletal()} {
		ns := m.NumSpecies()
		wdot := make([]float64, ns)
		C := make([]float64, ns)
		rng := rand.New(rand.NewSource(42))
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			T := 600 + 2000*r.Float64()
			for i := range C {
				C[i] = 40 * r.Float64() // mol/m³, around atmospheric magnitudes
			}
			m.ProductionRates(T, C, wdot)
			return math.Abs(massRate(m, wdot)) < 1e-10
		}
		cfg := &quick.Config{MaxCount: 100, Rand: rng}
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%s: mass conservation violated: %v", m.Name, err)
		}
	}
}

func TestElementConservation(t *testing.T) {
	m := CH4Skeletal()
	ns := m.NumSpecies()
	C := make([]float64, ns)
	wdot := make([]float64, ns)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		T := 800 + 1800*rng.Float64()
		for i := range C {
			C[i] = 30 * rng.Float64()
		}
		m.ProductionRates(T, C, wdot)
		for _, el := range []string{"C", "H", "O", "N"} {
			var rate, scale float64
			for i, sp := range m.Set.Species {
				n := float64(sp.Elem[el])
				rate += wdot[i] * n
				scale += math.Abs(wdot[i]) * n
			}
			if scale > 0 && math.Abs(rate/scale) > 1e-10 {
				t.Fatalf("element %s production rate %g (scale %g)", el, rate, scale)
			}
		}
	}
}

func TestEquilibriumIsStationary(t *testing.T) {
	// For a single reversible reaction at its equilibrium composition the
	// net rate must vanish. Use O+O+M=O2+M in isolation.
	set := thermo.MustSet("O2", "O", "N2")
	rxn := &Reaction{
		Equation:   "O+O+M=O2+M",
		Reactants:  []SpecCoef{{1, 2}},
		Products:   []SpecCoef{{0, 1}},
		Fwd:        Arrhenius{6.165e15 * 1e-12, -0.5, 0}, // cgs→SI for order 3
		Reversible: true,
		ThirdBody:  true,
	}
	m := NewMechanism("o2 test", set, []*Reaction{rxn})
	T := 3000.0
	// Find the equilibrium O concentration at fixed O2 by bisecting the
	// net rate; then confirm ProductionRates sees it as stationary.
	cO2 := 5.0
	cN2 := 20.0
	wdot := make([]float64, 3)
	rate := func(cO float64) float64 {
		m.ProductionRates(T, []float64{cO2, cO, cN2}, wdot)
		return wdot[1]
	}
	lo, hi := 1e-12, 10.0
	if rate(lo) < 0 || rate(hi) > 0 {
		t.Fatalf("bisection not bracketed: %g %g", rate(lo), rate(hi))
	}
	for iter := 0; iter < 200; iter++ {
		mid := math.Sqrt(lo * hi)
		if rate(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	ceq := math.Sqrt(lo * hi)
	// Kc consistency: [O]² / [O2] should equal 1/Kc of the written reaction.
	m.ProductionRates(T, []float64{cO2, ceq, cN2}, wdot)
	if math.Abs(wdot[1]) > 1e-7*rxn.Fwd.K(T)*ceq*ceq {
		t.Fatalf("net rate at equilibrium not ~0: %g", wdot[1])
	}
	// O dissociation is strongly endothermic: at 3000 K some O survives but
	// far less than O2.
	if ceq <= 0 || ceq > cO2 {
		t.Fatalf("implausible equilibrium O concentration %g", ceq)
	}
}

func TestForwardRatePositiveAndMonotonicInT(t *testing.T) {
	// H+O2=O+OH has a large activation energy: kf must grow with T.
	m := H2Air()
	r := m.Reactions[0]
	k1 := r.Fwd.K(1000)
	k2 := r.Fwd.K(2000)
	if !(k2 > k1 && k1 > 0) {
		t.Fatalf("chain branching rate not increasing: k(1000)=%g k(2000)=%g", k1, k2)
	}
}

func TestChainBranchingMagnitude(t *testing.T) {
	// k of H+O2=O+OH at 2000 K is ≈ 2.5×10¹² cm³/(mol·s) within a factor of
	// a few — a sanity anchor against unit-conversion mistakes.
	m := H2Air()
	kSI := m.Reactions[0].Fwd.K(2000)
	kCGS := kSI * 1e6
	if kCGS < 5e11 || kCGS > 1e13 {
		t.Fatalf("k(H+O2→O+OH, 2000K) = %g cm³/mol/s, expected O(10¹¹)", kCGS)
	}
}

func TestTroeFalloffLimits(t *testing.T) {
	// H+O2(+M)=HO2(+M): at very low [M] the rate is ~k0[M]; at very high [M]
	// it approaches k∞.
	m := H2Air()
	var r *Reaction
	for _, rr := range m.Reactions {
		if rr.Falloff != nil && rr.Equation == "H+O2(+M)=HO2(+M)" {
			r = rr
		}
	}
	if r == nil {
		t.Fatal("falloff reaction not found")
	}
	T := 1200.0
	ns := m.NumSpecies()
	wdot := make([]float64, ns)
	iH := m.Set.Index("H")
	iO2 := m.Set.Index("O2")
	iN2 := m.Set.Index("N2")
	iHO2 := m.Set.Index("HO2")

	rateAt := func(cm float64) float64 {
		C := make([]float64, ns)
		C[iH] = 1e-6
		C[iO2] = 1e-6
		C[iN2] = cm
		// Keep only this reaction by zeroing competitive channels: easier to
		// construct a one-reaction mechanism instead.
		one := NewMechanism("one", m.Set, []*Reaction{r})
		one.ProductionRates(T, C, wdot)
		return wdot[iHO2]
	}
	low := rateAt(1e-3)
	mid := rateAt(1e3)
	high := rateAt(1e9)
	if !(low < mid && mid < high) {
		t.Fatalf("falloff rate not monotone in [M]: %g %g %g", low, mid, high)
	}
	// High-pressure limit: effective k = rate/([H][O2]) → k∞.
	kEff := high / (1e-6 * 1e-6)
	kInf := r.Fwd.K(T)
	if math.Abs(kEff-kInf)/kInf > 0.05 {
		t.Fatalf("high-pressure limit = %g, want k∞ = %g", kEff, kInf)
	}
}

func TestThirdBodyEfficiencies(t *testing.T) {
	// H2+M=H+H+M with H2O efficiency 12: replacing N2 by H2O at fixed total
	// concentration must raise the dissociation rate.
	m := H2Air()
	ns := m.NumSpecies()
	wdot := make([]float64, ns)
	iH2, iN2, iH2O, iH := m.Set.Index("H2"), m.Set.Index("N2"), m.Set.Index("H2O"), m.Set.Index("H")
	var r *Reaction
	for _, rr := range m.Reactions {
		if rr.Equation == "H2+M=H+H+M" {
			r = rr
		}
	}
	one := NewMechanism("one", m.Set, []*Reaction{r})
	T := 2500.0
	C := make([]float64, ns)
	C[iH2] = 1.0
	C[iN2] = 10.0
	one.ProductionRates(T, C, wdot)
	rateN2 := wdot[iH]
	C[iN2] = 0
	C[iH2O] = 10.0
	one.ProductionRates(T, C, wdot)
	rateH2O := wdot[iH]
	if rateH2O < 5*rateN2 {
		t.Fatalf("H2O efficiency ineffective: %g vs %g", rateH2O, rateN2)
	}
}

func TestDuplicateReactionsBothCounted(t *testing.T) {
	m := H2Air()
	dups := 0
	for _, r := range m.Reactions {
		if r.Duplicate {
			dups++
		}
	}
	if dups != 4 {
		t.Fatalf("duplicate-flagged reactions = %d, want 4", dups)
	}
}

func TestConcentrations(t *testing.T) {
	m := H2Air()
	ns := m.NumSpecies()
	Y := make([]float64, ns)
	Y[m.Set.Index("O2")] = 0.233
	Y[m.Set.Index("N2")] = 0.767
	C := make([]float64, ns)
	m.Concentrations(1.2, Y, C)
	// 1.2 kg/m³ air: total ≈ 41.6 mol/m³.
	var tot float64
	for _, c := range C {
		tot += c
	}
	if math.Abs(tot-41.6) > 1 {
		t.Fatalf("total concentration = %g, want ≈ 41.6", tot)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"no species", "REACTIONS\nH+O2=O+OH 1 0 0\nEND"},
		{"undeclared species", "SPECIES\nH2 O2 N2\nEND\nREACTIONS\nH+O2=O+OH 1 0 0\nEND"},
		{"unbalanced", "SPECIES\nH2 O2 H2O N2\nEND\nREACTIONS\nH2+O2=H2O 1 0 0\nEND"},
		{"missing LOW", "SPECIES\nH O2 HO2 N2\nEND\nREACTIONS\nH+O2(+M)=HO2(+M) 1 0 0\nEND"},
		{"one-sided M", "SPECIES\nH2 H N2\nEND\nREACTIONS\nH2+M=H+H 1 0 0\nEND"},
		{"garbage rate", "SPECIES\nH2\nEND\nREACTIONS\nH2=H2 a b c\nEND"},
	}
	for _, c := range cases {
		if _, err := Parse(c.name, c.text); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestParseStoichiometricCoefficients(t *testing.T) {
	m, err := Parse("test", `
SPECIES
H2 O2 H2O
END
REACTIONS
2H2+O2=2H2O 1.0E12 0 0
END
`)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Reactions[0]
	if r.Reactants[0].Nu != 2 || r.Reactants[1].Nu != 1 || r.Products[0].Nu != 2 {
		t.Fatalf("stoichiometry wrong: %+v", r)
	}
	if r.dNu != -1 {
		t.Fatalf("dNu = %d, want -1", r.dNu)
	}
}

func TestHeatReleaseSignForBurning(t *testing.T) {
	// A hot H2/air pocket with an established radical pool must release heat
	// and consume both reactants. (A radical-free fresh mixture can show
	// slightly negative instantaneous heat release: initiation steps such as
	// H2+M=H+H+M are endothermic.)
	m := H2Air()
	ns := m.NumSpecies()
	Y := make([]float64, ns)
	Y[m.Set.Index("H2")] = 0.028
	Y[m.Set.Index("O2")] = 0.222
	Y[m.Set.Index("OH")] = 0.002
	Y[m.Set.Index("H")] = 0.0005
	Y[m.Set.Index("O")] = 0.001
	Y[m.Set.Index("N2")] = 1 - 0.028 - 0.222 - 0.002 - 0.0005 - 0.001
	T := 1800.0
	rho := m.Set.Density(101325, T, Y)
	C := make([]float64, ns)
	m.Concentrations(rho, Y, C)
	wdot := make([]float64, ns)
	m.ProductionRates(T, C, wdot)
	q := make([]float64, 1)
	m.HeatReleaseRow([]float64{T}, hrtRows(m, []float64{T}), columns(wdot), q)
	if q[0] <= 0 {
		t.Fatalf("heat release for burning H2/air = %g, want > 0", q[0])
	}
	// Fuel and oxidiser are consumed.
	if wdot[m.Set.Index("H2")] >= 0 || wdot[m.Set.Index("O2")] >= 0 {
		t.Fatalf("reactants not consumed: wH2=%g wO2=%g",
			wdot[m.Set.Index("H2")], wdot[m.Set.Index("O2")])
	}
	// Water is produced.
	if wdot[m.Set.Index("H2O")] <= 0 {
		t.Fatalf("no water production: %g", wdot[m.Set.Index("H2O")])
	}
}

func TestCloneSharesDataPrivateScratch(t *testing.T) {
	m := H2Air()
	c := m.Clone()
	if &m.Reactions[0] == nil || len(c.Reactions) != len(m.Reactions) {
		t.Fatal("clone lost reactions")
	}
	if &c.gRT[0] == &m.gRT[0] {
		t.Fatal("clone shares scratch")
	}
}

func BenchmarkProductionRatesH2(b *testing.B) {
	m := H2Air()
	ns := m.NumSpecies()
	C := make([]float64, ns)
	for i := range C {
		C[i] = 2.0
	}
	wdot := make([]float64, ns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ProductionRates(1500, C, wdot)
	}
}

func BenchmarkProductionRatesCH4(b *testing.B) {
	m := CH4Skeletal()
	ns := m.NumSpecies()
	C := make([]float64, ns)
	for i := range C {
		C[i] = 2.0
	}
	wdot := make([]float64, ns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ProductionRates(1500, C, wdot)
	}
}

// TestProductionRatesGibbsSharedLog pins the single shared logarithm: the
// species Gibbs functions ProductionRates leaves in its scratch must equal
// the per-species GRTLn(T, LnT(T)) bit for bit, inside the fit range, at
// its bounds and where the fits clamp.
func TestProductionRatesGibbsSharedLog(t *testing.T) {
	for _, m := range []*Mechanism{H2Air(), CH4Skeletal()} {
		ns := m.NumSpecies()
		C, wdot := make([]float64, ns), make([]float64, ns)
		for i := range C {
			C[i] = 0.1 + float64(i)
		}
		for _, T := range []float64{150, thermo.TMin, 300, 1234.5, thermo.TMax, 4000} {
			m.ProductionRates(T, C, wdot)
			for i, sp := range m.Set.Species {
				if got, want := m.gRT[i], sp.GRTLn(T, thermo.LnT(T)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("T=%g species %s: shared-log g/RT %v, per-species GRTLn %v", T, sp.Name, got, want)
				}
			}
		}
	}
}
