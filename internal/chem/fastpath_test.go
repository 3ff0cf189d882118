package chem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/s3dgo/s3d/internal/thermo"
)

// kFast is the rate constant as ProductionRates forms it, with the
// exponential taken eagerly: k = A when there is no temperature dependence,
// else exp(ln k).
func (a Arrhenius) kFast(lnA, lnT, invRT float64) float64 {
	if a.constant() {
		return a.A
	}
	return math.Exp(a.lnK(lnA, lnT, invRT))
}

// The hot-path rate evaluation must agree with the textbook Arrhenius form.
func TestKFastMatchesK(t *testing.T) {
	prop := func(aRaw, nRaw, eRaw uint16, tRaw uint8) bool {
		a := Arrhenius{
			A: 1e5 + float64(aRaw)*1e9,
			N: -2 + float64(nRaw)/65535*4,
			E: float64(eRaw) * 10, // J/mol
		}
		T := 300 + float64(tRaw)*10.0
		want := a.K(T)
		got := a.kFast(math.Log(a.A), math.Log(T), 1/(thermo.R*T))
		return math.Abs(got-want) <= 1e-12*math.Abs(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKFastZeroParamsShortCircuit(t *testing.T) {
	a := Arrhenius{A: 3.5e7}
	if got := a.kFast(math.Log(a.A), math.Log(1500), 1); got != 3.5e7 {
		t.Fatalf("constant-rate fast path = %g", got)
	}
}

// Production rates must be identical whether computed on a fresh mechanism
// or a clone (the precomputed ln A tables must survive cloning), and the
// clone must own its scratch: the Gibbs table and the exponential batch.
func TestCloneProductionRatesIdentical(t *testing.T) {
	m := CH4Skeletal()
	c := m.Clone()
	ns := m.NumSpecies()
	conc := make([]float64, ns)
	for i := range conc {
		conc[i] = 1 + float64(i)*0.3
	}
	w1 := make([]float64, ns)
	w2 := make([]float64, ns)
	m.ProductionRates(1600, conc, w1)
	c.ProductionRates(1600, conc, w2)
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("clone rates differ at %d: %g vs %g", i, w1[i], w2[i])
		}
	}
	if &m.gRT[0] == &c.gRT[0] || &m.expArg[:1][0] == &c.expArg[:1][0] {
		t.Fatal("clone shares scratch")
	}
	if cap(c.expArg) != cap(m.expArg) {
		t.Fatalf("exponential batch capacity %d, clone's %d", cap(m.expArg), cap(c.expArg))
	}

	// The row scratch: a clone starts without it, even of a mechanism that
	// has grown its own, and grows a private one whose use leaves the
	// other's rates alone.
	T, C, r1, r2 := []float64{1600, 900, 2200}, rows(ns, 3), rows(ns, 3), rows(ns, 3)
	for n := range C {
		for i := range T {
			C[n][i] = conc[n] * float64(i+1)
		}
	}
	hrt := hrtRows(m, T)
	m.ProductionRatesRow(T, hrt, C, r1)
	c2 := m.Clone()
	if c2.row != nil {
		t.Fatal("clone copied the row scratch")
	}
	c2.ProductionRatesRow(T[:1], hrt, C, r2)
	if &m.row[0] == &c2.row[0] {
		t.Fatal("clone shares the row scratch")
	}
	m.ProductionRatesRow(T, hrt, C, r1)
	c2.ProductionRatesRow(T, hrt, C, r2)
	for n := range r1 {
		for i := range T {
			if math.Float64bits(r1[n][i]) != math.Float64bits(r2[n][i]) {
				t.Fatalf("clone row rates differ at species %d point %d: %g vs %g", n, i, r1[n][i], r2[n][i])
			}
		}
	}
}

// Rates must be smooth in T (no branch discontinuities in the fast path).
func TestRatesContinuousInT(t *testing.T) {
	m := H2Air()
	ns := m.NumSpecies()
	conc := make([]float64, ns)
	for i := range conc {
		conc[i] = 2
	}
	w1 := make([]float64, ns)
	w2 := make([]float64, ns)
	for _, T := range []float64{800, 1200, 2000, 3000} {
		m.ProductionRates(T, conc, w1)
		m.ProductionRates(T*(1+1e-9), conc, w2)
		for i := range w1 {
			if math.Abs(w1[i]-w2[i]) > 1e-5*(math.Abs(w1[i])+1e-300) {
				t.Fatalf("rate jump at T=%g species %d: %g vs %g", T, i, w1[i], w2[i])
			}
		}
	}
}

func TestTroeFourParameterParse(t *testing.T) {
	m, err := Parse("troe4", `
SPECIES
H O2 HO2 N2
END
REACTIONS
H+O2(+M)=HO2(+M) 1.475E12 0.60 0
  LOW /6.366E20 -1.72 524.8/
  TROE /0.8 1E-30 1E30 1E25/
END
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Reactions[0].Falloff.TroeF
	if tr == nil || tr.T2 != 1e25 {
		t.Fatalf("four-parameter Troe lost: %+v", tr)
	}
	// Rate still evaluates finitely.
	w := make([]float64, 4)
	m.ProductionRates(1200, []float64{1, 1, 0, 30}, w)
	if math.IsNaN(w[2]) || w[2] <= 0 {
		t.Fatalf("HO2 production = %g", w[2])
	}
}

func TestIrreversibleReaction(t *testing.T) {
	m, err := Parse("irr", `
SPECIES
H2 O2 OH H2O N2 H O
END
REACTIONS
H+O2=>O+OH 3.547E15 -0.406 16599
END
`)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reactions[0].Reversible {
		t.Fatal("=> parsed as reversible")
	}
	// With only products present the net rate must be zero (no reverse).
	ns := m.NumSpecies()
	conc := make([]float64, ns)
	conc[m.Set.Index("O")] = 5
	conc[m.Set.Index("OH")] = 5
	w := make([]float64, ns)
	m.ProductionRates(2000, conc, w)
	for i, v := range w {
		if v != 0 {
			t.Fatalf("irreversible reaction ran backwards: w[%d]=%g", i, v)
		}
	}
}

// TestPow10MatchesMathPow holds pow10 bit for bit to math.Pow(10, y), NaN
// matching NaN: 10⁷ seeded y in (−0.6, 0.6), one in five scaled by 1e-3 so
// the tiny exponents near 0 are covered, plus the edges of the exp path
// (±0, ±0.5 and the values just inside it, the smallest subnormals) and
// values well outside it.
func TestPow10MatchesMathPow(t *testing.T) {
	check := func(y float64) {
		got, want := pow10(y), math.Pow(10, y)
		if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
			t.Fatalf("pow10(%v) = %x, math.Pow %x", y, math.Float64bits(got), math.Float64bits(want))
		}
	}
	for _, y := range []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, math.Nextafter(0.5, 0), math.Nextafter(-0.5, 0),
		5e-324, -5e-324, 1, -1, 400, -400, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		check(y)
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 10_000_000; i++ {
		y := 1.2*rng.Float64() - 0.6
		if i%5 == 0 {
			y *= 1e-3
		}
		check(y)
	}
}
