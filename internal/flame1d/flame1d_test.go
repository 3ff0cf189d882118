package flame1d

import (
	"math"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
)

func TestPremixedMixtureStoichiometry(t *testing.T) {
	m := chem.CH4Skeletal()
	y, err := PremixedMixture(m, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Stoichiometric CH4/air: Y_CH4 ≈ 0.055.
	if got := y[m.Set.Index("CH4")]; math.Abs(got-0.055) > 0.003 {
		t.Fatalf("Y_CH4 = %g, want ≈ 0.055", got)
	}
	var sum float64
	for _, v := range y {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("ΣY = %g", sum)
	}
}

func TestPremixedMixtureLean(t *testing.T) {
	m := chem.CH4Skeletal()
	y07, _ := PremixedMixture(m, 0.7)
	y10, _ := PremixedMixture(m, 1.0)
	if y07[m.Set.Index("CH4")] >= y10[m.Set.Index("CH4")] {
		t.Fatal("lean mixture has more fuel")
	}
}

// TestBunsenReferenceFlame solves the paper's laminar reference: CH4/air at
// φ = 0.7 preheated to 800 K (paper §7.2 reports S_L = 1.8 m/s,
// δ_L = 0.3 mm, δ_H = 0.14 mm, δ_L/δ_H = 2, τ_f = 0.17 ms with PREMIX and
// its methane mechanism). With the skeletal mechanism and fitted
// thermodynamics we require order-of-magnitude agreement and the right
// structural ratios.
func TestBunsenReferenceFlame(t *testing.T) {
	if testing.Short() {
		t.Skip("laminar flame solve is expensive")
	}
	m := chem.CH4Skeletal()
	y, err := PremixedMixture(m, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Solve(Config{Mech: m, Tu: 800, P: 101325, Yu: y})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SL=%.3g m/s δL=%.3g mm δH=%.3g mm τf=%.3g ms Tb=%.0f K",
		p.SL, p.DeltaL*1e3, p.DeltaH*1e3, p.TauF*1e3, p.Tburnt)
	pinProperties(t, "CH4", p, [5]uint64{0x3ff4edfd77706977, 0x3f3f36f1cae74e34, 0x3f25efcdf4f22938, 0x3f37dccdb1f70393, 0x40a4b8b689e3946a})
	if p.SL < 0.3 || p.SL > 8 {
		t.Fatalf("S_L = %g m/s, expected O(1.8)", p.SL)
	}
	if p.DeltaL < 0.05e-3 || p.DeltaL > 2e-3 {
		t.Fatalf("δ_L = %g m, expected O(0.3 mm)", p.DeltaL)
	}
	// Preheated flames have δ_L/δ_H ≈ 2 (paper §7.2); allow 1–5.
	if p.DeltaH <= 0 {
		t.Fatal("δ_H = 0")
	}
	ratio := p.DeltaL / p.DeltaH
	if ratio < 0.8 || ratio > 6 {
		t.Fatalf("δ_L/δ_H = %g, expected ≈ 2", ratio)
	}
	if p.Tburnt < 1900 {
		t.Fatalf("burnt temperature %g too low", p.Tburnt)
	}
}

func TestH2FlameFasterThanCH4(t *testing.T) {
	if testing.Short() {
		t.Skip("laminar flame solve is expensive")
	}
	mh := chem.H2Air()
	yh, err := PremixedMixture(mh, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Solve(Config{Mech: mh, Tu: 300, P: 101325, Yu: yh, TEnd: 0.25e-3, TAvg: 0.08e-3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("H2 flame: SL=%.3g m/s δL=%.3g mm", ph.SL, ph.DeltaL*1e3)
	pinProperties(t, "H2", ph, [5]uint64{0x40058d76b34f2f16, 0x3f45a1bd4504ec00, 0x3f3c848bbe6e0262, 0x3f300f0d52c42075, 0x40a67c467dcdfe30})
	// Stoichiometric H2/air burns at ≈ 2–3 m/s at 300 K; far faster than
	// ambient methane (≈ 0.4 m/s).
	if ph.SL < 0.8 || ph.SL > 10 {
		t.Fatalf("H2 S_L = %g m/s, expected O(2)", ph.SL)
	}
}

// pinProperties holds S_L, δ_L, δ_H, τ_f and T_b to recorded bits: those of
// a reaction loop making one ProductionRates call per point, which the row
// call over the interior must reproduce.
func pinProperties(t *testing.T, name string, p Properties, want [5]uint64) {
	t.Helper()
	for i, v := range [5]float64{p.SL, p.DeltaL, p.DeltaH, p.TauF, p.Tburnt} {
		if got := math.Float64bits(v); got != want[i] {
			t.Errorf("%s flame: property %d (S_L, δ_L, δ_H, τ_f, T_b) = %#x, recorded %#x", name, i, got, want[i])
		}
	}
}
