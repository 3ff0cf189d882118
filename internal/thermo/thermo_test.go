package thermo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func air() (*Set, []float64) {
	s := MustSet("O2", "N2")
	return s, []float64{0.233, 0.767}
}

func TestCpFitReproducesTable(t *testing.T) {
	for name, raw := range rawDatabase {
		sp := database[name]
		for i, T := range fitTemps {
			got := sp.CpR(T)
			want := raw.cpR[i]
			if rel := math.Abs(got-want) / want; rel > 0.02 {
				t.Errorf("%s: cp/R(%g) = %.4f, table %.4f (rel %.3f)", name, T, got, want, rel)
			}
		}
	}
}

func TestEnthalpyOfFormationPinned(t *testing.T) {
	for name, raw := range rawDatabase {
		sp := database[name]
		if got := sp.HMolar(T0); math.Abs(got-raw.hf) > 1 { // J/mol
			t.Errorf("%s: h(T0) = %g, want %g", name, got, raw.hf)
		}
	}
}

func TestStandardEntropyPinned(t *testing.T) {
	for name, raw := range rawDatabase {
		sp := database[name]
		if got := sp.SRLn(T0, LnT(T0)) * R; math.Abs(got-raw.s0) > 0.01 {
			t.Errorf("%s: s(T0) = %g, want %g", name, got, raw.s0)
		}
	}
}

func TestEnthalpyCpConsistency(t *testing.T) {
	// dh/dT must equal cp — the fundamental consistency the solver's energy
	// equation relies on.
	for name, sp := range database {
		for _, T := range []float64{350, 800, 1400, 2200, 2900} {
			dT := 0.01
			dhdT := (sp.H(T+dT) - sp.H(T-dT)) / (2 * dT)
			cp := sp.Cp(T)
			if rel := math.Abs(dhdT-cp) / cp; rel > 1e-5 {
				t.Errorf("%s: dh/dT(%g) = %g vs cp = %g", name, T, dhdT, cp)
			}
		}
	}
}

func TestGibbsConsistency(t *testing.T) {
	// g = h − T·s by construction; check the three accessors agree.
	sp := database["H2O"]
	for _, T := range []float64{400, 1200, 2500} {
		lnT := LnT(T)
		g := sp.GRTLn(T, lnT)
		want := sp.HRT(T) - sp.SRLn(T, lnT)
		if math.Abs(g-want) > 1e-12 {
			t.Fatalf("GRT inconsistent at %g: %g vs %g", T, g, want)
		}
	}
}

func TestWaterFormationEnthalpy(t *testing.T) {
	// H2 + ½O2 → H2O releases ≈ 241.8 kJ/mol at 298 K.
	h2 := database["H2"]
	o2 := database["O2"]
	h2o := database["H2O"]
	dH := h2o.HMolar(T0) - h2.HMolar(T0) - 0.5*o2.HMolar(T0)
	if math.Abs(dH+241826) > 100 {
		t.Fatalf("water formation enthalpy = %g J/mol, want ≈ -241826", dH)
	}
}

func TestAirProperties(t *testing.T) {
	s, Y := air()
	W := s.MeanW(Y)
	if math.Abs(W-0.02885) > 3e-4 {
		t.Fatalf("air W = %g kg/mol, want ≈ 0.02885", W)
	}
	cp := s.CpMass(300, Y)
	if math.Abs(cp-1005) > 25 {
		t.Fatalf("air cp(300K) = %g J/kg/K, want ≈ 1005", cp)
	}
	gamma := s.Gamma(300, Y)
	if math.Abs(gamma-1.4) > 0.01 {
		t.Fatalf("air gamma(300K) = %g, want ≈ 1.40", gamma)
	}
	c := s.SoundSpeed(300, Y)
	if math.Abs(c-347) > 5 {
		t.Fatalf("air sound speed(300K) = %g m/s, want ≈ 347", c)
	}
}

func TestIdealGasLaw(t *testing.T) {
	s, Y := air()
	p := 101325.0
	T := 300.0
	rho := s.Density(p, T, Y)
	if math.Abs(rho-1.17) > 0.02 {
		t.Fatalf("air density = %g, want ≈ 1.17", rho)
	}
	if got := s.Pressure(rho, T, Y); math.Abs(got-p) > 1e-6*p {
		t.Fatalf("pressure round trip = %g, want %g", got, p)
	}
}

func TestMoleMassFractionRoundTrip(t *testing.T) {
	s := MustSet("H2", "O2", "N2", "H2O")
	prop := func(a, b, c, d uint8) bool {
		Y := normalize([]float64{float64(a) + 1, float64(b) + 1, float64(c) + 1, float64(d) + 1})
		X := make([]float64, 4)
		Y2 := make([]float64, 4)
		s.MoleFractions(Y, X)
		s.MassFractions(X, Y2)
		for i := range Y {
			if math.Abs(Y[i]-Y2[i]) > 1e-12 {
				return false
			}
		}
		// Mole fractions sum to one.
		var sum float64
		for _, x := range X {
			sum += x
		}
		return math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTFromERoundTrip(t *testing.T) {
	s := MustSet("CH4", "O2", "N2", "CO2", "H2O")
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		Y := normalize([]float64{
			rng.Float64(), rng.Float64(), rng.Float64() + 1, rng.Float64(), rng.Float64(),
		})
		T := 300 + 2500*rng.Float64()
		e := s.EMass(T, Y)
		// Start Newton far from the answer.
		got, ok := s.TFromE(e, Y, 1000)
		if !ok {
			t.Fatalf("TFromE did not converge for T=%g", T)
		}
		if math.Abs(got-T) > 1e-6*T {
			t.Fatalf("TFromE = %g, want %g", got, T)
		}
	}
}

// hrtEager and srLnEager are the reference enthalpy and entropy fits, every
// coefficient quotient divided on the spot; HRT and SRLn take the quotients
// stored at construction and must return exactly these.
func hrtEager(s *Species, T float64) float64 {
	T = clampT(T)
	return s.a[0] + T*(s.a[1]/2+T*(s.a[2]/3+T*(s.a[3]/4+T*s.a[4]/5))) + s.a[5]/T
}

func srLnEager(s *Species, T, lnT float64) float64 {
	T = clampT(T)
	return s.a[0]*lnT + T*(s.a[1]+T*(s.a[2]/2+T*(s.a[3]/3+T*s.a[4]/4))) + s.a[6]
}

// TestHoistedQuotientsMatchEager holds HRT and SRLn (and so H, GRT and
// everything built on them) bit for bit against the eager references for
// every species of the database, across and beyond the polynomial range.
func TestHoistedQuotientsMatchEager(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	temps := []float64{1, 150, TMin, T0, 300, 1234.5, TMax, 4000, 1e6}
	for i := 0; i < 200; i++ {
		temps = append(temps, TMin+(TMax-TMin)*rng.Float64())
	}
	for name, sp := range database {
		for _, T := range temps {
			if got, want := sp.HRT(T), hrtEager(sp, T); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: HRT(%g) = %x, eager %x", name, T, math.Float64bits(got), math.Float64bits(want))
			}
			lnT := LnT(T)
			if got, want := sp.SRLn(T, lnT), srLnEager(sp, T, lnT); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: SRLn(%g) = %x, eager %x", name, T, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// tFromEEager is the reference TFromE: the saturation bounds checked up
// front on every call, then the same clamped Newton iteration through EMass
// and CvMass, each of which takes the mean molecular weight anew. TFromE
// evaluates the bounds lazily and the molecular weight once, and must
// return exactly this.
func tFromEEager(s *Set, e float64, Y []float64, Tg float64) (float64, bool) {
	if e >= s.EMass(TMax, Y) {
		return TMax, true
	}
	if e <= s.EMass(TMin, Y) {
		return TMin, true
	}
	T := Tg
	if T < TMin || T > TMax || math.IsNaN(T) {
		T = 1000
	}
	for iter := 0; iter < 50; iter++ {
		dT := (s.EMass(T, Y) - e) / s.CvMass(T, Y)
		T -= dT
		if T < TMin {
			T = TMin
		}
		if T > TMax {
			T = TMax
		}
		if math.Abs(dT) < 1e-9*T {
			return T, true
		}
	}
	return T, false
}

// TestTFromELazyBoundsMatchEager pins the lazy saturation check bit for bit
// against the eager reference: energies below, at, just inside and above
// both bounds and across the range, from in-range, bound, out-of-range and
// NaN guesses, plus a NaN energy — through TFromE and through TFromEW, the
// entry that takes the mixture molecular weight from the caller.
func TestTFromELazyBoundsMatchEager(t *testing.T) {
	s := MustSet("H2", "O2", "O", "OH", "H2O", "H", "HO2", "H2O2", "N2")
	rng := rand.New(rand.NewSource(3))
	mixes := [][]float64{
		normalize([]float64{1, 2, 0.1, 0.1, 3, 0.05, 0.02, 0.01, 10}),
		normalize([]float64{0, 0.233, 0, 0, 0, 0, 0, 0, 0.767}),
		normalize([]float64{1, 0, 0, 0, 0, 0, 0, 0, 0}),
	}
	var cases []rowCase
	for i := 0; i < 20; i++ {
		Y := make([]float64, 9)
		for n := range Y {
			Y[n] = rng.Float64()
		}
		mixes = append(mixes, normalize(Y))
	}
	guesses := []float64{
		300, 1000, 1400, 3400, TMin, TMax, TMin + 0.5, TMax - 0.5,
		TMin - 50, TMax + 500, -1, 0, math.Inf(1), math.NaN(),
	}
	for _, Y := range mixes {
		eLo, eHi := s.EMass(TMin, Y), s.EMass(TMax, Y)
		span := eHi - eLo
		energies := []float64{
			eLo - span, eLo - 1, math.Nextafter(eLo, math.Inf(-1)), eLo,
			math.Nextafter(eLo, math.Inf(1)), eLo + 1e-6*span,
			s.EMass(TMin+0.3, Y), s.EMass(TMin+2, Y),
			s.EMass(TMax-2, Y), s.EMass(TMax-0.3, Y),
			eHi - 1e-6*span, math.Nextafter(eHi, math.Inf(-1)), eHi,
			math.Nextafter(eHi, math.Inf(1)), eHi + 1, eHi + span,
			math.Inf(1), math.Inf(-1), math.NaN(),
		}
		for i := 0; i < 40; i++ {
			energies = append(energies, eLo+span*rng.Float64())
		}
		for _, e := range energies {
			for _, Tg := range guesses {
				wantT, wantOK := tFromEEager(s, e, Y, Tg)
				cases = append(cases, rowCase{Y: Y, e: e, Tg: Tg, T: wantT, ok: wantOK})
				gotT, gotOK := s.TFromE(e, Y, Tg)
				if math.Float64bits(gotT) != math.Float64bits(wantT) || gotOK != wantOK {
					t.Fatalf("TFromE(e=%g, Tg=%g) = (%v, %v), eager reference (%v, %v) [eLo=%g eHi=%g]",
						e, Tg, gotT, gotOK, wantT, wantOK, eLo, eHi)
				}
				gotT, gotOK = s.TFromEW(e, Y, s.MeanW(Y), Tg)
				if math.Float64bits(gotT) != math.Float64bits(wantT) || gotOK != wantOK {
					t.Fatalf("TFromEW(e=%g, W=MeanW(Y), Tg=%g) = (%v, %v), eager reference (%v, %v) [eLo=%g eHi=%g]",
						e, Tg, gotT, gotOK, wantT, wantOK, eLo, eHi)
				}
			}
		}
	}
	checkTFromERow(t, s, cases, rng)
}

// rowCase is one point of TFromERow's check: its mixture, energy and guess,
// and the eager reference's answer.
type rowCase struct {
	Y        []float64
	e, Tg, T float64
	ok       bool
}

// checkTFromERow shuffles the cases into rows of 37 points, so saturating,
// NaN and out-of-range lanes share 4-point blocks with ordinary ones and
// every row ends in a one-point tail, and requires TFromERow's T, ok and W
// to be bit-equal to the eager reference and to MeanW at every point. The
// guess row must come back unchanged.
func checkTFromERow(t *testing.T, s *Set, cases []rowCase, rng *rand.Rand) {
	t.Helper()
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	const w = 37
	ns := s.Len()
	T, W, e, Tg, Tg0 := make([]float64, w), make([]float64, w), make([]float64, w), make([]float64, w), make([]float64, w)
	Y, yp, ok := make([]float64, ns*w), make([]float64, ns), make([]bool, w)
	for r0 := 0; r0 < len(cases); r0 += w {
		row := cases[r0:min(r0+w, len(cases))]
		n := len(row)
		for i, c := range row {
			e[i], Tg[i] = c.e, c.Tg
			for sp := 0; sp < ns; sp++ {
				Y[sp*n+i] = c.Y[sp]
			}
		}
		copy(Tg0, Tg)
		s.TFromERow(T, W, ok, e[:n], Y[:ns*n], Tg, yp)
		for i, c := range row {
			if math.Float64bits(T[i]) != math.Float64bits(c.T) || ok[i] != c.ok {
				t.Fatalf("TFromERow point %d of %d (e=%g, Tg=%g) = (%v, %v), eager reference (%v, %v)",
					i, n, c.e, c.Tg, T[i], ok[i], c.T, c.ok)
			}
			if wm := s.MeanW(c.Y); math.Float64bits(W[i]) != math.Float64bits(wm) {
				t.Fatalf("TFromERow point %d of %d: W = %x, MeanW %x", i, n, math.Float64bits(W[i]), math.Float64bits(wm))
			}
			if math.Float64bits(Tg[i]) != math.Float64bits(Tg0[i]) {
				t.Fatalf("TFromERow point %d of %d wrote the guess row", i, n)
			}
		}
	}
}

// TestHRTRowMatchesHRT holds HRTRow bit for bit against HRT point by point
// for every species of the H2 set, rows of every length from 0 to 13, with
// NaN, ±Inf, out-of-range and bound temperatures at every position of a
// block and of a tail among in-range ones.
func TestHRTRowMatchesHRT(t *testing.T) {
	s := MustSet("H2", "O2", "O", "OH", "H2O", "H", "HO2", "H2O2", "N2")
	rng := rand.New(rand.NewSource(5))
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 150, TMin, TMax, 4000, math.Nextafter(TMax, 5000)}
	hrt := make([][]float64, s.Len())
	for n := range hrt {
		hrt[n] = make([]float64, 13)
	}
	for w := 0; w <= 13; w++ {
		for pos := 0; pos < max(w, 1); pos++ {
			for _, v := range odd {
				T := make([]float64, w)
				for i := range T {
					T[i] = TMin + (TMax-TMin)*rng.Float64()
				}
				if w > 0 {
					T[pos] = v
				}
				s.HRTRow(T, hrt)
				for n, sp := range s.Species {
					for i, x := range T {
						if got, want := hrt[n][i], sp.HRT(x); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: HRTRow at T=%g (point %d of %d) = %x, HRT %x",
								sp.Name, x, i, w, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

func TestCvLessThanCp(t *testing.T) {
	s, Y := air()
	for _, T := range []float64{300, 1000, 3000} {
		cp, cv := s.CpMass(T, Y), s.CvMass(T, Y)
		if cv <= 0 || cv >= cp {
			t.Fatalf("cv=%g cp=%g at T=%g", cv, cp, T)
		}
	}
}

func TestElementMassFractions(t *testing.T) {
	s := MustSet("CH4", "O2", "N2")
	Y := []float64{0.055, 0.22, 0.725} // roughly φ=1 methane-air
	zc := s.ElementMassFraction("C", Y)
	zh := s.ElementMassFraction("H", Y)
	zo := s.ElementMassFraction("O", Y)
	zn := s.ElementMassFraction("N", Y)
	// C and H come only from CH4: zc = Y_CH4·W_C/W_CH4, zh = Y_CH4·4W_H/W_CH4.
	wCH4 := database["CH4"].W
	if math.Abs(zc-0.055*0.0120107/wCH4) > 1e-9 {
		t.Fatalf("zc = %g", zc)
	}
	if math.Abs(zh-0.055*4*0.0010079/wCH4) > 1e-9 {
		t.Fatalf("zh = %g", zh)
	}
	if math.Abs(zo-0.22) > 1e-9 || math.Abs(zn-0.725) > 1e-9 {
		t.Fatalf("zo = %g, zn = %g", zo, zn)
	}
	// Elements sum to unity exactly: species weights are built from the
	// same element weights.
	if math.Abs(zc+zh+zo+zn-1) > 1e-12 {
		t.Fatalf("element sum = %g", zc+zh+zo+zn)
	}
}

func TestUnknownSpeciesError(t *testing.T) {
	if _, err := NewSet("H2", "XYZZY"); err == nil {
		t.Fatal("expected error for unknown species")
	}
}

func TestSetIndex(t *testing.T) {
	s := MustSet("H2", "O2", "N2")
	if s.Index("O2") != 1 || s.Index("N2") != 2 || s.Index("AR") != -1 {
		t.Fatalf("Index lookup broken: %d %d %d", s.Index("O2"), s.Index("N2"), s.Index("AR"))
	}
}

func normalize(v []float64) []float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	for i := range v {
		v[i] /= s
	}
	return v
}

func BenchmarkCpMass(b *testing.B) {
	s := MustSet("H2", "O2", "O", "OH", "H2O", "H", "HO2", "H2O2", "N2")
	Y := normalize([]float64{1, 2, 0.1, 0.1, 3, 0.05, 0.02, 0.01, 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CpMass(1500, Y)
	}
}

func BenchmarkTFromE(b *testing.B) {
	s := MustSet("H2", "O2", "O", "OH", "H2O", "H", "HO2", "H2O2", "N2")
	Y := normalize([]float64{1, 2, 0.1, 0.1, 3, 0.05, 0.02, 0.01, 10})
	e := s.EMass(1500, Y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TFromE(e, Y, 1400)
	}
}

func BenchmarkTFromERow(b *testing.B) {
	s := MustSet("H2", "O2", "O", "OH", "H2O", "H", "HO2", "H2O2", "N2")
	Y0 := normalize([]float64{1, 2, 0.1, 0.1, 3, 0.05, 0.02, 0.01, 10})
	const w = 48
	ns := s.Len()
	T, W, e, Tg := make([]float64, w), make([]float64, w), make([]float64, w), make([]float64, w)
	Y, yp, ok := make([]float64, ns*w), make([]float64, ns), make([]bool, w)
	for i := range e {
		e[i] = s.EMass(1500+float64(i), Y0)
		Tg[i] = 1400 + float64(i)
		for n := range Y0 {
			Y[n*w+i] = Y0[n]
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TFromERow(T, W, ok, e, Y, Tg, yp)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/pt")
}
