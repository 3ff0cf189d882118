package chem

import (
	"math"
	"math/rand"
	"testing"

	"github.com/s3dgo/s3d/internal/thermo"
)

// productionRatesReference is ProductionRates before its per-call constants
// were hoisted: ln(P0/Ru) and the fit logarithm taken on every call, the
// total concentration summed for every third-body reaction, the equilibrium
// exponential taken for every reversible reaction and the Troe centring
// factor evaluated in full. ProductionRates must return exactly this.
func productionRatesReference(m *Mechanism, T float64, C, wdot []float64) {
	for i := range wdot {
		wdot[i] = 0
	}
	gRT := make([]float64, len(C))
	lnTFit := thermo.LnT(T)
	for i, sp := range m.Set.Species {
		gRT[i] = sp.GRTLn(T, lnTFit)
	}
	lnT := math.Log(T)
	invRT := 1 / (thermo.R * T)
	logC0 := math.Log(P0/thermo.R) - lnT

	for ri, r := range m.Reactions {
		kf := r.Fwd.kFast(m.lnAf[ri], lnT, invRT)
		cm := 1.0
		if r.ThirdBody || r.Falloff != nil {
			cm = 0
			for i := range C {
				cm += C[i]
			}
			for _, e := range r.effList {
				cm += (e.C - 1) * C[e.Index]
			}
			if cm < 0 {
				cm = 0
			}
		}
		if r.Falloff != nil {
			k0 := r.Falloff.Low.kFast(m.lnAlow[ri], lnT, invRT)
			pr := k0 * cm / kf
			f := 1.0
			if r.Falloff.TroeF != nil && pr > 0 {
				f = troeFReference(r.Falloff.TroeF, T, pr)
			}
			kf *= pr / (1 + pr) * f
			cm = 1
		}
		qf := kf
		for _, rc := range r.Reactants {
			qf *= powInt(C[rc.Index], rc.Nu)
		}
		var qr float64
		if r.Reversible {
			var dg float64
			for _, p := range r.Products {
				dg += float64(p.Nu) * gRT[p.Index]
			}
			for _, rc := range r.Reactants {
				dg -= float64(rc.Nu) * gRT[rc.Index]
			}
			lnKc := -dg + float64(r.dNu)*logC0
			if lnKc > 230 {
				lnKc = 230
			}
			kr := kf / math.Exp(lnKc)
			qr = kr
			for _, p := range r.Products {
				qr *= powInt(C[p.Index], p.Nu)
			}
		}
		rate := (qf - qr) * cm
		for _, rc := range r.Reactants {
			wdot[rc.Index] -= float64(rc.Nu) * rate
		}
		for _, p := range r.Products {
			wdot[p.Index] += float64(p.Nu) * rate
		}
	}
}

// troeCentring is the Troe centring factor Fcent evaluated in full.
func troeCentring(tr *Troe, T float64) float64 {
	fc := (1-tr.Alpha)*math.Exp(-T/tr.T3) + tr.Alpha*math.Exp(-T/tr.T1)
	if tr.T2 != 0 {
		fc += math.Exp(-tr.T2 / T)
	}
	return fc
}

// troeFReference is the broadening factor with Fcent evaluated in full.
func troeFReference(tr *Troe, T, pr float64) float64 {
	fc := troeCentring(tr, T)
	if fc <= 0 {
		return 1
	}
	logFc := math.Log10(fc)
	c := -0.4 - 0.67*logFc
	n := 0.75 - 1.27*logFc
	const d = 0.14
	logPr := math.Log10(pr)
	x := (logPr + c) / (n - d*(logPr+c))
	logF := logFc / (1 + x*x)
	return math.Pow(10, logF)
}

// TestProductionRatesMatchReference: bitwise equality of the production
// rates with the un-hoisted, un-batched reference — which takes math.Exp per
// argument, where the value is needed — for H2, CH4 (whose one general Troe
// entry puts three more exponentials in the batch) and the reaction-free air
// mechanism, over random states with no, one, two, some and all species
// present, inside the fit range, at its bounds, where the fits clamp and
// outside the constant-Fcent range (where the H2 Troe entries join the batch
// too).
func TestProductionRatesMatchReference(t *testing.T) {
	air, err := Parse("air2", "SPECIES\nO2 N2\nEND\nREACTIONS\nEND")
	if err != nil {
		t.Fatal(err)
	}
	temps := []float64{150, thermo.TMin, 300, 1234.5, thermo.TMax, 4000, 0.5, 2e6}
	var shared, constFc, generalTroe int
	for _, m := range []*Mechanism{H2Air(), CH4Skeletal(), air} {
		for _, r := range m.Reactions {
			if r.sameKc {
				shared++
			}
			if r.constLogFc {
				constFc++
			} else if r.Falloff != nil && r.Falloff.TroeF != nil {
				generalTroe++
			}
		}
		ns := m.NumSpecies()
		C, got, want := make([]float64, ns), make([]float64, ns), make([]float64, ns)
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 600; trial++ {
			for i := range C {
				C[i] = 0
			}
			conc := func() float64 { return math.Pow(10, -6+8*rng.Float64()) }
			switch present := trial % 6; present {
			case 0, 1, 2: // exactly that many species
				for _, i := range rng.Perm(ns)[:present] {
					C[i] = conc()
				}
			case 3: // all of them
				for i := range C {
					C[i] = conc()
				}
			default: // a random subset
				for i := range C {
					if rng.Intn(4) > 0 {
						C[i] = conc()
					}
				}
			}
			T := 250 + 3250*rng.Float64()
			if trial%5 == 4 {
				T = temps[trial/5%len(temps)]
			}
			m.ProductionRates(T, C, got)
			productionRatesReference(m, T, C, want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s trial %d T=%g: wdot[%s] = %x, reference %x (C=%v)",
						m.Name, trial, T, m.Set.Species[i].Name, math.Float64bits(got[i]), math.Float64bits(want[i]), C)
				}
			}
		}
	}
	// H2/air has two DUP pairs and two TROE /α 1E-30 1E30/ entries, CH4 one
	// of the latter and one four-parameter entry.
	if shared != 2 || constFc != 3 || generalTroe != 1 {
		t.Fatalf("%d shared-Kc, %d constant-Fcent and %d general Troe reactions, want 2, 3 and 1: the hoists are not exercised",
			shared, constFc, generalTroe)
	}
}

// TestTroeConstantCentring evaluates the claim behind troeConstant instead of
// trusting the argument: for every reaction marked constant, the centring
// factor evaluated in full equals α bit for bit across the whole guaranteed
// temperature range, and the stored logarithm is its log10.
func TestTroeConstantCentring(t *testing.T) {
	temps := []float64{troeConstLo, math.Nextafter(troeConstLo, 2), 1.5, 10, 150, thermo.TMin, 300, 1234.5,
		thermo.TMax, 4000, 1e5, math.Nextafter(troeConstHi, 0), troeConstHi}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		temps = append(temps, math.Pow(10, 6*rng.Float64()))
	}
	check := func(name string, tr *Troe) {
		if !troeConstant(tr) {
			t.Fatalf("%s: %+v not recognised as constant", name, *tr)
		}
		for _, T := range temps {
			if fc := troeCentring(tr, T); math.Float64bits(fc) != math.Float64bits(tr.Alpha) {
				t.Fatalf("%s: Fcent(%g) = %x, alpha %x", name, T, math.Float64bits(fc), math.Float64bits(tr.Alpha))
			}
		}
	}
	n := 0
	for _, m := range []*Mechanism{H2Air(), CH4Skeletal()} {
		for _, r := range m.Reactions {
			if !r.constLogFc {
				continue
			}
			n++
			check(m.Name+" "+r.Equation, r.Falloff.TroeF)
			if math.Float64bits(r.logFc) != math.Float64bits(math.Log10(r.Falloff.TroeF.Alpha)) {
				t.Fatalf("%s: stored log10(Fcent) %v", r.Equation, r.logFc)
			}
		}
	}
	if n < 3 {
		t.Fatalf("%d constant-Fcent reactions in the two mechanisms, want the three TROE /α 1E-30 1E30/ entries", n)
	}
	// The thresholds themselves, and α on either side of 1.
	for _, alpha := range []float64{0.2, 1, 1.7} {
		check("threshold", &Troe{Alpha: alpha, T3: 1e-6, T1: 1e25})
	}
	// Entries the rule must leave to the full evaluation.
	for _, tr := range []Troe{
		{Alpha: 0.783, T3: 74, T1: 2941, T2: 6964},
		{Alpha: 0.8, T3: 1e-30, T1: 1e30, T2: 100},
		{Alpha: 0.8, T3: 1e-5, T1: 1e30},
		{Alpha: 0.8, T3: 1e-30, T1: 1e24},
		{Alpha: 0, T3: 1e-30, T1: 1e30},
		{Alpha: -0.5, T3: 1e-30, T1: 1e30},
		{Alpha: 0.8, T3: 0, T1: 1e30},
	} {
		if troeConstant(&tr) {
			t.Errorf("%+v recognised as constant", tr)
		}
	}
}
