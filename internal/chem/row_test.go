package chem

import (
	"math"
	"math/rand"
	"testing"

	"github.com/s3dgo/s3d/internal/thermo"
)

// columns returns one length-1 row per element of v, viewing v: the row
// arguments of a one-point call.
func columns(v []float64) [][]float64 {
	out := make([][]float64, len(v))
	for i := range v {
		out[i] = v[i : i+1]
	}
	return out
}

// rows allocates n rows of w points.
func rows(n, w int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, w)
	}
	return out
}

// hrtRows returns the hₙ/RT rows of T, filled by thermo.Set.HRTRow as the
// solver's and flame1d's are.
func hrtRows(m *Mechanism, T []float64) [][]float64 {
	hrt := rows(m.NumSpecies(), len(T))
	m.Set.HRTRow(T, hrt)
	return hrt
}

// sameBits reports bitwise equality, NaN matching any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestProductionRatesRowMatchesReference: at every point of a row,
// ProductionRatesRow on hₙ/RT rows from thermo.Set.HRTRow returns the bits
// of the un-batched reference and of the one-point ProductionRates — for
// H2, CH4 and the reaction-free air set, at widths that leave every count
// of batch-exponential tail lanes, over rows that mix temperatures below
// and above the fit range (down to 0.5 K and up to 2·10⁶ K, both clamped)
// and outside the constant-Fcent range, absent species, and negative
// concentrations that clamp the third-body sum at 0. A NaN temperature or
// concentration at one point leaves the other points' bits unchanged.
func TestProductionRatesRowMatchesReference(t *testing.T) {
	air, err := Parse("air2", "SPECIES\nO2 N2\nEND\nREACTIONS\nEND")
	if err != nil {
		t.Fatal(err)
	}
	special := []float64{150, thermo.TMin, thermo.TMax, 4000, 0.5, 2e6, troeConstLo, troeConstHi}
	var clamped int
	for _, m := range []*Mechanism{H2Air(), CH4Skeletal(), air} {
		ns := m.NumSpecies()
		rng := rand.New(rand.NewSource(39))
		one, ref := make([]float64, ns), make([]float64, ns)
		for _, w := range []int{1, 2, 3, 4, 5, 31, 96, 97} {
			T, C, wdot := make([]float64, w), rows(ns, w), rows(ns, w)
			c := make([]float64, ns)
			for trial := 0; trial < 12; trial++ {
				for i := range T {
					T[i] = 250 + 3250*rng.Float64()
					if rng.Intn(4) == 0 {
						T[i] = special[rng.Intn(len(special))]
					}
					for n := range C {
						C[n][i] = 0
						if rng.Intn(3) > 0 {
							C[n][i] = math.Pow(10, -6+8*rng.Float64())
						}
					}
					if rng.Intn(6) == 0 {
						// Only negatives: every third-body sum is below 0.
						for n := range C {
							C[n][i] = -math.Pow(10, -6+4*rng.Float64())
						}
					}
				}
				if trial == 0 {
					// Every special temperature in one row, as far as it reaches.
					copy(T, special)
				}
				m.ProductionRatesRow(T, hrtRows(m, T), C, wdot)
				for i := range T {
					for n := range c {
						c[n] = C[n][i]
					}
					if c[0] < 0 {
						clamped++
					}
					m.ProductionRates(T[i], c, one)
					productionRatesReference(m, T[i], c, ref)
					for n := range c {
						got := wdot[n][i]
						if math.Float64bits(got) != math.Float64bits(ref[n]) || math.Float64bits(got) != math.Float64bits(one[n]) {
							t.Fatalf("%s w=%d trial %d point %d T=%g: wdot[%s] = %x, reference %x, one-point %x",
								m.Name, w, trial, i, T[i], m.Set.Species[n].Name,
								math.Float64bits(got), math.Float64bits(ref[n]), math.Float64bits(one[n]))
						}
					}
				}

				// One NaN, in T or in one concentration, at one point.
				want := rows(ns, w)
				for n := range want {
					copy(want[n], wdot[n])
				}
				bad := rng.Intn(w)
				saveT, saveC := T[bad], C[ns-1][bad]
				if trial%2 == 0 {
					T[bad] = math.NaN()
				} else {
					C[ns-1][bad] = math.NaN()
				}
				m.ProductionRatesRow(T, hrtRows(m, T), C, wdot)
				for n := range c {
					c[n] = C[n][bad]
				}
				m.ProductionRates(T[bad], c, one)
				for n := range wdot {
					for i := range T {
						wantBits := want[n][i]
						if i == bad {
							wantBits = one[n]
						}
						if !sameBits(wdot[n][i], wantBits) {
							t.Fatalf("%s w=%d trial %d: NaN at point %d moves wdot[%s] at point %d: %x, want %x",
								m.Name, w, trial, bad, m.Set.Species[n].Name, i,
								math.Float64bits(wdot[n][i]), math.Float64bits(wantBits))
						}
					}
				}
				T[bad], C[ns-1][bad] = saveT, saveC
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no point with a clamped third-body sum")
	}
}

// TestHeatReleaseRowMatchesPointSum: HeatReleaseRow on hₙ/RT rows from
// thermo.Set.HRTRow is −Σₙ ω̇ₙ·HMolar(T) summed point by point in species
// order, inside and outside the fit range (0.5 K and 2·10⁶ K clamped).
func TestHeatReleaseRowMatchesPointSum(t *testing.T) {
	m := H2Air()
	ns := m.NumSpecies()
	T := []float64{150, 300, 1234.5, 2100, 4000, 0.5, 2e6}
	C, wdot := rows(ns, len(T)), rows(ns, len(T))
	for n := range C {
		for i := range T {
			C[n][i] = 0.1 + float64(n+i)
		}
	}
	hrt := hrtRows(m, T)
	m.ProductionRatesRow(T, hrt, C, wdot)
	q := make([]float64, len(T))
	m.HeatReleaseRow(T, hrt, wdot, q)
	for i, temp := range T {
		var want float64
		for n, sp := range m.Set.Species {
			want -= wdot[n][i] * sp.HMolar(temp)
		}
		if math.Float64bits(q[i]) != math.Float64bits(want) {
			t.Fatalf("T=%g: HeatReleaseRow %x, point sum %x", temp, math.Float64bits(q[i]), math.Float64bits(want))
		}
	}
}

func benchmarkProductionRatesRow(b *testing.B, m *Mechanism, w int) {
	ns := m.NumSpecies()
	T, C, wdot := make([]float64, w), rows(ns, w), rows(ns, w)
	for i := range T {
		T[i] = 1200 + 8*float64(i)
		for n := range C {
			C[n][i] = 2.0
		}
	}
	hrt := hrtRows(m, T)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ProductionRatesRow(T, hrt, C, wdot)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/pt")
}

func BenchmarkProductionRatesRowH2(b *testing.B)  { benchmarkProductionRatesRow(b, H2Air(), 96) }
func BenchmarkProductionRatesRowCH4(b *testing.B) { benchmarkProductionRatesRow(b, CH4Skeletal(), 96) }
