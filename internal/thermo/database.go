package thermo

import "math"

// The species database. Raw data per species: enthalpy of formation and
// standard entropy at 298.15 K, elemental composition, and a cp/R table at
// the fit temperatures. The NASA-7-style coefficients are produced by
// buildSpecies at init. Molecular weights are computed from element weights
// so that elemental balance implies exact mass balance, Σᵢ ω̇ᵢ·Wᵢ = 0 —
// the invariant the species equations (paper eq. 4–6) rely on.

// fitTemps are the temperatures (K) at which cp/R is tabulated.
var fitTemps = []float64{300, 600, 1000, 1500, 2000, 2500, 3000}

type rawSpecies struct {
	hf   float64 // J/mol at 298.15 K
	s0   float64 // J/(mol·K) at 298.15 K
	elem map[string]int
	cpR  []float64 // cp/R at fitTemps
}

var rawDatabase = map[string]rawSpecies{
	"H2": {0, 130.68, map[string]int{"H": 2},
		[]float64{3.47, 3.47, 3.54, 3.72, 3.95, 4.13, 4.28}},
	"O2": {0, 205.15, map[string]int{"O": 2},
		[]float64{3.53, 3.85, 4.04, 4.23, 4.37, 4.45, 4.52}},
	"N2": {0, 191.61, map[string]int{"N": 2},
		[]float64{3.50, 3.62, 3.90, 4.12, 4.29, 4.38, 4.45}},
	"H": {217999, 114.72, map[string]int{"H": 1},
		[]float64{2.50, 2.50, 2.50, 2.50, 2.50, 2.50, 2.50}},
	"O": {249180, 161.06, map[string]int{"O": 1},
		[]float64{2.63, 2.56, 2.54, 2.52, 2.51, 2.51, 2.50}},
	"OH": {37280, 183.74, map[string]int{"H": 1, "O": 1},
		[]float64{3.59, 3.52, 3.62, 3.83, 4.02, 4.17, 4.28}},
	"H2O": {-241826, 188.84, map[string]int{"H": 2, "O": 1},
		[]float64{4.04, 4.35, 4.97, 5.64, 6.19, 6.60, 6.92}},
	"HO2": {12300, 229.10, map[string]int{"H": 1, "O": 2},
		[]float64{4.20, 4.90, 5.50, 6.00, 6.30, 6.50, 6.60}},
	"H2O2": {-136110, 232.95, map[string]int{"H": 2, "O": 2},
		[]float64{5.20, 6.30, 7.30, 8.10, 8.60, 8.90, 9.10}},
	"CH4": {-74870, 186.25, map[string]int{"C": 1, "H": 4},
		[]float64{4.30, 5.70, 7.60, 9.50, 10.90, 11.80, 12.40}},
	"CO": {-110530, 197.66, map[string]int{"C": 1, "O": 1},
		[]float64{3.50, 3.63, 3.92, 4.14, 4.30, 4.39, 4.45}},
	"CO2": {-393520, 213.79, map[string]int{"C": 1, "O": 2},
		[]float64{4.47, 5.61, 6.55, 7.25, 7.66, 7.90, 8.06}},
	"CH3": {146500, 194.20, map[string]int{"C": 1, "H": 3},
		[]float64{4.60, 5.40, 6.40, 7.40, 8.20, 8.70, 9.10}},
	"CH2O": {-108600, 218.95, map[string]int{"C": 1, "H": 2, "O": 1},
		[]float64{4.25, 5.50, 6.90, 8.10, 8.90, 9.40, 9.75}},
	"HCO": {43500, 224.70, map[string]int{"C": 1, "H": 1, "O": 1},
		[]float64{4.15, 4.80, 5.60, 6.30, 6.80, 7.10, 7.30}},
}

var database = map[string]*Species{}

func init() {
	for name, raw := range rawDatabase {
		database[name] = buildSpecies(name, raw)
	}
}

func buildSpecies(name string, raw rawSpecies) *Species {
	var w float64
	for el, n := range raw.elem {
		w += float64(n) * elementWeight(el)
	}
	sp := &Species{Name: name, W: w, Hf: raw.hf, S0: raw.s0, Elem: raw.elem}
	a := fitQuartic(fitTemps, raw.cpR)
	copy(sp.a[:5], a[:])
	// a6 pins h(T0) to the enthalpy of formation:
	// h/R = a1·T + a2/2·T² + a3/3·T³ + a4/4·T⁴ + a5/5·T⁵ + a6.
	T := T0
	hSensR := a[0]*T + a[1]/2*T*T + a[2]/3*T*T*T + a[3]/4*T*T*T*T + a[4]/5*T*T*T*T*T
	sp.a[5] = raw.hf/R - hSensR
	// a7 pins s(T0) to the standard entropy.
	sR := a[0]*math.Log(T) + a[1]*T + a[2]/2*T*T + a[3]/3*T*T*T + a[4]/4*T*T*T*T
	sp.a[6] = raw.s0/R - sR
	sp.hq = [3]float64{sp.a[1] / 2, sp.a[2] / 3, sp.a[3] / 4}
	sp.sq3 = sp.a[3] / 3
	return sp
}

// fitQuartic solves the least-squares quartic fit cp/R(T) ≈ Σ aₘ·Tᵐ via the
// normal equations (the 5×5 system is tiny and well conditioned once T is
// scaled by 10⁻³).
func fitQuartic(ts, ys []float64) [5]float64 {
	const scale = 1e-3 // condition the Vandermonde system
	var ata [5][5]float64
	var atb [5]float64
	for p, t := range ts {
		var row [5]float64
		v := 1.0
		for m := 0; m < 5; m++ {
			row[m] = v
			v *= t * scale
		}
		for i := 0; i < 5; i++ {
			atb[i] += row[i] * ys[p]
			for j := 0; j < 5; j++ {
				ata[i][j] += row[i] * row[j]
			}
		}
	}
	x := solve5(ata, atb)
	// Undo the temperature scaling: coefficient of Tᵐ is x[m]·scaleᵐ.
	var out [5]float64
	s := 1.0
	for m := 0; m < 5; m++ {
		out[m] = x[m] * s
		s *= scale
	}
	return out
}

// solve5 performs Gaussian elimination with partial pivoting on a 5×5 system.
func solve5(a [5][5]float64, b [5]float64) [5]float64 {
	const n = 5
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if abs(a[r][col]) > abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [5]float64
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
