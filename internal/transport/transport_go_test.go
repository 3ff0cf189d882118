package transport

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/thermo"
	"github.com/s3dgo/s3d/internal/vexp"
)

func airModel(t testing.TB) (*Model, []float64) {
	set := thermo.MustSet("O2", "N2")
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	return m, []float64{0.233, 0.767}
}

func TestAirViscosity(t *testing.T) {
	m, Y := airModel(t)
	p := &Props{Dmix: make([]float64, 2)}
	m.Mixture(300, 101325, Y, p)
	// Air at 300 K: μ ≈ 1.85×10⁻⁵ Pa·s.
	if math.Abs(p.Mu-1.85e-5)/1.85e-5 > 0.10 {
		t.Fatalf("air viscosity = %g, want ≈ 1.85e-5", p.Mu)
	}
}

func TestAirConductivity(t *testing.T) {
	m, Y := airModel(t)
	p := &Props{Dmix: make([]float64, 2)}
	m.Mixture(300, 101325, Y, p)
	// Air at 300 K: λ ≈ 0.026 W/(m·K).
	if math.Abs(p.Lambda-0.026)/0.026 > 0.15 {
		t.Fatalf("air conductivity = %g, want ≈ 0.026", p.Lambda)
	}
}

func TestViscosityGrowsWithT(t *testing.T) {
	m, Y := airModel(t)
	p1 := &Props{Dmix: make([]float64, 2)}
	p2 := &Props{Dmix: make([]float64, 2)}
	m.Mixture(300, 101325, Y, p1)
	m.Mixture(1500, 101325, Y, p2)
	// Gas viscosity scales roughly as T^0.7: expect ×2.5–4 over 300→1500 K.
	r := p2.Mu / p1.Mu
	if r < 2.0 || r > 5.0 {
		t.Fatalf("viscosity ratio 1500/300 K = %g, want 2–5", r)
	}
}

func TestBinaryDiffusionKnownValue(t *testing.T) {
	// D(H2O–air-ish N2) at 300 K, 1 atm ≈ 0.25 cm²/s; D(O2–N2) ≈ 0.20 cm²/s.
	set := thermo.MustSet("O2", "N2", "H2O", "H2")
	m := MustNew(set)
	d := m.BinaryDiffusion(0, 1, 300, 101325) * 1e4 // m²/s → cm²/s
	if d < 0.12 || d > 0.30 {
		t.Fatalf("D(O2,N2) = %g cm²/s, want ≈ 0.2", d)
	}
	dh2 := m.BinaryDiffusion(3, 1, 300, 101325) * 1e4
	// H2 in N2 ≈ 0.78 cm²/s, far faster than O2 — the differential-diffusion
	// property that matters for hydrogen flames.
	if dh2 < 2*d {
		t.Fatalf("D(H2,N2) = %g not ≫ D(O2,N2) = %g", dh2, d)
	}
}

func TestBinaryDiffusionSymmetric(t *testing.T) {
	set := thermo.MustSet("H2", "O2", "H2O", "CO2", "N2")
	m := MustNew(set)
	for i := 0; i < set.Len(); i++ {
		for j := 0; j < set.Len(); j++ {
			dij := m.BinaryDiffusion(i, j, 800, 101325)
			dji := m.BinaryDiffusion(j, i, 800, 101325)
			if math.Abs(dij-dji) > 1e-15 {
				t.Fatalf("D not symmetric: %g vs %g", dij, dji)
			}
		}
	}
}

func TestDiffusionScalesInverselyWithPressure(t *testing.T) {
	set := thermo.MustSet("O2", "N2")
	m := MustNew(set)
	d1 := m.BinaryDiffusion(0, 1, 500, 101325)
	d2 := m.BinaryDiffusion(0, 1, 500, 2*101325)
	if math.Abs(d1/d2-2) > 1e-12 {
		t.Fatalf("D(p)/D(2p) = %g, want 2", d1/d2)
	}
}

func TestWilkePureSpeciesLimit(t *testing.T) {
	// With Y = pure species the mixture viscosity equals the species value.
	set := thermo.MustSet("O2", "N2")
	m := MustNew(set)
	p := &Props{Dmix: make([]float64, 2)}
	m.Mixture(600, 101325, []float64{1, 0}, p)
	want := m.SpeciesViscosity(0, 600)
	if math.Abs(p.Mu-want)/want > 1e-12 {
		t.Fatalf("pure-species Wilke = %g, want %g", p.Mu, want)
	}
	if math.Abs(p.Lambda-m.SpeciesConductivity(0, 600))/p.Lambda > 1e-12 {
		t.Fatalf("pure-species conductivity = %g", p.Lambda)
	}
	// The pure-species diffusion coefficient falls back to the self value.
	if p.Dmix[0] <= 0 {
		t.Fatalf("pure-species Dmix = %g", p.Dmix[0])
	}
}

func TestMixturePropertiesPositiveProperty(t *testing.T) {
	set := thermo.MustSet("H2", "O2", "O", "OH", "H2O", "H", "HO2", "H2O2", "N2")
	m := MustNew(set)
	n := set.Len()
	p := &Props{Dmix: make([]float64, n)}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		Y := make([]float64, n)
		var s float64
		for i := range Y {
			Y[i] = r.Float64()
			s += Y[i]
		}
		for i := range Y {
			Y[i] /= s
		}
		T := 300 + 2400*r.Float64()
		m.Mixture(T, 101325, Y, p)
		if !(p.Mu > 0) || !(p.Lambda > 0) {
			return false
		}
		for _, d := range p.Dmix {
			if !(d > 0) || math.IsNaN(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPrandtlNumberReasonable(t *testing.T) {
	m, Y := airModel(t)
	p := &Props{Dmix: make([]float64, 2)}
	m.Mixture(300, 101325, Y, p)
	cp := m.Set.CpMass(300, Y)
	pr := p.Mu * cp / p.Lambda
	if pr < 0.6 || pr > 0.85 {
		t.Fatalf("air Prandtl number = %g, want ≈ 0.7", pr)
	}
}

func TestLewisNumberH2Light(t *testing.T) {
	// Le_H2 = λ/(ρ·cp·D_H2) in air should be well below 1 (fast-diffusing
	// fuel), Le_O2 near 1 — the physics behind the lifted-flame lean-ignition
	// finding in paper §6.
	set := thermo.MustSet("H2", "O2", "N2")
	m := MustNew(set)
	Y := []float64{0.01, 0.23, 0.76}
	p := &Props{Dmix: make([]float64, 3)}
	T := 800.0
	m.Mixture(T, 101325, Y, p)
	rho := set.Density(101325, T, Y)
	cp := set.CpMass(T, Y)
	leH2 := p.Lambda / (rho * cp * p.Dmix[0])
	leO2 := p.Lambda / (rho * cp * p.Dmix[1])
	if leH2 > 0.6 {
		t.Fatalf("Le_H2 = %g, want < 0.6", leH2)
	}
	if leO2 < 0.7 || leO2 > 1.6 {
		t.Fatalf("Le_O2 = %g, want ≈ 1", leO2)
	}
}

func TestMissingLJDataError(t *testing.T) {
	// All database species have LJ data, so fabricate a set check by using
	// the full H2 set (should succeed).
	set := thermo.MustSet("H2", "O2", "O", "OH", "H2O", "H", "HO2", "H2O2", "N2")
	if _, err := New(set); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCloneIndependentScratch(t *testing.T) {
	m, Y := airModel(t)
	c := m.Clone()
	p1 := &Props{Dmix: make([]float64, 2)}
	p2 := &Props{Dmix: make([]float64, 2)}
	m.Mixture(300, 101325, Y, p1)
	c.Mixture(300, 101325, Y, p2)
	if p1.Mu != p2.Mu || p1.Lambda != p2.Lambda {
		t.Fatalf("clone disagrees: %g vs %g", p1.Mu, p2.Mu)
	}
	if &m.x[0] == &c.x[0] || &m.fit[0] == &c.fit[0] {
		t.Fatal("clone shares scratch")
	}
	if len(c.fit) != len(m.fit) {
		t.Fatalf("clone's exponential batch holds %d, the model's %d", len(c.fit), len(m.fit))
	}
}

// TestPairFitsBitwiseSymmetric pins what lets Mixture evaluate each D_ij
// once per unordered pair: for both shipped mechanisms the fitted pair
// tables are bitwise symmetric.
func TestPairFitsBitwiseSymmetric(t *testing.T) {
	for _, mech := range []*chem.Mechanism{chem.H2Air(), chem.CH4Skeletal()} {
		m := MustNew(mech.Set)
		for i := range m.dFit {
			for j := range m.dFit[i] {
				if m.dFit[i][j] != m.dFit[j][i] {
					t.Fatalf("%s: dFit[%d][%d] = %v, dFit[%d][%d] = %v",
						mech.Name, i, j, m.dFit[i][j], j, i, m.dFit[j][i])
				}
			}
		}
	}
}

// mixtureReference is Mixture in its eager scalar form: math.Exp called
// where each fitted value is needed (evalFit), the diffusion denominator
// summed over ordered pairs with every pair evaluating its own fit. Mixture
// must return exactly this.
func mixtureReference(m *Model, T, p float64, Y []float64, props *Props) {
	n := m.Set.Len()
	x := make([]float64, n)
	m.Set.MoleFractions(Y, x)
	for i := range x {
		if x[i] < 0 {
			x[i] = 0
		}
	}
	lnT := math.Log(clampFitT(T))
	mu, lam := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		mu[i] = evalFit(m.muFit[i], lnT)
		lam[i] = mu[i] * (m.Set.Species[i].Cp(T) + 1.25*thermo.R/m.Set.Species[i].W)
	}
	var muMix float64
	for i := 0; i < n; i++ {
		if x[i] == 0 {
			continue
		}
		var denom float64
		for j := 0; j < n; j++ {
			if x[j] == 0 {
				continue
			}
			r := math.Sqrt(mu[i]/mu[j]) * m.w4[i][j]
			denom += x[j] * (1 + r) * (1 + r) * m.wPhi[i][j]
		}
		muMix += x[i] * mu[i] / denom
	}
	props.Mu = muMix
	var sum, inv float64
	for i := 0; i < n; i++ {
		sum += x[i] * lam[i]
		if x[i] > 0 {
			inv += x[i] / lam[i]
		}
	}
	props.Lambda = 0.5 * (sum + 1/inv)
	pScale := 101325 / p
	for i := 0; i < n; i++ {
		var denom float64
		for j := 0; j < n; j++ {
			if j == i || x[j] == 0 {
				continue
			}
			denom += x[j] / (evalFit(m.dFit[i][j], lnT) * pScale)
		}
		if denom < 1e-30 {
			props.Dmix[i] = evalFit(m.dFit[i][i], lnT) * pScale
			continue
		}
		props.Dmix[i] = (1 - x[i]) / denom
		if props.Dmix[i] <= 0 {
			props.Dmix[i] = evalFit(m.dFit[i][i], lnT) * pScale
		}
	}
}

// TestMixtureDmixMatchesOrderedPairLoop: for the H2, CH4 and two-species air
// sets, over temperatures across and beyond the fit range and compositions
// with no, one, two, some and all species present, the batched
// once-per-pair evaluation reproduces the eager ordered-pair reference bit
// for bit — μ and λ included. So the packing of present pairs into the batch,
// the pure-species dFit[i][i] fallback and the lengths that end in a partial
// block are all exercised. One model serves the whole table, so a value left
// in the batch by an earlier state would show.
func TestMixtureDmixMatchesOrderedPairLoop(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	}
	for _, set := range []*thermo.Set{chem.H2Air().Set, chem.CH4Skeletal().Set, thermo.MustSet("O2", "N2")} {
		m := MustNew(set)
		n := set.Len()
		rng := rand.New(rand.NewSource(15))
		got := &Props{Dmix: make([]float64, n)}
		want := &Props{Dmix: make([]float64, n)}
		Y := make([]float64, n)
		for s := 0; s < 600; s++ {
			for i := range Y {
				Y[i] = 0
			}
			switch present := s % 6; present {
			case 0, 1, 2: // exactly that many species
				for _, i := range rng.Perm(n)[:present] {
					Y[i] = rng.Float64() + 1e-3
				}
			case 3: // all of them
				for i := range Y {
					Y[i] = rng.Float64() + 1e-3
				}
			default: // a random subset
				for i := range Y {
					if rng.Intn(3) > 0 {
						Y[i] = rng.Float64()
					}
				}
			}
			var sum float64
			for i := range Y {
				sum += Y[i]
			}
			if sum > 0 {
				for i := range Y {
					Y[i] /= sum
				}
			}
			T := 250 + 3250*rng.Float64()
			if s%50 == 7 {
				T = []float64{100, 250, 3500, 5000}[rng.Intn(4)]
			}
			p := 101325 * (0.5 + 2*rng.Float64())
			m.Mixture(T, p, Y, got)
			mixtureReference(m, T, p, Y, want)
			if !same(got.Mu, want.Mu) || !same(got.Lambda, want.Lambda) {
				t.Fatalf("%d species, state %d: mu %x lambda %x, reference %x %x (T=%v Y=%v)", n, s,
					math.Float64bits(got.Mu), math.Float64bits(got.Lambda),
					math.Float64bits(want.Mu), math.Float64bits(want.Lambda), T, Y)
			}
			for i := range want.Dmix {
				if !same(got.Dmix[i], want.Dmix[i]) {
					t.Fatalf("%d species, state %d species %d: Dmix %x, reference %x (T=%v Y=%v)",
						n, s, i, math.Float64bits(got.Dmix[i]), math.Float64bits(want.Dmix[i]), T, Y)
				}
			}
		}
	}
}

// mixturePoint is the one-point evaluation Mixture ran before the row
// kernel: mole fractions from MeanW(Y), one batch exponential over the n
// viscosity fits and the D_ij fit of every unordered pair with a species
// present, then the Wilke, Mathur–Saxena and diffusion sums of the point.
// MixtureRow must return its bits at every point of a row.
func mixturePoint(m *Model, T, p float64, Y []float64, props *Props) {
	n := m.Set.Len()
	x := make([]float64, n)
	fit := make([]float64, len(m.fits))
	m.Set.MoleFractions(Y, x)
	for i := range x {
		if x[i] < 0 {
			x[i] = 0
		}
	}
	lnT := math.Log(clampFitT(T))
	for i := 0; i < n; i++ {
		fit[i] = fitArg(m.muFit[i], lnT)
	}
	k, pair := n, n
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if x[i] != 0 || x[j] != 0 {
				fit[k] = fitArg(m.fits[pair], lnT)
				k++
			}
			pair++
		}
	}
	vexp.Exp(fit[:k], fit[:k])
	mu := fit[:n]

	var muMix float64
	for i := 0; i < n; i++ {
		if x[i] == 0 {
			continue
		}
		var denom float64
		for j := 0; j < n; j++ {
			if x[j] == 0 {
				continue
			}
			r := math.Sqrt(mu[i]/mu[j]) * m.w4[i][j]
			denom += x[j] * (1 + r) * (1 + r) * m.wPhi[i][j]
		}
		muMix += x[i] * mu[i] / denom
	}
	props.Mu = muMix

	var sum, inv float64
	for i, sp := range m.Set.Species {
		lam := mu[i] * (sp.Cp(T) + 1.25*thermo.R/sp.W)
		sum += x[i] * lam
		if x[i] > 0 {
			inv += x[i] / lam
		}
	}
	props.Lambda = 0.5 * (sum + 1/inv)

	pScale := 101325 / p
	dmix := props.Dmix[:n]
	clear(dmix)
	k = n
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if x[i] != 0 || x[j] != 0 {
				d := fit[k] * pScale
				k++
				if x[j] != 0 {
					dmix[i] += x[j] / d
				}
				if x[i] != 0 {
					dmix[j] += x[i] / d
				}
			}
		}
	}
	for i, denom := range dmix {
		if denom < 1e-30 {
			dmix[i] = evalFit(m.dFit[i][i], lnT) * pScale
			continue
		}
		dmix[i] = (1 - x[i]) / denom
		if dmix[i] <= 0 {
			dmix[i] = evalFit(m.dFit[i][i], lnT) * pScale
		}
	}
}

// transportSets are the species sets the row kernel is held to: the
// benchmark box's two-species air, the H2 and the CH4 mechanisms.
func transportSets() map[string]*thermo.Set {
	return map[string]*thermo.Set{
		"air2": thermo.MustSet("O2", "N2"),
		"h2":   chem.H2Air().Set,
		"ch4":  chem.CH4Skeletal().Set,
	}
}

// rowState fills point i of a row with a state of the given kind: some
// species absent, a pure species, T below and above the fit range,
// everything present; p varies from point to point.
func rowState(rng *rand.Rand, kind, i int, T, p []float64, Y [][]float64) {
	n := len(Y)
	for a := range Y {
		Y[a][i] = 0
	}
	switch kind % 5 {
	case 0: // a pure species: the self-diffusion fallback
		Y[rng.Intn(n)][i] = 1
	case 1, 2: // a random subset: the x = 0 skips
		for a := range Y {
			if rng.Intn(3) > 0 {
				Y[a][i] = rng.Float64()
			}
		}
	default: // every species
		for a := range Y {
			Y[a][i] = rng.Float64() + 1e-3
		}
	}
	var sum float64
	for a := range Y {
		sum += Y[a][i]
	}
	if sum == 0 {
		Y[n-1][i], sum = 1, 1
	}
	for a := range Y {
		Y[a][i] /= sum
	}
	T[i] = 250 + 3250*rng.Float64()
	switch kind % 7 {
	case 3:
		T[i] = 100 + 140*rng.Float64() // below the fits' 250 K
	case 5:
		T[i] = 3600 + 2000*rng.Float64() // above their 3500 K
	}
	p[i] = 101325 * (0.5 + 2*rng.Float64())
}

// TestMixtureRowBits: at row widths that end in every vexp tail (1, 3, 4,
// 5, 17, 32), over rows that mix absent species, pure species, clamped
// temperatures and non-uniform pressure, MixtureRow returns at every point
// the bits of the one-point evaluation it replaced (mixturePoint): μ, λ and
// every Dₙ. One model serves every width in turn, up and down, so scratch
// left by a wider or narrower row would show; the outputs start as NaN, so
// a value the kernel failed to write would too.
func TestMixtureRowBits(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, set := range transportSets() {
		m := MustNew(set)
		n := set.Len()
		rng := rand.New(rand.NewSource(38))
		want := &Props{Dmix: make([]float64, n)}
		yPt := make([]float64, n)
		for round := 0; round < 8; round++ {
			for _, w := range []int{1, 3, 4, 5, 17, 32} {
				T, p, W := make([]float64, w), make([]float64, w), make([]float64, w)
				mu, lam := make([]float64, w), make([]float64, w)
				Y, D := make([][]float64, n), make([][]float64, n)
				for a := range Y {
					Y[a], D[a] = make([]float64, w), make([]float64, w)
				}
				for i := range T {
					rowState(rng, i+round, i, T, p, Y)
					for a := range Y {
						yPt[a] = Y[a][i]
						D[a][i] = math.NaN()
					}
					W[i] = set.MeanW(yPt)
					mu[i], lam[i] = math.NaN(), math.NaN()
				}
				m.MixtureRow(T, p, W, Y, mu, lam, D)
				for i := range T {
					for a := range Y {
						yPt[a] = Y[a][i]
					}
					mixturePoint(m, T[i], p[i], yPt, want)
					if !same(mu[i], want.Mu) || !same(lam[i], want.Lambda) {
						t.Fatalf("%s w=%d point %d: mu %x lambda %x, one-point %x %x (T=%v Y=%v)", name, w, i,
							math.Float64bits(mu[i]), math.Float64bits(lam[i]),
							math.Float64bits(want.Mu), math.Float64bits(want.Lambda), T[i], yPt)
					}
					for a := range D {
						if !same(D[a][i], want.Dmix[a]) {
							t.Fatalf("%s w=%d point %d species %d: D %x, one-point %x (T=%v Y=%v)", name, w, i, a,
								math.Float64bits(D[a][i]), math.Float64bits(want.Dmix[a]), T[i], yPt)
						}
					}
				}
			}
		}
	}
}

// benchRow is a 32-point row of the benchmark states of one species set.
type benchRow struct {
	T, p, W, mu, lam []float64
	Y, D             [][]float64
}

func newBenchRow(set *thermo.Set) *benchRow {
	const w = 32
	n := set.Len()
	r := &benchRow{T: make([]float64, w), p: make([]float64, w), W: make([]float64, w),
		mu: make([]float64, w), lam: make([]float64, w), Y: make([][]float64, n), D: make([][]float64, n)}
	for a := range r.Y {
		r.Y[a], r.D[a] = make([]float64, w), make([]float64, w)
	}
	rng := rand.New(rand.NewSource(1))
	y := make([]float64, n)
	for i := range r.T {
		var sum float64
		for a := range y {
			y[a] = rng.Float64() + 1e-3
			sum += y[a]
		}
		for a := range y {
			r.Y[a][i] = y[a] / sum
			y[a] = r.Y[a][i]
		}
		r.T[i], r.p[i], r.W[i] = 300+2000*rng.Float64(), 101325, set.MeanW(y)
	}
	return r
}

// BenchmarkMixtureRow times MixtureRow over a 32-point row of states with
// every species present; ns/point is the cost per grid point.
func BenchmarkMixtureRow(b *testing.B) {
	for _, name := range []string{"air2", "h2", "ch4"} {
		set := transportSets()[name]
		b.Run(name, func(b *testing.B) {
			m, r := MustNew(set), newBenchRow(set)
			for range b.N {
				m.MixtureRow(r.T, r.p, r.W, r.Y, r.mu, r.lam, r.D)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r.T)), "ns/point")
		})
	}
}

// BenchmarkMixture times the one-point call over the same 32 states, one
// Mixture call per point.
func BenchmarkMixture(b *testing.B) {
	for _, name := range []string{"air2", "h2", "ch4"} {
		set := transportSets()[name]
		b.Run(name, func(b *testing.B) {
			m, r := MustNew(set), newBenchRow(set)
			ys := make([][]float64, len(r.T))
			for i := range ys {
				ys[i] = make([]float64, set.Len())
				for a := range r.Y {
					ys[i][a] = r.Y[a][i]
				}
			}
			props := &Props{Dmix: make([]float64, set.Len())}
			for range b.N {
				for i, y := range ys {
					m.Mixture(r.T[i], r.p[i], y, props)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r.T)), "ns/point")
		})
	}
}
