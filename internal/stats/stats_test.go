package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/s3dgo/s3d/internal/thermo"
)

func h2Streams() (*thermo.Set, []float64, []float64) {
	set := thermo.MustSet("H2", "O2", "N2", "H2O", "OH")
	// Fuel: 65% H2 / 35% N2 by volume (the paper's central jet).
	xF := []float64{0.65, 0, 0.35, 0, 0}
	yF := make([]float64, 5)
	set.MassFractions(xF, yF)
	yOx := []float64{0, 0.233, 0.767, 0, 0}
	return set, yF, yOx
}

func TestBilgerEndpoints(t *testing.T) {
	set, yF, yOx := h2Streams()
	b := NewBilger(set, yF, yOx)
	if xi := b.Xi(yF); math.Abs(xi-1) > 1e-12 {
		t.Fatalf("fuel-stream ξ = %g", xi)
	}
	if xi := b.Xi(yOx); math.Abs(xi) > 1e-12 {
		t.Fatalf("oxidiser-stream ξ = %g", xi)
	}
}

func TestBilgerLinearInBlending(t *testing.T) {
	set, yF, yOx := h2Streams()
	b := NewBilger(set, yF, yOx)
	prop := func(fRaw uint8) bool {
		f := float64(fRaw) / 255
		y := make([]float64, len(yF))
		for i := range y {
			y[i] = f*yF[i] + (1-f)*yOx[i]
		}
		return math.Abs(b.Xi(y)-f) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestBilgerConservedUnderReaction(t *testing.T) {
	// Converting H2+O2 into H2O must not change ξ (element-based).
	set, yF, yOx := h2Streams()
	b := NewBilger(set, yF, yOx)
	y := []float64{0.02, 0.20, 0.73, 0.05, 0.0}
	before := b.Xi(y)
	// React 2H2 + O2 → 2H2O with exact species-weight ratios so elements
	// are conserved to machine precision.
	wH2 := set.Species[set.Index("H2")].W
	wO2 := set.Species[set.Index("O2")].W
	wH2O := set.Species[set.Index("H2O")].W
	dH2 := -0.01
	dO2 := dH2 / (2 * wH2) * wO2
	dH2O := -dH2 / wH2 * wH2O
	y2 := []float64{y[0] + dH2, y[1] + dO2, y[2], y[3] + dH2O, y[4]}
	after := b.Xi(y2)
	if math.Abs(before-after) > 1e-9 {
		t.Fatalf("ξ changed under reaction: %g → %g", before, after)
	}
}

func TestXiStoichReasonable(t *testing.T) {
	set, yF, yOx := h2Streams()
	b := NewBilger(set, yF, yOx)
	xiSt := b.XiStoich()
	// For 65/35 H2/N2 vs air, stoichiometric ξ is lean-shifted, around
	// 0.1–0.4 (pure H2/air would be ≈ 0.028; dilution raises it).
	if xiSt < 0.02 || xiSt > 0.6 {
		t.Fatalf("ξ_st = %g out of plausible range", xiSt)
	}
	// Verify against the zero of the coupling function by blending.
	y := make([]float64, len(yF))
	for i := range y {
		y[i] = xiSt*yF[i] + (1-xiSt)*yOx[i]
	}
	if beta := b.beta(y); math.Abs(beta) > 1e-9 {
		t.Fatalf("β(ξ_st) = %g, want 0", beta)
	}
}

func TestProgressVariable(t *testing.T) {
	p := Progress{YO2u: 0.22, YO2b: 0.05}
	if c := p.C(0.22); c != 0 {
		t.Fatalf("c(unburnt) = %g", c)
	}
	if c := p.C(0.05); c != 1 {
		t.Fatalf("c(burnt) = %g", c)
	}
	if c := p.C(0.135); math.Abs(c-0.5) > 1e-12 {
		t.Fatalf("c(mid) = %g", c)
	}
	if c := p.C(0.30); c != 0 {
		t.Fatalf("clipping failed: %g", c)
	}
}

func TestConditionalMeanRecoversFunction(t *testing.T) {
	c := NewConditional(20, 0, 1)
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 100000; n++ {
		x := rng.Float64()
		y := 3*x + 1 + 0.1*rng.NormFloat64()
		c.Add(x, y)
	}
	centers, means, stds, counts := c.Bins()
	for i := range centers {
		if counts[i] < 100 {
			t.Fatalf("bin %d underpopulated", i)
		}
		want := 3*centers[i] + 1
		if math.Abs(means[i]-want) > 0.05 {
			t.Fatalf("bin %d mean = %g, want %g", i, means[i], want)
		}
		if math.Abs(stds[i]-0.1) > 0.03 {
			t.Fatalf("bin %d std = %g, want ≈ 0.1", i, stds[i])
		}
	}
}

func TestConditionalEmptyBinsNaN(t *testing.T) {
	c := NewConditional(4, 0, 1)
	c.Add(0.1, 5)
	_, means, _, counts := c.Bins()
	if counts[0] != 1 || math.IsNaN(means[0]) {
		t.Fatal("populated bin wrong")
	}
	if !math.IsNaN(means[3]) {
		t.Fatal("empty bin should be NaN")
	}
}

func TestConditionalIgnoresOutOfRange(t *testing.T) {
	c := NewConditional(4, 0, 1)
	c.Add(-0.5, 100)
	c.Add(1.5, 100)
	_, _, _, counts := c.Bins()
	for _, n := range counts {
		if n != 0 {
			t.Fatal("out-of-range sample binned")
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 0, 1)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i%10)/10 + 0.05)
	}
	p := h.Normalized()
	for i, v := range p {
		if math.Abs(v-0.1) > 1e-12 {
			t.Fatalf("bin %d probability %g", i, v)
		}
	}
	// Clipping.
	h.Add(-5)
	h.Add(5)
	if h.Counts[0] != 101 || h.Counts[9] != 101 {
		t.Fatalf("clipping failed: %v", h.Counts)
	}
}

func TestCorrelationSigns(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if c := Correlation(x, y); math.Abs(c-1) > 1e-12 {
		t.Fatalf("perfect correlation = %g", c)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if c := Correlation(x, yneg); math.Abs(c+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %g", c)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if c := Correlation(x, flat); c != 0 {
		t.Fatalf("degenerate correlation = %g", c)
	}
}
