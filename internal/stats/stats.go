// Package stats provides the flame diagnostics of the paper's science
// sections: Bilger's mixture fraction (the ξ of the T–ξ scatter plots in
// figure 11), the reaction progress variable c and |∇c| flame-thickness
// measure (figure 13), conditional means and standard deviations over
// binned conditioning variables, and histograms for the visualization
// interface (figure 15).
package stats

import (
	"math"

	"github.com/s3dgo/s3d/internal/thermo"
)

// Bilger computes Bilger's mixture fraction for a state Y given the pure
// fuel-stream and oxidiser-stream compositions. It uses the standard
// coupling function β = 2·Z_C/W_C + Z_H/(2·W_H) − Z_O/W_O:
//
//	ξ = (β − β_ox) / (β_fuel − β_ox)
//
// which is unity in the fuel stream, zero in the oxidiser stream, and
// conserved under chemical reaction.
type Bilger struct {
	set           *thermo.Set
	betaF, betaOx float64
}

// NewBilger prepares a mixture-fraction evaluator for the two streams.
func NewBilger(set *thermo.Set, yFuel, yOx []float64) *Bilger {
	b := &Bilger{set: set}
	b.betaF = b.beta(yFuel)
	b.betaOx = b.beta(yOx)
	return b
}

func (b *Bilger) beta(Y []float64) float64 {
	zc := b.set.ElementMassFraction("C", Y)
	zh := b.set.ElementMassFraction("H", Y)
	zo := b.set.ElementMassFraction("O", Y)
	const wc, wh, wo = 0.0120107, 0.0010079, 0.0159994
	return 2*zc/wc + zh/(2*wh) - zo/wo
}

// Xi returns the mixture fraction of state Y, clipped to [0, 1].
func (b *Bilger) Xi(Y []float64) float64 {
	xi := (b.beta(Y) - b.betaOx) / (b.betaF - b.betaOx)
	if xi < 0 {
		return 0
	}
	if xi > 1 {
		return 1
	}
	return xi
}

// XiStoich returns the stoichiometric mixture fraction: the ξ at which the
// coupling function of the unburnt blend crosses zero.
func (b *Bilger) XiStoich() float64 {
	// β varies linearly in ξ for a two-stream blend: β(ξ) = β_ox + ξ(β_F−β_ox).
	return -b.betaOx / (b.betaF - b.betaOx)
}

// LinearWeights expresses the (unclipped) mixture fraction as a linear
// form over the species mass fractions, ξ = w0 + Σ_n w[n]·Y[n] — possible
// because β is linear in Y. In-situ consumers evaluate ξ per cell as one
// dot product over the species fields without assembling a Y slice.
func (b *Bilger) LinearWeights(ns int) (w []float64, w0 float64) {
	den := b.betaF - b.betaOx
	w = make([]float64, ns)
	e := make([]float64, ns)
	for n := 0; n < ns; n++ {
		e[n] = 1
		w[n] = b.beta(e) / den
		e[n] = 0
	}
	return w, -b.betaOx / den
}

// Progress computes the reaction progress variable used in §7.3: a linear
// function of the O2 mass fraction with c = 0 in reactants and c = 1 in
// products.
type Progress struct {
	YO2u, YO2b float64
}

// C returns the progress variable at the given O2 mass fraction, clipped
// to [0, 1].
func (p Progress) C(yO2 float64) float64 {
	c := (p.YO2u - yO2) / (p.YO2u - p.YO2b)
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// Conditional accumulates the conditional mean and standard deviation of a
// quantity against a binned conditioning variable — the machinery behind
// the open circles and diamonds of figure 11 and the curves of figure 13.
type Conditional struct {
	Lo, Hi float64
	sum    []float64
	sum2   []float64
	count  []float64
}

// NewConditional creates an accumulator with n bins over [lo, hi].
func NewConditional(n int, lo, hi float64) *Conditional {
	return &Conditional{
		Lo: lo, Hi: hi,
		sum:   make([]float64, n),
		sum2:  make([]float64, n),
		count: make([]float64, n),
	}
}

// Add records one (condition, value) sample.
func (c *Conditional) Add(cond, value float64) {
	n := len(c.sum)
	f := (cond - c.Lo) / (c.Hi - c.Lo)
	bin := int(f * float64(n))
	if bin < 0 || bin >= n {
		return
	}
	c.sum[bin] += value
	c.sum2[bin] += value * value
	c.count[bin]++
}

// Bins returns per-bin centres, conditional means, standard deviations and
// sample counts. Bins with no samples report NaN mean/std.
func (c *Conditional) Bins() (centers, means, stds, counts []float64) {
	n := len(c.sum)
	centers = make([]float64, n)
	means = make([]float64, n)
	stds = make([]float64, n)
	counts = make([]float64, n)
	for i := 0; i < n; i++ {
		centers[i] = c.Lo + (float64(i)+0.5)*(c.Hi-c.Lo)/float64(n)
		counts[i] = c.count[i]
		if c.count[i] == 0 {
			means[i] = math.NaN()
			stds[i] = math.NaN()
			continue
		}
		m := c.sum[i] / c.count[i]
		means[i] = m
		v := c.sum2[i]/c.count[i] - m*m
		if v < 0 {
			v = 0
		}
		stds[i] = math.Sqrt(v)
	}
	return centers, means, stds, counts
}

// Histogram is a fixed-range histogram; the paper's time-histogram
// interface (figure 15) stacks one per timestep.
type Histogram struct {
	Lo, Hi float64
	Counts []float64
	total  float64
}

// NewHistogram creates a histogram with n bins over [lo, hi].
func NewHistogram(n int, lo, hi float64) *Histogram {
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]float64, n)}
}

// Add records a sample; out-of-range samples clip to the end bins.
func (h *Histogram) Add(v float64) {
	n := len(h.Counts)
	f := (v - h.Lo) / (h.Hi - h.Lo)
	bin := int(f * float64(n))
	if bin < 0 {
		bin = 0
	}
	if bin >= n {
		bin = n - 1
	}
	h.Counts[bin]++
	h.total++
}

// Normalized returns bin probabilities.
func (h *Histogram) Normalized() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = c / h.total
	}
	return out
}

// Correlation returns the Pearson correlation of two equal-length series —
// used to verify the χ–OH anticorrelation finding of figure 15.
func Correlation(x, y []float64) float64 {
	n := float64(len(x))
	if n == 0 || len(x) != len(y) {
		return math.NaN()
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
