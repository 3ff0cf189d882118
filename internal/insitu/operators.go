package insitu

import (
	"fmt"
	"math"
)

// Moments reduces a field to its volume-weighted mean, RMS and extrema.
// With Favre set, the mean and RMS are density-weighted (ρ-weighted —
// the compressible-flow averaging of the FPV literature); extrema are
// always unweighted.
type Moments struct {
	Field string
	Favre bool
}

// Slot layout: [sumW, sumWX, sumWX2, min, max, vol, cells].
const momentsSlots = 7

// Name returns the field name, suffixed _favre for Favre weighting.
func (m Moments) Name() string {
	if m.Favre {
		return m.Field + "_favre"
	}
	return m.Field
}

// Slots implements Operator.
func (m Moments) Slots() int { return momentsSlots }

// Bind implements Operator.
func (m Moments) Bind(b Binder) (Kernel, error) {
	src, err := b.Source(m.Field)
	if err != nil {
		return nil, err
	}
	if !m.Favre {
		return func(acc []float64, idx int, vol float64) {
			x := src(idx)
			acc[0] += vol
			acc[1] += vol * x
			acc[2] += vol * x * x
			if x < acc[3] {
				acc[3] = x
			}
			if x > acc[4] {
				acc[4] = x
			}
			acc[5] += vol
			acc[6]++
		}, nil
	}
	rho, err := b.Source("rho")
	if err != nil {
		return nil, err
	}
	return func(acc []float64, idx int, vol float64) {
		x := src(idx)
		w := rho(idx) * vol
		acc[0] += w
		acc[1] += w * x
		acc[2] += w * x * x
		if x < acc[3] {
			acc[3] = x
		}
		if x > acc[4] {
			acc[4] = x
		}
		acc[5] += vol
		acc[6]++
	}, nil
}

// Init implements Operator.
func (m Moments) Init(acc []float64) {
	for i := range acc {
		acc[i] = 0
	}
	acc[3] = math.Inf(1)
	acc[4] = math.Inf(-1)
}

// Merge implements Operator.
func (m Moments) Merge(dst, src []float64) {
	dst[0] += src[0]
	dst[1] += src[1]
	dst[2] += src[2]
	if src[3] < dst[3] {
		dst[3] = src[3]
	}
	if src[4] > dst[4] {
		dst[4] = src[4]
	}
	dst[5] += src[5]
	dst[6] += src[6]
}

// Finish implements Operator.
func (m Moments) Finish(acc []float64) Product {
	mean, rms := 0.0, 0.0
	if acc[0] > 0 {
		mean = acc[1] / acc[0]
		v := acc[2]/acc[0] - mean*mean
		if v > 0 {
			rms = math.Sqrt(v)
		}
	}
	return Product{
		Op:   "moments",
		Name: m.Name(),
		Scalars: map[string]float64{
			"mean":   mean,
			"rms":    rms,
			"min":    acc[3],
			"max":    acc[4],
			"weight": acc[0],
			"volume": acc[5],
			"cells":  acc[6],
		},
	}
}

// Hist reduces a field to a fixed-bin volume-weighted histogram. The
// bounds are explicit and frozen for the whole run — successive records
// share one axis and stay mutually comparable (the failure mode of the
// old auto-ranging in-situ histogram). Out-of-range samples clip to the
// end bins.
type Hist struct {
	Field  string
	Bins   int // 0 selects 32
	Lo, Hi float64
}

// Name implements Operator.
func (h Hist) Name() string { return h.Field }

func (h Hist) bins() int {
	if h.Bins <= 0 {
		return 32
	}
	return h.Bins
}

// Slots implements Operator.
func (h Hist) Slots() int { return h.bins() }

// Bind implements Operator.
func (h Hist) Bind(b Binder) (Kernel, error) {
	if !(h.Hi > h.Lo) {
		return nil, fmt.Errorf("insitu: histogram %q needs Hi > Lo (got [%g, %g])", h.Field, h.Lo, h.Hi)
	}
	src, err := b.Source(h.Field)
	if err != nil {
		return nil, err
	}
	n := h.bins()
	inv := float64(n) / (h.Hi - h.Lo)
	lo := h.Lo
	return func(acc []float64, idx int, vol float64) {
		bin := int((src(idx) - lo) * inv)
		if bin < 0 {
			bin = 0
		} else if bin >= n {
			bin = n - 1
		}
		acc[bin] += vol
	}, nil
}

// Init implements Operator.
func (h Hist) Init(acc []float64) {
	for i := range acc {
		acc[i] = 0
	}
}

// Merge implements Operator.
func (h Hist) Merge(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Finish implements Operator.
func (h Hist) Finish(acc []float64) Product {
	total := 0.0
	for _, v := range acc {
		total += v
	}
	bins := make([]float64, len(acc))
	counts := make([]float64, len(acc))
	copy(counts, acc)
	if total > 0 {
		for i, v := range acc {
			bins[i] = v / total
		}
	}
	return Product{
		Op:      "hist",
		Name:    h.Name(),
		Lo:      h.Lo,
		Hi:      h.Hi,
		Bins:    bins,
		Counts:  counts,
		Scalars: map[string]float64{"weight": total},
	}
}

// Conditional reduces ⟨Of | On⟩: the conditional mean (and RMS) of one
// field binned against another — ⟨T|Z⟩, ⟨Y_OH|c⟩ — the workhorse product
// of flamelet-style analysis. Samples whose conditioning value falls
// outside [Lo, Hi] are dropped; the top edge is closed so On == Hi (e.g.
// Z = 1) lands in the last bin. With Favre set, means are ρ-weighted.
type Conditional struct {
	Of, On string
	Bins   int // 0 selects 32
	Lo, Hi float64
	Favre  bool
}

// Name implements Operator.
func (c Conditional) Name() string { return c.Of + "|" + c.On }

func (c Conditional) bins() int {
	if c.Bins <= 0 {
		return 32
	}
	return c.Bins
}

// Slots returns 4 blocks of Bins: [sumW | sumWX | sumWX2 | count].
func (c Conditional) Slots() int { return 4 * c.bins() }

// Bind implements Operator.
func (c Conditional) Bind(b Binder) (Kernel, error) {
	if !(c.Hi > c.Lo) {
		return nil, fmt.Errorf("insitu: conditional %q needs Hi > Lo (got [%g, %g])", c.Name(), c.Lo, c.Hi)
	}
	of, err := b.Source(c.Of)
	if err != nil {
		return nil, err
	}
	on, err := b.Source(c.On)
	if err != nil {
		return nil, err
	}
	var rho Source
	if c.Favre {
		if rho, err = b.Source("rho"); err != nil {
			return nil, err
		}
	}
	n := c.bins()
	inv := float64(n) / (c.Hi - c.Lo)
	lo, hi := c.Lo, c.Hi
	return func(acc []float64, idx int, vol float64) {
		cond := on(idx)
		if cond < lo || cond > hi {
			return
		}
		bin := int((cond - lo) * inv)
		if bin >= n {
			bin = n - 1 // closed top edge: cond == Hi joins the last bin
		}
		w := vol
		if rho != nil {
			w = rho(idx) * vol
		}
		x := of(idx)
		acc[bin] += w
		acc[n+bin] += w * x
		acc[2*n+bin] += w * x * x
		acc[3*n+bin]++
	}, nil
}

// Init implements Operator.
func (c Conditional) Init(acc []float64) {
	for i := range acc {
		acc[i] = 0
	}
}

// Merge implements Operator.
func (c Conditional) Merge(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Finish implements Operator. Bins carries the conditional means (0 for
// empty bins), Counts the per-bin sample counts.
func (c Conditional) Finish(acc []float64) Product {
	n := c.bins()
	means := make([]float64, n)
	counts := make([]float64, n)
	samples := 0.0
	for i := 0; i < n; i++ {
		counts[i] = acc[3*n+i]
		samples += counts[i]
		if acc[i] > 0 {
			means[i] = acc[n+i] / acc[i]
		}
	}
	return Product{
		Op:      "cond",
		Name:    c.Name(),
		Lo:      c.Lo,
		Hi:      c.Hi,
		Bins:    means,
		Counts:  counts,
		Scalars: map[string]float64{"samples": samples},
	}
}

// GradMag integrates Scale·|∇f| over the domain from three pre-computed
// gradient component fields — the flame-surface-density proxy ∫|∇c| dV
// when the components are the progress-variable gradient. The gradients
// are whatever the final RK stage left in the registry's derivative
// fields. A component along an axis of one point is identically zero and has
// no field; its name is left empty.
type GradMag struct {
	Label  string    // product name, e.g. "flame_surface"
	Fields [3]string // gradient component field names; "" = zero component
	Scale  float64   // 0 selects 1
}

// Name implements Operator.
func (g GradMag) Name() string { return g.Label }

// Slots returns 2: [integral, vol].
func (g GradMag) Slots() int { return 2 }

// Bind implements Operator.
func (g GradMag) Bind(b Binder) (Kernel, error) {
	var src [3]Source
	for a, name := range g.Fields {
		if name == "" {
			src[a] = func(int) float64 { return 0 }
			continue
		}
		s, err := b.Source(name)
		if err != nil {
			return nil, err
		}
		src[a] = s
	}
	scale := g.Scale
	if scale == 0 {
		scale = 1
	}
	gx, gy, gz := src[0], src[1], src[2]
	return func(acc []float64, idx int, vol float64) {
		x, y, z := gx(idx), gy(idx), gz(idx)
		acc[0] += scale * math.Sqrt(x*x+y*y+z*z) * vol
		acc[1] += vol
	}, nil
}

// Init implements Operator.
func (g GradMag) Init(acc []float64) { acc[0], acc[1] = 0, 0 }

// Merge implements Operator.
func (g GradMag) Merge(dst, src []float64) { dst[0] += src[0]; dst[1] += src[1] }

// Finish implements Operator.
func (g GradMag) Finish(acc []float64) Product {
	mean := 0.0
	if acc[1] > 0 {
		mean = acc[0] / acc[1]
	}
	return Product{
		Op:   "gradmag",
		Name: g.Label,
		Scalars: map[string]float64{
			"integral": acc[0],
			"mean":     mean,
			"volume":   acc[1],
		},
	}
}

// VolumeFraction reduces a field to the fraction of domain volume where
// it exceeds a threshold — the reaction-zone (T > T_ign) or burnt-gas
// volume fraction.
type VolumeFraction struct {
	Label     string // product name, e.g. "reaction_zone"
	Field     string
	Threshold float64
}

// Name implements Operator.
func (v VolumeFraction) Name() string { return v.Label }

// Slots returns 2: [volAbove, vol].
func (v VolumeFraction) Slots() int { return 2 }

// Bind implements Operator.
func (v VolumeFraction) Bind(b Binder) (Kernel, error) {
	src, err := b.Source(v.Field)
	if err != nil {
		return nil, err
	}
	thr := v.Threshold
	return func(acc []float64, idx int, vol float64) {
		if src(idx) > thr {
			acc[0] += vol
		}
		acc[1] += vol
	}, nil
}

// Init implements Operator.
func (v VolumeFraction) Init(acc []float64) { acc[0], acc[1] = 0, 0 }

// Merge implements Operator.
func (v VolumeFraction) Merge(dst, src []float64) { dst[0] += src[0]; dst[1] += src[1] }

// Finish implements Operator.
func (v VolumeFraction) Finish(acc []float64) Product {
	frac := 0.0
	if acc[1] > 0 {
		frac = acc[0] / acc[1]
	}
	return Product{
		Op:   "volfrac",
		Name: v.Label,
		Scalars: map[string]float64{
			"fraction":     frac,
			"volume_above": acc[0],
			"threshold":    v.Threshold,
		},
	}
}
