package s3d

// In-situ analysis: the public face of the science-reduction pipeline
// (internal/insitu). EnableAnalysis registers a set of analysis operators
// — global moments, histograms, conditional means ⟨T|Z⟩ / ⟨Y_k|c⟩, the
// |∇c| flame-surface proxy, reaction-zone volume fraction, heat release —
// against solver registry field names plus the derived science variables
// "Z" (Bilger mixture fraction) and "c" (O2-based progress variable). The
// operators run fused into the solver's tiled step pass and reduce
// cross-rank in ascending rank order, so a step's statistics are bitwise
// identical for any worker or rank count, and no raw field data ever
// leaves the node — only the reduced products, streamed to the monitor's
// GET /analysis document, the analysis_* gauges, the run trace's analysis
// records and any in-process subscribers. See README.md, "In-situ analysis".

import (
	"fmt"
	"math"

	"github.com/s3dgo/s3d/internal/insitu"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/stats"
)

// AnalysisRecord is one step's reduced analysis document (re-exported from
// internal/insitu for subscribers and ReadAnalysis consumers).
type AnalysisRecord = insitu.Record

// AnalysisProduct is one operator's finished statistics within a record.
type AnalysisProduct = insitu.Product

// MomentSpec requests volume-weighted mean/rms/extrema of a field; Favre
// selects density weighting for the mean and rms.
type MomentSpec struct {
	Field string
	Favre bool
}

// HistogramSpec requests a fixed-bin volume-weighted histogram of the
// temperature. Bounds are explicit and frozen for the whole run so
// successive records share one axis. Bins of 0 selects 32.
type HistogramSpec struct {
	Bins   int
	Lo, Hi float64
}

// ConditionalSpec requests the Favre (density-weighted) conditional mean
// ⟨Of | On⟩ over Bins bins of the conditioning variable in [0, 1]. On is a
// derived variable ("Z", "c"), both clipped to [0, 1], or a registry field
// already normalised to that range.
type ConditionalSpec struct {
	Of, On string
	Bins   int
}

// StreamsSpec defines the fuel and oxidiser stream compositions behind the
// derived mixture-fraction variable "Z" (Bilger's coupling function,
// clipped to [0, 1]).
type StreamsSpec struct {
	YFuel, YOx []float64
}

// ProgressSpec defines the O2-based reaction progress variable "c"
// (paper §7.3): c = (YO2u − Y_O2)/(YO2u − YO2b), clipped to [0, 1].
type ProgressSpec struct {
	YO2u, YO2b float64
}

// ReactionZoneSpec requests the volume fraction where the temperature
// exceeds Threshold (K) — the reaction-zone conditioning of §7.
type ReactionZoneSpec struct {
	Threshold float64
}

// AnalysisSpec configures EnableAnalysis. Every is the reduction cadence
// in steps (≤0 selects every step); the operator groups compose freely.
type AnalysisSpec struct {
	Every int

	Moments      []MomentSpec
	Histograms   []HistogramSpec
	Conditionals []ConditionalSpec

	// MixtureFraction enables the derived variable "Z" for conditionals.
	MixtureFraction *StreamsSpec
	// Progress enables the derived variable "c" for conditionals, and is
	// required by FlameSurface.
	Progress *ProgressSpec

	// FlameSurface requests the flame-surface proxy ∫|∇c| dV: ∇Y_O2, taken
	// at each point by the solver's own derivative operator, scaled by the
	// progress normalisation (requires Progress).
	FlameSurface bool
	// ReactionZone requests the reaction-zone volume fraction.
	ReactionZone *ReactionZoneSpec
	// HeatRelease requests the global heat-release integral (W), collected
	// by piggybacking on the final RK stage's chemistry (in the flux sweep).
	HeatRelease bool
}

// analysisBinder layers the derived science variables over the solver's
// registry-backed field sources.
type analysisBinder struct {
	base    insitu.Binder
	derived map[string]insitu.Source
}

// Source implements insitu.Binder.
func (ab analysisBinder) Source(name string) (insitu.Source, error) {
	if src, ok := ab.derived[name]; ok {
		return src, nil
	}
	return ab.base.Source(name)
}

// EnableAnalysis builds, installs and enables the in-situ pipeline
// described by spec, and returns it for Subscribe, Latest and Handler
// access. Session.Arm states where it belongs in the enable order.
func (s *Simulation) EnableAnalysis(spec AnalysisSpec) (*insitu.Pipeline, error) {
	bnd, err := s.analysisBinder(spec)
	if err != nil {
		return nil, err
	}
	p := insitu.NewPipeline(spec.Every)
	for _, m := range spec.Moments {
		if err := p.Register(insitu.Moments{Field: m.Field, Favre: m.Favre}, bnd); err != nil {
			return nil, err
		}
	}
	for _, h := range spec.Histograms {
		if err := p.Register(insitu.Hist{Field: "T", Bins: h.Bins, Lo: h.Lo, Hi: h.Hi}, bnd); err != nil {
			return nil, err
		}
	}
	for _, c := range spec.Conditionals {
		op := insitu.Conditional{Of: c.Of, On: c.On, Bins: c.Bins, Lo: 0, Hi: 1, Favre: true}
		if err := p.Register(op, bnd); err != nil {
			return nil, err
		}
	}
	if spec.FlameSurface {
		pr := spec.Progress
		if pr == nil {
			return nil, fmt.Errorf("s3d: FlameSurface requires Progress (the |∇c| scale)")
		}
		// An axis of one point has no derivative: its component is zero.
		var grad [3]string
		nx, ny, nz := s.Dims()
		for a, n := range [3]int{nx, ny, nz} {
			if n > 1 {
				grad[a] = "dY_O2_d" + "xyz"[a:a+1]
			}
		}
		op := insitu.GradMag{
			Label:  "flame_surface",
			Fields: grad,
			Scale:  1 / math.Abs(pr.YO2u-pr.YO2b),
		}
		if err := p.Register(op, bnd); err != nil {
			return nil, err
		}
	}
	if rz := spec.ReactionZone; rz != nil {
		op := insitu.VolumeFraction{Label: "reaction_zone", Field: "T", Threshold: rz.Threshold}
		if err := p.Register(op, bnd); err != nil {
			return nil, err
		}
	}
	p.SetHeatRelease(spec.HeatRelease)
	s.blk.InstallAnalysis(p)
	p.Enable()
	return p, nil
}

// Analysis returns the installed pipeline (nil before EnableAnalysis).
func (s *Simulation) Analysis() *insitu.Pipeline { return s.blk.Analysis() }

// Subscribe registers fn to receive every finished analysis record, on the
// goroutine driving the simulation. EnableAnalysis must have been called.
func (s *Simulation) Subscribe(fn func(AnalysisRecord)) error {
	p := s.blk.Analysis()
	if p == nil {
		return fmt.Errorf("s3d: Subscribe requires EnableAnalysis first")
	}
	p.Subscribe(fn)
	return nil
}

// ReadAnalysis loads the analysis records of a run trace, in step order.
func ReadAnalysis(path string) ([]AnalysisRecord, error) {
	return readLayer[AnalysisRecord](path, obs.KindAnalysis)
}

// analysisBinder assembles the binder resolving spec's field names: the
// solver registry plus the derived "Z", "c" and, for FlameSurface, the
// components "dY_O2_dx", "dY_O2_dy", "dY_O2_dz".
func (s *Simulation) analysisBinder(spec AnalysisSpec) (insitu.Binder, error) {
	derived := map[string]insitu.Source{}
	ns := s.mech.NumSpecies()
	if mf := spec.MixtureFraction; mf != nil {
		if len(mf.YFuel) != ns || len(mf.YOx) != ns {
			return nil, fmt.Errorf("s3d: MixtureFraction streams need %d species mass fractions", ns)
		}
		bil := stats.NewBilger(s.mech.chem.Set, mf.YFuel, mf.YOx)
		w, w0 := bil.LinearWeights(ns)
		// ξ is linear in Y, so the per-cell evaluation is one dot product
		// over the species fields at the sweep's shared flat index.
		ys := make([][]float64, ns)
		for n := 0; n < ns; n++ {
			ys[n] = s.blk.Y[n].Data
		}
		derived["Z"] = func(idx int) float64 {
			z := w0
			for n := range ys {
				z += w[n] * ys[n][idx]
			}
			if z < 0 {
				return 0
			}
			if z > 1 {
				return 1
			}
			return z
		}
	}
	if pr := spec.Progress; pr != nil {
		if pr.YO2u == pr.YO2b {
			return nil, fmt.Errorf("s3d: Progress needs YO2u ≠ YO2b")
		}
		iO2 := s.mech.SpeciesIndex("O2")
		if iO2 < 0 {
			return nil, fmt.Errorf("s3d: Progress requires an O2 species in the mechanism")
		}
		yO2 := s.blk.Y[iO2].Data
		u, inv := pr.YO2u, 1/(pr.YO2u-pr.YO2b)
		// The flame-surface components: the solver stores no gradient, so
		// each differentiates Y_O2 at the sweep's point.
		if spec.FlameSurface {
			for a := 0; a < 3; a++ {
				derived["dY_O2_d"+"xyz"[a:a+1]] = s.blk.DerivSource(s.blk.Y[iO2], a)
			}
		}
		derived["c"] = func(idx int) float64 {
			c := (u - yO2[idx]) * inv
			if c < 0 {
				return 0
			}
			if c > 1 {
				return 1
			}
			return c
		}
	}
	return analysisBinder{base: s.blk.NewBinder(), derived: derived}, nil
}

// StandardAnalysis returns the problem's default science-diagnostics set:
// Favre temperature and OH moments, a temperature histogram, ⟨T|Z⟩ against
// the problem's stream compositions, ⟨Y_OH|c⟩ with the flame-surface
// integral when the streams define a progress variable, the T > 1500 K
// reaction-zone volume fraction, and the heat-release integral for
// reacting runs.
func (p *Problem) StandardAnalysis() AnalysisSpec {
	spec := AnalysisSpec{
		Every: 1,
		Moments: []MomentSpec{
			{Field: "T", Favre: true},
		},
		Histograms: []HistogramSpec{
			{Bins: 32, Lo: 250, Hi: 3000},
		},
		ReactionZone: &ReactionZoneSpec{Threshold: 1500},
		HeatRelease:  !p.Config.ChemistryOff,
	}
	if p.Config.Mechanism != nil && p.Config.Mechanism.SpeciesIndex("OH") >= 0 {
		spec.Moments = append(spec.Moments, MomentSpec{Field: "Y_OH", Favre: true})
	}
	if len(p.YFuel) > 0 && len(p.YOx) > 0 {
		spec.MixtureFraction = &StreamsSpec{YFuel: p.YFuel, YOx: p.YOx}
		spec.Conditionals = append(spec.Conditionals, ConditionalSpec{Of: "T", On: "Z", Bins: 16})
		if iO2 := p.Config.Mechanism.SpeciesIndex("O2"); iO2 >= 0 {
			u, b := p.YFuel[iO2], p.YOx[iO2]
			if math.Abs(u-b) > 1e-12 {
				spec.Progress = &ProgressSpec{YO2u: u, YO2b: b}
				spec.FlameSurface = true
				if p.Config.Mechanism.SpeciesIndex("OH") >= 0 {
					spec.Conditionals = append(spec.Conditionals, ConditionalSpec{Of: "Y_OH", On: "c", Bins: 16})
				}
			}
		}
	}
	return spec
}
