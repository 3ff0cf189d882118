package s3d

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/sdf"
	"github.com/s3dgo/s3d/internal/viz"
)

// In-situ visualization (paper §8.3): for extreme-scale runs the data
// cannot be staged to disk and post-processed, so "the visualization code
// must interact directly with the simulation code" and "share the same
// data structures". InSituImager renders frames straight from the solver's
// live fields inside the one time loop — no copies, no I/O of raw data, only
// the rendered images leave the run. It rides the analysis lane: one frame
// per analysis record, so its cadence is EnableAnalysis's Every and it runs
// under the health watchdog and the trace like every end-of-step consumer.

// InSituImager renders a two-layer fused volume image of the named fields
// directly from solver storage at each analysis step, writing numbered PNGs.
// An empty second field name renders a single layer. Render failures never
// take the simulation down: they are counted in the insitu.render_errors
// metric (when Metrics is set) and the first one is retained for Err.
type InSituImager struct {
	Dir            string
	FieldA, FieldB string
	Width, Height  int

	// Metrics, when non-nil, counts render/write failures under
	// insitu.render_errors (insitu_render_errors in /metrics.prom).
	Metrics *obs.Registry

	frames int
	err    error
}

// Err returns the first frame-write failure, or nil while every frame has
// rendered cleanly.
func (im *InSituImager) Err() error { return im.err }

// fail records one dropped frame.
func (im *InSituImager) fail(err error) {
	im.Metrics.Counter("insitu.render_errors").Inc()
	if im.err == nil {
		im.err = err
	}
}

// Attach creates the frame directory and subscribes the imager to sim's
// analysis lane (EnableAnalysis first): every analysis record renders one
// frame from the live fields, primitives as the step's final stage left
// them. A step the health watchdog aborts publishes no record and so
// renders no frame.
func (im *InSituImager) Attach(sim *Simulation) error {
	if err := os.MkdirAll(im.Dir, 0o755); err != nil {
		return err
	}
	return sim.Subscribe(func(AnalysisRecord) { im.render(sim) })
}

// render writes one frame, whole or not at all.
func (im *InSituImager) render(s *Simulation) {
	w, h := im.Width, im.Height
	if w == 0 {
		w = 320
	}
	if h == 0 {
		h = 240
	}
	layers := make([]viz.Layer, 0, 2)
	add := func(name string, tf *viz.TransferFunc) {
		f := s.blk.FieldByName(name) // live storage, no copy; nil for an unknown name
		if f == nil {
			return
		}
		lo, hi := f.MinMax()
		if hi <= lo {
			hi = lo + 1
		}
		layers = append(layers, viz.Layer{Field: f, TF: tf, Min: lo, Max: hi})
	}
	add(im.FieldA, viz.HotTF(0.85))
	if im.FieldB != "" {
		add(im.FieldB, viz.CoolTF(0.85))
	}
	r := &viz.Renderer{
		Layers: layers,
		Cam:    frontCamera(s),
		Width:  w, Height: h,
		Background: viz.RGBA{R: 0.02, G: 0.02, B: 0.04, A: 1},
	}
	path := filepath.Join(im.Dir, fmt.Sprintf("frame-%05d.png", im.frames))
	im.frames++
	img := r.Render()
	if err := sdf.WriteAtomic(path, func(out io.Writer) error { return viz.WritePNG(out, img) }); err != nil {
		// In-situ rendering must never take the simulation down — but a
		// dropped frame is counted and the first error kept for Err.
		im.fail(err)
	}
}

// Frames returns the number of frames written so far.
func (im *InSituImager) Frames() int { return im.frames }

// frontCamera picks a view axis that sees the largest face.
func frontCamera(s *Simulation) viz.Camera {
	nx, ny, nz := s.Dims()
	switch {
	case nz <= nx && nz <= ny:
		return viz.Camera{Elevation: 1.5707963267948966} // look along z
	case ny <= nx:
		return viz.Camera{Azimuth: 1.5707963267948966} // look along y
	default:
		return viz.Camera{}
	}
}
