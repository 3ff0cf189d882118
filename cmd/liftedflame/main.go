// Command liftedflame regenerates the science results of paper §6 — the
// DNS of a lifted turbulent H2/air jet flame in a vitiated (1100 K) coflow —
// and the §8 multivariate renderings of that same run:
//
//	figure 10: a fused volume rendering of OH and HO2, showing the HO2
//	           autoignition precursor accumulating upstream of the OH flame
//	           base (written to fig10_oh_ho2.png);
//	figure 11: scatter of temperature vs mixture fraction at axial stations
//	           with conditional means and standard deviations (CSV files);
//	figure 14: three simultaneous two-variable renderings — mixture-fraction
//	           isosurface + HO2, isosurface + OH, and OH + HO2;
//	figure 15: the trispace interface — a parallel-coordinates view over
//	           (χ-proxy, OH, mixture fraction) with brushing near the
//	           stoichiometric surface, and a time histogram of OH with one
//	           row per progress line — plus the χ–OH correlation it uncovers.
//
// The run is a scaled-down quasi-2D configuration preserving the paper's
// physical setup (see DESIGN.md); -steps and the grid flags trade fidelity
// for time.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"image"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/sdf"
	"github.com/s3dgo/s3d/internal/stats"
	"github.com/s3dgo/s3d/internal/viz"
)

// options is the command line: the run settings shared with the other
// drivers (s3d.RunOptions) plus what only this driver has.
type options struct {
	s3d.RunOptions
	nx, ny int
	steps  int
	outDir string
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	o.BindFlags(fs)
	fs.IntVar(&o.nx, "nx", 96, "streamwise grid points")
	fs.IntVar(&o.ny, "ny", 72, "transverse grid points")
	fs.IntVar(&o.steps, "steps", 400, "time steps")
	fs.StringVar(&o.outDir, "out", "out_liftedflame", "output directory")
	return o
}

func main() {
	// Tests drive main() more than once in-process, so the flags live on a
	// FlagSet of their own.
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	o := bindFlags(fs)
	fs.Parse(os.Args[1:])

	run, err := o.Open(o.outDir, "")
	if err != nil {
		log.Fatal(err)
	}
	p, err := s3d.LiftedJetProblem(s3d.LiftedJetOptions{
		Nx: o.nx, Ny: o.ny, Nz: 1,
		IgnitionKernel: true, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		log.Fatal(err)
	}
	h, err := run.Arm(sim, p, s3d.TelemetryOptions{
		Case:   "liftedflame",
		Config: map[string]string{"steps": fmt.Sprint(o.steps)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lifted H2/air jet: %dx%d grid, %d steps\n", o.nx, o.ny, o.steps)
	var hist [][]float64 // one OH histogram per chunk: the time axis of figure 15
	completed, err := h.Run(o.steps, o.steps/10, func() error {
		lo, hi, _ := sim.MinMax("T")
		fmt.Printf("  step %4d  t=%.3g s  T∈[%.0f, %.0f] K\n", sim.Step(), sim.Time(), lo, hi)
		hist = append(hist, ohHistogram(sim))
		return nil
	})
	if err := errors.Join(err, run.Close()); err != nil {
		log.Fatal(err)
	}
	if !completed {
		// The post-mortem bundle is the record of an aborted run; the science
		// figures would render the corrupted state.
		return
	}
	if err := writeFigures(sim, p, hist, o.outDir); err != nil {
		log.Fatal(err)
	}
}

// ohHistogram bins Y_OH over [0, its current peak].
func ohHistogram(sim *s3d.Simulation) []float64 {
	oh, _, _ := sim.Field("Y_OH")
	_, ohMax, _ := sim.MinMax("Y_OH")
	h := stats.NewHistogram(24, 0, math.Max(ohMax, 1e-9))
	for _, v := range oh {
		h.Add(v)
	}
	return h.Normalized()
}

// writeFigures copies the final state out once — Y_OH, Y_HO2 and the
// mixture fraction ξ at every point — and draws figures 10, 11, 14 and 15
// from it; hist is the loop's OH time series.
func writeFigures(sim *s3d.Simulation, p *s3d.Problem, hist [][]float64, outDir string) error {
	oh, dims, err := sim.Field("Y_OH")
	if err != nil {
		return err
	}
	ho2, _, err := sim.Field("Y_HO2")
	if err != nil {
		return err
	}
	xi, xiSt, err := mixtureFraction(sim, p)
	if err != nil {
		return err
	}
	ohF, ho2F := asGrid(oh, dims), asGrid(ho2, dims)

	if err := renderFig10(ohF, ho2F, outDir); err != nil {
		return err
	}
	analyzeUpstream(sim, oh, ho2, dims)
	if err := writeFig11(sim, xi, dims, xiSt, outDir); err != nil {
		return err
	}
	if err := renderFig14(ohF, ho2F, asGrid(xi, dims), xiSt, outDir); err != nil {
		return err
	}
	return renderFig15(sim, oh, xi, dims, xiSt, hist, outDir)
}

// mixtureFraction evaluates the Bilger mixture fraction at every point,
// flattened x-fastest like Simulation.Field, and its stoichiometric value.
func mixtureFraction(sim *s3d.Simulation, p *s3d.Problem) (xi []float64, xiSt float64, err error) {
	names := p.Config.Mechanism.Species()
	fields := make([][]float64, len(names))
	for n, nm := range names {
		if fields[n], _, err = sim.Field("Y_" + nm); err != nil {
			return nil, 0, err
		}
	}
	bilger := sim.MixtureFraction(p.YFuel, p.YOx)
	y := make([]float64, len(names))
	xi = make([]float64, len(fields[0]))
	for idx := range xi {
		for n := range y {
			y[n] = fields[n][idx]
		}
		xi[idx] = bilger.Xi(y)
	}
	return xi, bilger.XiStoich(), nil
}

// asGrid copies a flattened field into a Field3 for the renderer.
func asGrid(data []float64, dims [3]int) *grid.Field3 {
	f := grid.Scratch("viz_scratch", dims[0], dims[1], dims[2], 0)
	idx := 0
	for k := 0; k < dims[2]; k++ {
		for j := 0; j < dims[1]; j++ {
			for i := 0; i < dims[0]; i++ {
				f.Set(i, j, k, data[idx])
				idx++
			}
		}
	}
	return f
}

// peak is f's maximum, kept positive so a transfer-function range never
// collapses.
func peak(f *grid.Field3) float64 {
	if _, hi := f.MinMax(); hi != 0 {
		return hi
	}
	return 1e-9
}

// write lands a figure file whole or not at all and reports it.
func write(path string, body func(io.Writer) error) error {
	if err := sdf.WriteAtomic(path, body); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// renderTop renders layers looking down on the x-y plane into a PNG.
func renderTop(path string, layers []viz.Layer, w, h int, bg viz.RGBA) error {
	r := &viz.Renderer{
		Layers: layers,
		Cam:    viz.Camera{Elevation: math.Pi / 2},
		Width:  w, Height: h,
		Background: bg,
	}
	return writePNG(path, r.Render())
}

func writePNG(path string, img image.Image) error {
	return write(path, func(w io.Writer) error { return viz.WritePNG(w, img) })
}

func renderFig10(oh, ho2 *grid.Field3, outDir string) error {
	return renderTop(filepath.Join(outDir, "fig10_oh_ho2.png"), []viz.Layer{
		{Field: oh, TF: viz.HotTF(0.85), Min: 0, Max: peak(oh)},
		{Field: ho2, TF: viz.CoolTF(0.85), Min: 0, Max: peak(ho2)},
	}, 480, 360, viz.RGBA{R: 0.02, G: 0.02, B: 0.04, A: 1})
}

// analyzeUpstream reports the §6.3 stabilisation diagnostic: the leading
// edge of the HO2 pool must sit upstream of the OH flame base ("HO2 radical
// accumulates upstream of OH ... strong evidence that the lifted flame base
// is stabilized by autoignition").
func analyzeUpstream(sim *s3d.Simulation, oh, ho2 []float64, dims [3]int) {
	x, _, _ := sim.Coords()
	leadingEdge := func(data []float64) float64 {
		var top float64
		for _, v := range data {
			if v > top {
				top = v
			}
		}
		if top == 0 {
			return math.NaN()
		}
		thresh := 0.2 * top
		for i := 0; i < dims[0]; i++ {
			for k := 0; k < dims[2]; k++ {
				for j := 0; j < dims[1]; j++ {
					if data[(k*dims[1]+j)*dims[0]+i] > thresh {
						return x[i]
					}
				}
			}
		}
		return math.NaN()
	}
	xHO2 := leadingEdge(ho2)
	xOH := leadingEdge(oh)
	verdict := "HO2 upstream of OH ✓ (autoignition stabilisation, §6.3)"
	if !(xHO2 < xOH) {
		verdict = "HO2 NOT upstream of OH ✗"
	}
	fmt.Printf("leading edges: x(HO2) = %.4g m, x(OH) = %.4g m — %s\n", xHO2, xOH, verdict)
}

// writeFig11 writes T-vs-ξ scatter plus conditional statistics at three
// axial stations.
func writeFig11(sim *s3d.Simulation, xi []float64, dims [3]int, xiSt float64, outDir string) error {
	temp, _, err := sim.Field("T")
	if err != nil {
		return err
	}
	for _, frac := range []float64{0.25, 0.50, 0.75} {
		iStation := int(frac * float64(dims[0]-1))
		var f bytes.Buffer
		fmt.Fprintln(&f, "# scatter: xi,T")
		cond := stats.NewConditional(25, 0, 1)
		for k := 0; k < dims[2]; k++ {
			for j := 0; j < dims[1]; j++ {
				idx := (k*dims[1]+j)*dims[0] + iStation
				fmt.Fprintf(&f, "%.5f,%.1f\n", xi[idx], temp[idx])
				cond.Add(xi[idx], temp[idx])
			}
		}
		fmt.Fprintln(&f, "# conditional: xi,mean,std,count")
		centers, means, stds, counts := cond.Bins()
		for i := range centers {
			if counts[i] > 0 {
				fmt.Fprintf(&f, "%.4f,%.1f,%.1f,%.0f\n", centers[i], means[i], stds[i], counts[i])
			}
		}
		path := filepath.Join(outDir, fmt.Sprintf("fig11_x%.0f.csv", frac*100))
		if err := write(path, func(w io.Writer) error { _, err := f.WriteTo(w); return err }); err != nil {
			return err
		}
	}
	fmt.Printf("stoichiometric mixture fraction ξ_st = %.3f\n", xiSt)
	return nil
}

// renderFig14 draws the three two-variable panels: the ξ_st isosurface with
// HO2, the isosurface with OH, and OH with HO2.
func renderFig14(oh, ho2, xi *grid.Field3, xiSt float64, outDir string) error {
	iso := viz.IsoTF(xiSt, 0.04, viz.RGBA{R: 0.95, G: 0.78, B: 0.25, A: 0.8})
	isoLayer := viz.Layer{Field: xi, TF: iso, Min: 0, Max: 1, Shade: true}
	ohLayer := viz.Layer{Field: oh, TF: viz.HotTF(0.8), Min: 0, Max: peak(oh)}
	ho2Layer := viz.Layer{Field: ho2, TF: viz.CoolTF(0.8), Min: 0, Max: peak(ho2)}
	for _, panel := range []struct {
		name   string
		layers []viz.Layer
	}{
		{"fig14_iso_ho2.png", []viz.Layer{isoLayer, ho2Layer}},
		{"fig14_iso_oh.png", []viz.Layer{isoLayer, ohLayer}},
		{"fig14_oh_ho2.png", []viz.Layer{ohLayer, ho2Layer}},
	} {
		err := renderTop(filepath.Join(outDir, panel.name), panel.layers, 420, 320,
			viz.RGBA{R: 0.02, G: 0.02, B: 0.05, A: 1})
		if err != nil {
			return err
		}
	}
	return nil
}

// renderFig15 draws the parallel-coordinates view over (χ, OH, ξ), brushing
// the samples near ξ_st, and the OH time histogram, and prints the χ–OH
// correlation among the brushed samples.
func renderFig15(sim *s3d.Simulation, oh, xi []float64, dims [3]int, xiSt float64, hist [][]float64, outDir string) error {
	chi := scalarDissipationProxy(sim, xi, dims)
	var samples [][]float64
	var chiNear, ohNear []float64
	for idx := 0; idx < len(xi); idx += 7 { // decimate
		samples = append(samples, []float64{chi[idx], oh[idx], xi[idx]})
		if math.Abs(xi[idx]-xiSt) < 0.1 {
			chiNear = append(chiNear, chi[idx])
			ohNear = append(ohNear, oh[idx])
		}
	}
	pc := &viz.ParallelCoords{
		VarNames: []string{"chi", "OH", "mixfrac"},
		Samples:  samples,
		Brush:    func(s []float64) bool { return math.Abs(s[2]-xiSt) < 0.1 },
		Width:    640, Height: 400,
	}
	img, err := pc.Render()
	if err != nil {
		return err
	}
	if err := writePNG(filepath.Join(outDir, "fig15_parallel_coords.png"), img); err != nil {
		return err
	}
	th := &viz.TimeHistogram{Hist: hist, Width: 512, Height: 256}
	if img, err = th.Render(); err != nil {
		return err
	}
	if err := writePNG(filepath.Join(outDir, "fig15_time_histogram.png"), img); err != nil {
		return err
	}
	fmt.Printf("χ–OH correlation near ξ_st: %.3f (figure 15 reports a negative spatial correlation)\n",
		stats.Correlation(chiNear, ohNear))
	return nil
}

// scalarDissipationProxy computes χ ∝ |∇ξ|² with second-order differences
// in the x-y plane.
func scalarDissipationProxy(sim *s3d.Simulation, xi []float64, dims [3]int) []float64 {
	x, y, _ := sim.Coords()
	nx, ny := dims[0], dims[1]
	at := func(i, j int) float64 { return xi[j*nx+i] }
	chi := make([]float64, len(xi))
	for j := 1; j < ny-1; j++ {
		for i := 1; i < nx-1; i++ {
			gx := (at(i+1, j) - at(i-1, j)) / (x[i+1] - x[i-1])
			gy := (at(i, j+1) - at(i, j-1)) / (y[j+1] - y[j-1])
			chi[j*nx+i] = gx*gx + gy*gy
		}
	}
	return chi
}
