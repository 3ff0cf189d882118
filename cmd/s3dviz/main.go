// Command s3dviz regenerates the visualization results of paper §8 from a
// lifted-flame snapshot:
//
//	figure 14: three simultaneous two-variable renderings — mixture-fraction
//	           isosurface + HO2, isosurface + OH, and OH + HO2;
//	figure 15: the trispace interface — a parallel-coordinates view over
//	           (χ-proxy, OH, mixture fraction) with brushing near the
//	           stoichiometric surface, and time histograms of OH over the
//	           run — plus the χ–OH correlation the interface uncovers.
package main

import (
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

// snapshots is the number of OH histograms in the figure-15 time histogram.
const snapshots = 8

func main() {
	nx := flag.Int("nx", 96, "streamwise grid points")
	ny := flag.Int("ny", 72, "transverse grid points")
	steps := flag.Int("steps", 240, "time steps")
	outDir := flag.String("out", "out_viz", "output directory")
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	p, err := s3d.LiftedJetProblem(s3d.LiftedJetOptions{
		Nx: *nx, Ny: *ny, Nz: 1, IgnitionKernel: true, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		log.Fatal(err)
	}
	// Advance in bursts, recording OH histograms per snapshot (the time
	// dimension of figure 15). The stable step is refreshed per burst: the
	// developing flame raises the sound speed and peak velocities.
	hist := make([][]float64, 0, snapshots)
	per := *steps / snapshots
	if per == 0 {
		per = 1
	}
	for s := 0; s < snapshots; s++ {
		dt := 0.4 * sim.StableDt()
		sim.Advance(per, dt)
		oh, _, err := sim.Field("Y_OH")
		if err != nil {
			log.Fatal(err)
		}
		_, ohMax, _ := sim.MinMax("Y_OH")
		h := stats.NewHistogram(24, 0, math.Max(ohMax, 1e-9))
		for _, v := range oh {
			h.Add(v)
		}
		hist = append(hist, h.Normalized())
	}
	fmt.Printf("snapshot series complete: t = %.3g s\n", sim.Time())

	if err := renderFig14(sim, p, *outDir); err != nil {
		log.Fatal(err)
	}
	if err := renderFig15(sim, p, hist, *outDir); err != nil {
		log.Fatal(err)
	}
}

// writePNG writes img to path whole or not at all.
func writePNG(path string, img image.Image) error {
	return sdf.WriteAtomic(path, func(w io.Writer) error { return viz.WritePNG(w, img) })
}

func toField(data []float64, dims [3]int) *grid.Field3 {
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

// mixfracField evaluates ξ pointwise.
func mixfracField(sim *s3d.Simulation, p *s3d.Problem) (*grid.Field3, [3]int, []float64) {
	names := p.Config.Mechanism.Species()
	ns := len(names)
	fields := make([][]float64, ns)
	var dims [3]int
	for i, nm := range names {
		fields[i], dims, _ = sim.Field("Y_" + nm)
	}
	b := sim.MixtureFraction(p.YFuel, p.YOx)
	y := make([]float64, ns)
	xi := make([]float64, len(fields[0]))
	for idx := range xi {
		for n := 0; n < ns; n++ {
			y[n] = fields[n][idx]
		}
		xi[idx] = b.Xi(y)
	}
	return toField(xi, dims), dims, xi
}

func renderFig14(sim *s3d.Simulation, p *s3d.Problem, outDir string) error {
	xiF, dims, _ := mixfracField(sim, p)
	oh, _, _ := sim.Field("Y_OH")
	ho2, _, _ := sim.Field("Y_HO2")
	ohF, ho2F := toField(oh, dims), toField(ho2, dims)
	_, ohMax := ohF.MinMax()
	_, ho2Max := ho2F.MinMax()
	b := sim.MixtureFraction(p.YFuel, p.YOx)
	iso := viz.IsoTF(b.XiStoich(), 0.04, viz.RGBA{R: 0.95, G: 0.78, B: 0.25, A: 0.8})

	panels := []struct {
		name   string
		layers []viz.Layer
	}{
		{"fig14_iso_ho2.png", []viz.Layer{
			{Field: xiF, TF: iso, Min: 0, Max: 1, Shade: true},
			{Field: ho2F, TF: viz.CoolTF(0.8), Min: 0, Max: ho2Max},
		}},
		{"fig14_iso_oh.png", []viz.Layer{
			{Field: xiF, TF: iso, Min: 0, Max: 1, Shade: true},
			{Field: ohF, TF: viz.HotTF(0.8), Min: 0, Max: ohMax},
		}},
		{"fig14_oh_ho2.png", []viz.Layer{
			{Field: ohF, TF: viz.HotTF(0.8), Min: 0, Max: ohMax},
			{Field: ho2F, TF: viz.CoolTF(0.8), Min: 0, Max: ho2Max},
		}},
	}
	for _, panel := range panels {
		r := &viz.Renderer{
			Layers: panel.layers,
			Cam:    viz.Camera{Elevation: math.Pi / 2},
			Width:  420, Height: 320,
			Background: viz.RGBA{R: 0.02, G: 0.02, B: 0.05, A: 1},
		}
		path := filepath.Join(outDir, panel.name)
		if err := writePNG(path, r.Render()); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func renderFig15(sim *s3d.Simulation, p *s3d.Problem, hist [][]float64, outDir string) error {
	_, dims, xi := mixfracField(sim, p)
	oh, _, _ := sim.Field("Y_OH")
	chi := scalarDissipationProxy(sim, xi, dims)

	// Parallel coordinates over (χ, OH, ξ), brushing samples near ξ_st.
	b := sim.MixtureFraction(p.YFuel, p.YOx)
	xiSt := b.XiStoich()
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
	path := filepath.Join(outDir, "fig15_parallel_coords.png")
	if err := writePNG(path, img); err != nil {
		return err
	}
	fmt.Println("wrote", path)

	th := &viz.TimeHistogram{Hist: hist, Width: 512, Height: 256}
	img2, err := th.Render()
	if err != nil {
		return err
	}
	path = filepath.Join(outDir, "fig15_time_histogram.png")
	if err := writePNG(path, img2); err != nil {
		return err
	}
	fmt.Println("wrote", path)

	corr := stats.Correlation(chiNear, ohNear)
	fmt.Printf("χ–OH correlation near ξ_st: %.3f (figure 15 reports a negative spatial correlation)\n", corr)
	return nil
}

// scalarDissipationProxy computes χ ∝ |∇ξ|² with second-order differences.
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
