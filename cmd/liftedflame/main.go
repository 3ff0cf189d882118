// Command liftedflame regenerates the science results of paper §6 — the
// DNS of a lifted turbulent H2/air jet flame in a vitiated (1100 K) coflow:
//
//	figure 10: a fused volume rendering of OH and HO2, showing the HO2
//	           autoignition precursor accumulating upstream of the OH flame
//	           base (written to fig10_oh_ho2.png);
//	figure 11: scatter of temperature vs mixture fraction at axial stations
//	           with conditional means and standard deviations (CSV files).
//
// The run is a scaled-down quasi-2D configuration preserving the paper's
// physical setup (see DESIGN.md); -steps and the grid flags trade fidelity
// for time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/stats"
	"github.com/s3dgo/s3d/internal/viz"
)

// options is the command line: the run settings shared with the other
// drivers (s3d.RunOptions) plus what only this driver has.
type options struct {
	s3d.RunOptions
	nx, ny  int
	steps   int
	outDir  string
	scatter bool
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	o.BindFlags(fs)
	fs.IntVar(&o.nx, "nx", 96, "streamwise grid points")
	fs.IntVar(&o.ny, "ny", 72, "transverse grid points")
	fs.IntVar(&o.steps, "steps", 400, "time steps")
	fs.StringVar(&o.outDir, "out", "out_liftedflame", "output directory")
	fs.BoolVar(&o.scatter, "scatter", true, "write figure-11 scatter/conditional data")
	return o
}

func main() {
	// Tests drive main() more than once in-process, so the flags live on a
	// FlagSet of their own.
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	o := bindFlags(fs)
	fs.Parse(os.Args[1:])

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		log.Fatal(err)
	}
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
	chunk := o.steps / 10
	if chunk == 0 {
		chunk = 1
	}
	exit := "completed"
	for done := 0; done < o.steps; done += chunk {
		n := chunk
		if done+n > o.steps {
			n = o.steps - done
		}
		// Refresh the acoustic CFL limit: the developing flame raises the
		// sound speed and the peak velocity.
		dt := 0.4 * sim.StableDt()
		if err := h.Advance(n, dt); err != nil {
			fmt.Printf("health abort: %v\npost-mortem bundle in %s\n", err, run.BundleDir())
			exit = fmt.Sprintf("health abort: %v", err)
			break
		}
		lo, hi, _ := sim.MinMax("T")
		fmt.Printf("  step %4d  t=%.3g s  T∈[%.0f, %.0f] K\n", sim.Step(), sim.Time(), lo, hi)
	}
	if err := errors.Join(h.Close(exit), run.Close()); err != nil {
		log.Fatal(err)
	}
	if exit != "completed" {
		// The post-mortem bundle is the record of an aborted run; the science
		// figures would render the corrupted state.
		return
	}

	if err := renderFig10(sim, o.outDir); err != nil {
		log.Fatal(err)
	}
	analyzeUpstream(sim, p)
	if o.scatter {
		if err := writeFig11(sim, p, o.outDir); err != nil {
			log.Fatal(err)
		}
	}
}

// fieldAsGrid copies a named field into a Field3 for the renderer.
func fieldAsGrid(sim *s3d.Simulation, name string) (*grid.Field3, error) {
	data, dims, err := sim.Field(name)
	if err != nil {
		return nil, err
	}
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
	return f, nil
}

func renderFig10(sim *s3d.Simulation, outDir string) error {
	oh, err := fieldAsGrid(sim, "Y_OH")
	if err != nil {
		return err
	}
	ho2, err := fieldAsGrid(sim, "Y_HO2")
	if err != nil {
		return err
	}
	_, ohMax := oh.MinMax()
	_, ho2Max := ho2.MinMax()
	if ohMax == 0 {
		ohMax = 1e-9
	}
	if ho2Max == 0 {
		ho2Max = 1e-9
	}
	r := &viz.Renderer{
		Layers: []viz.Layer{
			{Field: oh, TF: viz.HotTF(0.85), Min: 0, Max: ohMax},
			{Field: ho2, TF: viz.CoolTF(0.85), Min: 0, Max: ho2Max},
		},
		Cam:   viz.Camera{Elevation: math.Pi / 2}, // view the x-y plane
		Width: 480, Height: 360,
		Background: viz.RGBA{R: 0.02, G: 0.02, B: 0.04, A: 1},
	}
	path := filepath.Join(outDir, "fig10_oh_ho2.png")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := viz.WritePNG(f, r.Render()); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// analyzeUpstream reports the §6.3 stabilisation diagnostic: the leading
// edge of the HO2 pool must sit upstream of the OH flame base ("HO2 radical
// accumulates upstream of OH ... strong evidence that the lifted flame base
// is stabilized by autoignition").
func analyzeUpstream(sim *s3d.Simulation, p *s3d.Problem) {
	x, _, _ := sim.Coords()
	leadingEdge := func(name string) float64 {
		data, dims, err := sim.Field(name)
		if err != nil {
			log.Fatal(err)
		}
		var peak float64
		for _, v := range data {
			if v > peak {
				peak = v
			}
		}
		if peak == 0 {
			return math.NaN()
		}
		thresh := 0.2 * peak
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
	xHO2 := leadingEdge("Y_HO2")
	xOH := leadingEdge("Y_OH")
	verdict := "HO2 upstream of OH ✓ (autoignition stabilisation, §6.3)"
	if !(xHO2 < xOH) {
		verdict = "HO2 NOT upstream of OH ✗"
	}
	fmt.Printf("leading edges: x(HO2) = %.4g m, x(OH) = %.4g m — %s\n", xHO2, xOH, verdict)
}

// writeFig11 writes T-vs-ξ scatter plus conditional statistics at three
// axial stations.
func writeFig11(sim *s3d.Simulation, p *s3d.Problem, outDir string) error {
	names := p.Config.Mechanism.Species()
	ns := len(names)
	fields := make([][]float64, ns)
	var dims [3]int
	for i, nm := range names {
		var err error
		fields[i], dims, err = sim.Field("Y_" + nm)
		if err != nil {
			return err
		}
	}
	temp, _, err := sim.Field("T")
	if err != nil {
		return err
	}
	bilger := sim.MixtureFraction(p.YFuel, p.YOx)
	y := make([]float64, ns)

	stations := []float64{0.25, 0.50, 0.75}
	for _, frac := range stations {
		iStation := int(frac * float64(dims[0]-1))
		sc := stats.Scatter{}
		cond := stats.NewConditional(25, 0, 1)
		for k := 0; k < dims[2]; k++ {
			for j := 0; j < dims[1]; j++ {
				idx := (k*dims[1]+j)*dims[0] + iStation
				for n := 0; n < ns; n++ {
					y[n] = fields[n][idx]
				}
				xi := bilger.Xi(y)
				sc.Add(xi, temp[idx])
				cond.Add(xi, temp[idx])
			}
		}
		path := filepath.Join(outDir, fmt.Sprintf("fig11_x%.0f.csv", frac*100))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		fmt.Fprintln(f, "# scatter: xi,T")
		for i := range sc.X {
			fmt.Fprintf(f, "%.5f,%.1f\n", sc.X[i], sc.Y[i])
		}
		fmt.Fprintln(f, "# conditional: xi,mean,std,count")
		centers, means, stds, counts := cond.Bins()
		for i := range centers {
			if counts[i] > 0 {
				fmt.Fprintf(f, "%.4f,%.1f,%.1f,%.0f\n", centers[i], means[i], stds[i], counts[i])
			}
		}
		f.Close()
		fmt.Println("wrote", path)
	}
	fmt.Printf("stoichiometric mixture fraction ξ_st = %.3f\n", bilger.XiStoich())
	return nil
}
