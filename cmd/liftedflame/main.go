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
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/prof"
	"github.com/s3dgo/s3d/internal/stats"
	"github.com/s3dgo/s3d/internal/viz"
)

func main() {
	nx := flag.Int("nx", 96, "streamwise grid points")
	ny := flag.Int("ny", 72, "transverse grid points")
	steps := flag.Int("steps", 400, "time steps")
	outDir := flag.String("out", "out_liftedflame", "output directory")
	scatter := flag.Bool("scatter", true, "write figure-11 scatter/conditional data")
	tracePath := flag.String("trace", "", "write a JSONL step trace to this file")
	monitorAddr := flag.String("monitor", "", "serve live metrics over HTTP on this address (e.g. :8080)")
	profileDir := flag.String("profile", "", "record the call-path profiler and write trace.json/callpath/roofline artifacts to this directory")
	workers := flag.Int("workers", 0, "kernel worker-pool size (0: all CPUs)")
	healthOn := flag.Bool("health", false, "arm the run-health watchdog (structured abort + flight recorder instead of a panic)")
	flightRec := flag.String("flightrec", "", "flight-recorder bundle directory (default <out>/health when -health)")
	analysisPath := flag.String("analysis", "", "enable the in-situ science-reduction pipeline and append its records (JSONL) to this file")
	analysisEvery := flag.Int("analysis-every", 1, "analysis reduction cadence in steps")
	costPath := flag.String("cost", "", "enable the spatial cost-attribution sampler and append its records (JSONL) to this file")
	costEvery := flag.Int("cost-every", 1, "cost reduction cadence in steps")
	critPath := flag.String("critpath", "", "enable the wait-state & critical-path analyzer and append its records (JSONL) to this file")
	critEvery := flag.Int("critpath-every", 1, "critical-path analysis cadence in steps")
	lbOn := flag.Bool("lb", false, "enable dynamic load balancing: cost-weighted tile planning (bitwise identical to the unbalanced run)")
	lbEvery := flag.Int("lb-every", 10, "load-balance re-plan cadence in steps")
	flag.Parse()

	s3d.SetWorkers(*workers)
	if *healthOn && *flightRec == "" {
		*flightRec = filepath.Join(*outDir, "health")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	p, err := s3d.LiftedJetProblem(s3d.LiftedJetOptions{
		Nx: *nx, Ny: *ny, Nz: 1,
		IgnitionKernel: true, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		log.Fatal(err)
	}
	var profiler *prof.Profiler
	if *profileDir != "" {
		profiler = s3d.NewProfiler()
		sim.EnableProfiling(profiler, "rank0")
	}
	if *healthOn {
		sim.EnableHealth(s3d.HealthOptions{BundleDir: *flightRec, EmergencyCheckpoint: true})
	}
	// Analysis before StartTelemetry, so the probe mounts /analysis and
	// the analysis_* gauges.
	if *analysisPath != "" {
		spec := p.StandardAnalysis()
		spec.Every = *analysisEvery
		if _, err := sim.EnableAnalysis(spec); err != nil {
			log.Fatal(err)
		}
		store, err := s3d.NewAnalysisStore(*analysisPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := store.Err(); err != nil {
				fmt.Printf("analysis store dropped records: %v\n", err)
			}
			if err := store.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote analysis records to %s\n", *analysisPath)
		}()
		if err := sim.Subscribe(store.Sink()); err != nil {
			log.Fatal(err)
		}
	}
	// The cost sampler too, so the probe mounts /cost and the cost_* gauges.
	if *costPath != "" {
		if _, err := sim.EnableCostMaps(s3d.CostSpec{Every: *costEvery}); err != nil {
			log.Fatal(err)
		}
		store, err := s3d.NewCostStore(*costPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := store.Err(); err != nil {
				fmt.Printf("cost store dropped records: %v\n", err)
			}
			if err := store.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote cost records to %s\n", *costPath)
		}()
		if err := sim.SubscribeCost(store.Sink()); err != nil {
			log.Fatal(err)
		}
	}
	// The load balancer re-tiles the chemistry and flux-assembly sweeps from
	// the sampler's records (installing the sampler when -cost is off).
	if *lbOn {
		if err := sim.EnableLoadBalance(s3d.LoadBalanceSpec{Every: *lbEvery}); err != nil {
			log.Fatal(err)
		}
	}
	// And the critpath analyzer, so the probe mounts /critpath and the
	// critpath_* gauges (serial run: per-step blame, no message edges).
	if *critPath != "" {
		if err := sim.EnableCritPath(s3d.NewCritPathAnalyzer(s3d.CritPathSpec{Every: *critEvery})); err != nil {
			log.Fatal(err)
		}
		store, err := s3d.NewCritPathStore(*critPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := store.Err(); err != nil {
				fmt.Printf("critpath store dropped records: %v\n", err)
			}
			if err := store.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote critpath records to %s\n", *critPath)
		}()
		if err := sim.SubscribeCritPath(store.Sink()); err != nil {
			log.Fatal(err)
		}
	}
	var tr *obs.Trace
	if *tracePath != "" {
		if tr, err = obs.CreateTrace(*tracePath); err != nil {
			log.Fatal(err)
		}
		defer tr.Close()
	}
	var probe *s3d.Probe
	if tr != nil || *monitorAddr != "" {
		probe, err = sim.StartTelemetry(s3d.TelemetryOptions{
			Case:        "liftedflame",
			Config:      map[string]string{"steps": fmt.Sprint(*steps)},
			Trace:       tr,
			MonitorAddr: *monitorAddr,
		})
		if err != nil {
			log.Fatal(err)
		}
		if addr := probe.MonitorAddr(); addr != "" {
			fmt.Printf("live monitor on http://%s/status\n", addr)
		}
		if profiler != nil {
			probe.MountProfile(profiler, sim.ProfileShape(), s3d.ProfileMachines())
		}
	}
	fmt.Printf("lifted H2/air jet: %dx%d grid, %d steps\n", *nx, *ny, *steps)
	chunk := *steps / 10
	if chunk == 0 {
		chunk = 1
	}
	for done := 0; done < *steps; done += chunk {
		n := chunk
		if done+n > *steps {
			n = *steps - done
		}
		// Refresh the acoustic CFL limit: the developing flame raises the
		// sound speed and the peak velocity.
		dt := 0.4 * sim.StableDt()
		var stepErr error
		switch {
		case probe != nil && *healthOn:
			stepErr = probe.TryAdvance(n, dt)
		case probe != nil:
			probe.Advance(n, dt)
		case *healthOn:
			stepErr = sim.TryAdvance(n, dt)
		default:
			sim.Advance(n, dt)
		}
		if stepErr != nil {
			fmt.Printf("health abort: %v\npost-mortem bundle in %s\n", stepErr, *flightRec)
			if probe != nil {
				if err := probe.Close(fmt.Sprintf("health abort: %v", stepErr)); err != nil {
					log.Fatal(err)
				}
			}
			return
		}
		lo, hi, _ := sim.MinMax("T")
		fmt.Printf("  step %4d  t=%.3g s  T∈[%.0f, %.0f] K\n", sim.Step(), sim.Time(), lo, hi)
	}
	if probe != nil {
		if err := probe.Close("completed"); err != nil {
			log.Fatal(err)
		}
	}
	if profiler != nil {
		if err := sim.ExportProfile(*profileDir, profiler, s3d.ProfileMachines()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote profile artifacts to %s\n", *profileDir)
	}

	if err := renderFig10(sim, *outDir); err != nil {
		log.Fatal(err)
	}
	analyzeUpstream(sim, p)
	if *scatter {
		if err := writeFig11(sim, p, *outDir); err != nil {
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
