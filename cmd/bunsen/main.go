// Command bunsen regenerates the premixed-combustion study of paper §7 —
// the slot-burner Bunsen CH4/air flame under intense turbulence:
//
//	table 1:   the simulation parameters of cases A/B/C (laminar reference
//	           from the 1-D flame solver, turbulence scales measured from
//	           the synthetic inflow fields) (-table1);
//	figure 12: the c = 0.65 flame-surface rendering per case (-surface);
//	figure 13: conditional means of |∇c|·δ_L vs c at ¼, ½ and ¾ of the
//	           domain length, against the laminar profile (-gradc).
//
// Running with no flags produces all three on a scaled-down grid.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/cost"
	"github.com/s3dgo/s3d/internal/critpath"
	"github.com/s3dgo/s3d/internal/flame1d"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/insitu"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
	"github.com/s3dgo/s3d/internal/stats"
	"github.com/s3dgo/s3d/internal/turb"
	"github.com/s3dgo/s3d/internal/viz"
)

// casePath inserts the case letter before the path extension:
// trace.jsonl → trace.A.jsonl.
func casePath(path string, id byte) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.%c%s", strings.TrimSuffix(path, ext), id, ext)
}

func main() {
	table1 := flag.Bool("table1", false, "print table 1 only")
	surface := flag.Bool("surface", false, "render figure 12 only")
	gradc := flag.Bool("gradc", false, "write figure 13 only")
	steps := flag.Int("steps", 250, "time steps per case")
	nx := flag.Int("nx", 80, "streamwise grid points")
	ny := flag.Int("ny", 60, "transverse grid points")
	outDir := flag.String("out", "out_bunsen", "output directory")
	tracePath := flag.String("trace", "", "write per-case JSONL step traces (case letter inserted before the extension)")
	monitorAddr := flag.String("monitor", "", "serve live metrics over HTTP while a case runs (e.g. :8080)")
	profileDir := flag.String("profile", "", "record the call-path profiler per case; artifacts land in <dir>/caseA, <dir>/caseB, <dir>/caseC")
	workers := flag.Int("workers", 0, "kernel worker-pool size (0: all CPUs)")
	healthOn := flag.Bool("health", false, "arm the run-health watchdog per case (structured abort + flight recorder instead of a panic)")
	flightRec := flag.String("flightrec", "", "flight-recorder bundle root; per-case bundles land in <dir>/caseA… (default <out>/health when -health)")
	analysisPath := flag.String("analysis", "", "enable the in-situ science-reduction pipeline per case; records land in per-case JSONL files (case letter inserted before the extension)")
	analysisEvery := flag.Int("analysis-every", 1, "analysis reduction cadence in steps")
	costPath := flag.String("cost", "", "enable the spatial cost-attribution sampler per case; records land in per-case JSONL files (case letter inserted before the extension)")
	costEvery := flag.Int("cost-every", 1, "cost reduction cadence in steps")
	critPath := flag.String("critpath", "", "enable the wait-state & critical-path analyzer per case; records land in per-case JSONL files (case letter inserted before the extension)")
	critEvery := flag.Int("critpath-every", 1, "critical-path analysis cadence in steps")
	lbOn := flag.Bool("lb", false, "enable dynamic load balancing per case: cost-weighted tile planning (bitwise identical to the unbalanced run)")
	lbEvery := flag.Int("lb-every", 10, "load-balance re-plan cadence in steps")
	flag.Parse()

	s3d.SetWorkers(*workers)
	if *healthOn && *flightRec == "" {
		*flightRec = filepath.Join(*outDir, "health")
	}
	all := !*table1 && !*surface && !*gradc
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	lam := laminarReference()
	if *table1 || all {
		printTable1(lam)
	}
	if *surface || *gradc || all {
		runCases(lam, *steps, *nx, *ny, *outDir, *surface || all, *gradc || all, *tracePath, *monitorAddr, *profileDir, *flightRec,
			*analysisPath, *analysisEvery, *costPath, *costEvery, *critPath, *critEvery, *lbOn, *lbEvery)
	}
}

// laminarReference computes the §7.2 PREMIX numbers with the 1-D solver.
func laminarReference() flame1d.Properties {
	m := chem.CH4Skeletal()
	yu, err := flame1d.PremixedMixture(m, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("# Laminar reference flame: CH4/air, φ = 0.7, Tu = 800 K (paper §7.2)")
	p, err := flame1d.Solve(flame1d.Config{Mech: m, Tu: 800, P: 101325, Yu: yu})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  S_L  = %.2f m/s   (paper: 1.8)\n", p.SL)
	fmt.Printf("  δ_L  = %.3f mm    (paper: 0.3)\n", p.DeltaL*1e3)
	fmt.Printf("  δ_H  = %.3f mm    (paper: 0.14)\n", p.DeltaH*1e3)
	fmt.Printf("  δ_L/δ_H = %.2f    (paper: ≈2 at 800 K)\n", p.DeltaL/p.DeltaH)
	fmt.Printf("  τ_f  = %.3f ms    (paper: 0.17)\n", p.TauF*1e3)
	return p
}

// printTable1 regenerates the table-1 parameters from the laminar
// reference, in two forms: the *prescribed* values derived from the case
// design (u′/S_L and l_t/δ_L ladders with ε = u′³/l_t — the quantities the
// authors dialled in), and the values *measured* from the synthetic inflow
// fields exactly as the paper measures its DNS fields at the ¼ station.
// The synthetic spectrum carries no dissipation-range cascade, so the
// measured ε̃ (hence l_t, Ka, Da) is biased; the prescribed columns are the
// like-for-like comparison (see EXPERIMENTS.md).
func printTable1(lam flame1d.Properties) {
	nu := 8.5e-5 // kinematic viscosity at inflow conditions (table 1 footnote a)

	fmt.Println("\n# Table 1 (prescribed scales): case,h_mm,U_jet,U_coflow,uprime_SL,lt_dL,Re_t,Ka,Da | paper: Re_t,Ka,Da")
	for _, id := range []byte{'A', 'B', 'C'} {
		cs := s3d.BunsenCases()[id]
		uPrime := cs.UPrimeSL * lam.SL
		lt := cs.LtDeltaL * lam.DeltaL
		eps := uPrime * uPrime * uPrime / lt
		etaK := math.Pow(nu*nu*nu/eps, 0.25)
		ka := turb.Karlovitz(lam.DeltaL, etaK)
		da := turb.Damkohler(lam.SL, lt, uPrime, lam.DeltaL)
		// Integral scale l33 ≈ 2·l_t for these spectra (table 1 shows
		// l33/δL ≈ 2–4); use the case ratio for Re_t.
		l33 := 2 * lt * (cs.LtDeltaL / 0.7)
		ret := uPrime * l33 / nu
		fmt.Printf("%s,%.1f,%.0f,%.0f,%.1f,%.2f,%.0f,%.0f,%.2f | %.0f,%.0f,%.2f\n",
			cs.Name, cs.SlotWidth*1e3, cs.UJet, cs.UCoflow,
			cs.UPrimeSL, cs.LtDeltaL, ret, ka, da,
			cs.PaperReT, cs.PaperKa, cs.PaperDa)
	}

	fmt.Println("\n# Table 1 (measured from synthetic inflow fields): case,uprime_SL,lt_dL,l33_dL,Re_t,Ka,Da")
	for _, id := range []byte{'A', 'B', 'C'} {
		cs := s3d.BunsenCases()[id]
		uPrime := cs.UPrimeSL * lam.SL
		lt := cs.LtDeltaL * lam.DeltaL
		field := turb.NewField(turb.Spectrum{Urms: uPrime, L0: lt * 4}, 200, int64(id))
		g := grid.New(grid.Spec{Nx: 32, Ny: 32, Nz: 32, Lx: 8 * lt, Ly: 8 * lt, Lz: 8 * lt})
		u := grid.Scratch("turb_u", g.Nx, g.Ny, g.Nz, grid.Ghost)
		v := grid.Scratch("turb_v", g.Nx, g.Ny, g.Nz, grid.Ghost)
		w := grid.Scratch("turb_w", g.Nx, g.Ny, g.Nz, grid.Ghost)
		fill := func(dst *grid.Field3, comp int) {
			dst.Map(func(i, j, k int, _ float64) float64 {
				uu, vv, ww := field.At(g.Xc[i], g.Yc[j], g.Zc[k])
				return [3]float64{uu, vv, ww}[comp]
			})
		}
		fill(u, 0)
		fill(v, 1)
		fill(w, 2)
		h := 8 * lt / 31
		st := turb.Measure(u, v, w, h, h, h, nu)
		ka := turb.Karlovitz(lam.DeltaL, st.EtaK)
		da := turb.Damkohler(lam.SL, st.Lt, st.Urms, lam.DeltaL)
		fmt.Printf("%s,%.1f,%.2f,%.2f,%.0f,%.0f,%.2f\n",
			cs.Name, st.Urms/lam.SL, st.Lt/lam.DeltaL, st.L33/lam.DeltaL, st.ReT, ka, da)
	}
}

func runCases(lam flame1d.Properties, steps, nx, ny int, outDir string, doSurface, doGradC bool, tracePath, monitorAddr, profileDir, flightRec string,
	analysisPath string, analysisEvery int, costPath string, costEvery int, critPath string, critEvery int, lbOn bool, lbEvery int) {
	var machines []perf.Machine
	if profileDir != "" {
		machines = s3d.ProfileMachines()
	}
	for _, id := range []byte{'A', 'B', 'C'} {
		p, err := s3d.BunsenProblem(s3d.BunsenOptions{
			Case: id, Nx: nx, Ny: ny, Nz: 1,
			SL: lam.SL, DeltaL: lam.DeltaL, Seed: int64(id), VelocityScale: 0.5,
		})
		if err != nil {
			log.Fatal(err)
		}
		sim, err := p.NewSimulation()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncase %c: %dx%d, %d steps\n", id, nx, ny, steps)
		var profiler *prof.Profiler
		if profileDir != "" {
			profiler = s3d.NewProfiler()
			sim.EnableProfiling(profiler, "rank0")
		}
		if flightRec != "" {
			sim.EnableHealth(s3d.HealthOptions{
				BundleDir:           filepath.Join(flightRec, fmt.Sprintf("case%c", id)),
				EmergencyCheckpoint: true,
			})
		}
		// Analysis before StartTelemetry so the probe mounts /analysis; for
		// the premixed cases the problem streams define the progress
		// variable, so the standard set includes ⟨Y_OH|c⟩ and ∫|∇c| dV.
		var astore *insitu.Store
		if analysisPath != "" {
			spec := p.StandardAnalysis()
			spec.Every = analysisEvery
			if _, err := sim.EnableAnalysis(spec); err != nil {
				log.Fatal(err)
			}
			if astore, err = s3d.NewAnalysisStore(casePath(analysisPath, id)); err != nil {
				log.Fatal(err)
			}
			if err := sim.Subscribe(astore.Sink()); err != nil {
				log.Fatal(err)
			}
		}
		// The cost sampler too, so the probe mounts /cost per case.
		var cstore *cost.Store
		if costPath != "" {
			if _, err := sim.EnableCostMaps(s3d.CostSpec{Every: costEvery}); err != nil {
				log.Fatal(err)
			}
			if cstore, err = s3d.NewCostStore(casePath(costPath, id)); err != nil {
				log.Fatal(err)
			}
			if err := sim.SubscribeCost(cstore.Sink()); err != nil {
				log.Fatal(err)
			}
		}
		// The load balancer re-tiles the chemistry and flux-assembly sweeps
		// from the sampler's records (installing the sampler when -cost is off).
		if lbOn {
			if err := sim.EnableLoadBalance(s3d.LoadBalanceSpec{Every: lbEvery}); err != nil {
				log.Fatal(err)
			}
		}
		// And the critpath analyzer, so the probe mounts /critpath per case.
		var cpstore *critpath.Store
		if critPath != "" {
			if err := sim.EnableCritPath(s3d.NewCritPathAnalyzer(s3d.CritPathSpec{Every: critEvery})); err != nil {
				log.Fatal(err)
			}
			if cpstore, err = s3d.NewCritPathStore(casePath(critPath, id)); err != nil {
				log.Fatal(err)
			}
			if err := sim.SubscribeCritPath(cpstore.Sink()); err != nil {
				log.Fatal(err)
			}
		}
		var tr *obs.Trace
		if tracePath != "" {
			if tr, err = obs.CreateTrace(casePath(tracePath, id)); err != nil {
				log.Fatal(err)
			}
		}
		var probe *s3d.Probe
		if tr != nil || monitorAddr != "" {
			probe, err = sim.StartTelemetry(s3d.TelemetryOptions{
				Case:        fmt.Sprintf("bunsen-%c", id),
				Config:      map[string]string{"steps": fmt.Sprint(steps)},
				Trace:       tr,
				MonitorAddr: monitorAddr,
			})
			if err != nil {
				log.Fatal(err)
			}
			if addr := probe.MonitorAddr(); addr != "" {
				fmt.Printf("  live monitor on http://%s/status\n", addr)
			}
			if profiler != nil {
				probe.MountProfile(profiler, sim.ProfileShape(), machines)
			}
		}
		var stepErr error
		for done := 0; done < steps && stepErr == nil; done += 50 {
			n := 50
			if done+n > steps {
				n = steps - done
			}
			dt := 0.4 * sim.StableDt()
			switch {
			case probe != nil && flightRec != "":
				stepErr = probe.TryAdvance(n, dt)
			case probe != nil:
				probe.Advance(n, dt)
			case flightRec != "":
				stepErr = sim.TryAdvance(n, dt)
			default:
				sim.Advance(n, dt)
			}
		}
		exit := "completed"
		if stepErr != nil {
			fmt.Printf("  case %c health abort: %v\n  post-mortem bundle in %s\n",
				id, stepErr, filepath.Join(flightRec, fmt.Sprintf("case%c", id)))
			exit = fmt.Sprintf("health abort: %v", stepErr)
		}
		if probe != nil {
			if err := probe.Close(exit); err != nil {
				log.Fatal(err)
			}
		}
		if tr != nil {
			if err := tr.Close(); err != nil {
				log.Fatal(err)
			}
		}
		if astore != nil {
			if err := astore.Err(); err != nil {
				fmt.Printf("  analysis store dropped records: %v\n", err)
			}
			if err := astore.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  wrote analysis records to %s\n", casePath(analysisPath, id))
		}
		if cstore != nil {
			if err := cstore.Err(); err != nil {
				fmt.Printf("  cost store dropped records: %v\n", err)
			}
			if err := cstore.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  wrote cost records to %s\n", casePath(costPath, id))
		}
		if cpstore != nil {
			if err := cpstore.Err(); err != nil {
				fmt.Printf("  critpath store dropped records: %v\n", err)
			}
			if err := cpstore.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  wrote critpath records to %s\n", casePath(critPath, id))
		}
		if profiler != nil {
			dir := filepath.Join(profileDir, fmt.Sprintf("case%c", id))
			if err := sim.ExportProfile(dir, profiler, machines); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  wrote profile artifacts to %s\n", dir)
		}
		if stepErr != nil {
			// The post-mortem bundle is the record of an aborted case; the
			// science figures would render the corrupted state.
			continue
		}
		lo, hi, _ := sim.MinMax("T")
		fmt.Printf("  final T ∈ [%.0f, %.0f] K, t = %.3g s\n", lo, hi, sim.Time())

		c, dims := progressField(sim, p)
		if doSurface {
			if err := renderFig12(c, dims, id, outDir); err != nil {
				log.Fatal(err)
			}
		}
		if doGradC {
			if err := writeFig13(sim, c, dims, lam, id, outDir); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// progressField computes c from the O2 mass fraction (§7.3: "a linear
// function of the mass fraction of O2, c = 0 in the reactants, 1 in the
// products").
func progressField(sim *s3d.Simulation, p *s3d.Problem) ([]float64, [3]int) {
	mech := p.Config.Mechanism
	iO2 := mech.SpeciesIndex("O2")
	prog := stats.Progress{YO2u: p.YFuel[iO2], YO2b: p.YOx[iO2]}
	yo2, dims, err := sim.Field("Y_O2")
	if err != nil {
		log.Fatal(err)
	}
	c := make([]float64, len(yo2))
	for i, v := range yo2 {
		c[i] = prog.C(v)
	}
	return c, dims
}

func renderFig12(c []float64, dims [3]int, id byte, outDir string) error {
	f := grid.Scratch("progress_c", dims[0], dims[1], dims[2], 0)
	idx := 0
	for k := 0; k < dims[2]; k++ {
		for j := 0; j < dims[1]; j++ {
			for i := 0; i < dims[0]; i++ {
				f.Set(i, j, k, c[idx])
				idx++
			}
		}
	}
	r := &viz.Renderer{
		Layers: []viz.Layer{
			{Field: f, TF: viz.IsoTF(0.65, 0.06, viz.RGBA{R: 0.95, G: 0.75, B: 0.2, A: 0.9}), Min: 0, Max: 1, Shade: true},
		},
		Cam:   viz.Camera{Elevation: math.Pi / 2},
		Width: 480, Height: 360,
		Background: viz.RGBA{R: 0.05, G: 0.05, B: 0.08, A: 1},
	}
	path := filepath.Join(outDir, fmt.Sprintf("fig12_case%c.png", id))
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := viz.WritePNG(out, r.Render()); err != nil {
		return err
	}
	fmt.Println("  wrote", path)
	return nil
}

// writeFig13 computes conditional means of |∇c|·δ_L against c at the ¼, ½
// and ¾ streamwise stations.
func writeFig13(sim *s3d.Simulation, c []float64, dims [3]int, lam flame1d.Properties, id byte, outDir string) error {
	x, y, _ := sim.Coords()
	nx, ny, nz := dims[0], dims[1], dims[2]
	at := func(i, j, k int) float64 { return c[(k*ny+j)*nx+i] }

	path := filepath.Join(outDir, fmt.Sprintf("fig13_case%c.csv", id))
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	fmt.Fprintln(out, "station,c,mean_gradc_dL,count")
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		i0 := int(frac * float64(nx-1))
		lo := i0 - nx/8
		hi := i0 + nx/8
		if lo < 1 {
			lo = 1
		}
		if hi > nx-1 {
			hi = nx - 1
		}
		cond := stats.NewConditional(20, 0.02, 0.98)
		for k := 0; k < nz; k++ {
			for j := 1; j < ny-1; j++ {
				for i := lo; i < hi; i++ {
					dcdx := (at(i+1, j, k) - at(i-1, j, k)) / (x[i+1] - x[i-1])
					dcdy := (at(i, j+1, k) - at(i, j-1, k)) / (y[j+1] - y[j-1])
					g := math.Sqrt(dcdx*dcdx + dcdy*dcdy)
					if g > 1e-3/lam.DeltaL { // flame-containing samples only
						cond.Add(at(i, j, k), g*lam.DeltaL)
					}
				}
			}
		}
		centers, means, _, counts := cond.Bins()
		for b := range centers {
			if counts[b] > 0 {
				fmt.Fprintf(out, "%.2f,%.3f,%.4f,%.0f\n", frac, centers[b], means[b], counts[b])
			}
		}
	}
	fmt.Println("  wrote", path)
	return nil
}
