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
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/flame1d"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/sdf"
	"github.com/s3dgo/s3d/internal/stats"
	"github.com/s3dgo/s3d/internal/turb"
	"github.com/s3dgo/s3d/internal/viz"
)

// options is the command line: the run settings shared with the other
// drivers (s3d.RunOptions, applied per case: the case letter goes before
// every file's extension and a case<letter> directory under every
// directory) plus what only this driver has.
type options struct {
	s3d.RunOptions
	table1, surface, gradc bool
	steps                  int
	nx, ny                 int
	outDir                 string
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	o.BindFlags(fs)
	fs.BoolVar(&o.table1, "table1", false, "print table 1 only")
	fs.BoolVar(&o.surface, "surface", false, "render figure 12 only")
	fs.BoolVar(&o.gradc, "gradc", false, "write figure 13 only")
	fs.IntVar(&o.steps, "steps", 250, "time steps per case")
	fs.IntVar(&o.nx, "nx", 80, "streamwise grid points")
	fs.IntVar(&o.ny, "ny", 60, "transverse grid points")
	fs.StringVar(&o.outDir, "out", "out_bunsen", "output directory")
	return o
}

func main() {
	// Tests drive main() more than once in-process, so the flags live on a
	// FlagSet of their own.
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	o := bindFlags(fs)
	fs.Parse(os.Args[1:])

	all := !o.table1 && !o.surface && !o.gradc

	lam := laminarReference()
	if o.table1 || all {
		printTable1(lam)
	}
	if o.surface || o.gradc || all {
		runCases(lam, o, o.surface || all, o.gradc || all)
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

func runCases(lam flame1d.Properties, o *options, doSurface, doGradC bool) {
	for _, id := range []byte{'A', 'B', 'C'} {
		run, err := o.Open(o.outDir, string(id))
		if err != nil {
			log.Fatal(err)
		}
		p, err := s3d.BunsenProblem(s3d.BunsenOptions{
			Case: id, Nx: o.nx, Ny: o.ny, Nz: 1,
			SL: lam.SL, DeltaL: lam.DeltaL, Seed: int64(id),
		})
		if err != nil {
			log.Fatal(err)
		}
		sim, err := p.NewSimulation()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncase %c: %dx%d, %d steps\n", id, o.nx, o.ny, o.steps)
		// For the premixed cases the problem streams define the progress
		// variable, so the standard analysis set includes ⟨Y_OH|c⟩ and ∫|∇c| dV.
		h, err := run.Arm(sim, p, s3d.TelemetryOptions{
			Case:   fmt.Sprintf("bunsen-%c", id),
			Config: map[string]string{"steps": fmt.Sprint(o.steps)},
		})
		if err != nil {
			log.Fatal(err)
		}
		completed, err := h.Run(o.steps, 50, nil)
		if err := errors.Join(err, run.Close()); err != nil {
			log.Fatal(err)
		}
		if !completed {
			// The post-mortem bundle is the record of an aborted case; the
			// science figures would render the corrupted state.
			continue
		}
		lo, hi, _ := sim.MinMax("T")
		fmt.Printf("  final T ∈ [%.0f, %.0f] K, t = %.3g s\n", lo, hi, sim.Time())

		c, dims := progressField(sim, p)
		if doSurface {
			if err := renderFig12(c, dims, id, o.outDir); err != nil {
				log.Fatal(err)
			}
		}
		if doGradC {
			if err := writeFig13(sim, c, dims, lam, id, o.outDir); err != nil {
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
	img := r.Render()
	if err := sdf.WriteAtomic(path, func(w io.Writer) error { return viz.WritePNG(w, img) }); err != nil {
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

	var out bytes.Buffer
	fmt.Fprintln(&out, "station,c,mean_gradc_dL,count")
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
				fmt.Fprintf(&out, "%.2f,%.3f,%.4f,%.0f\n", frac, centers[b], means[b], counts[b])
			}
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("fig13_case%c.csv", id))
	if err := sdf.WriteAtomic(path, func(w io.Writer) error { _, err := out.WriteTo(w); return err }); err != nil {
		return err
	}
	fmt.Println("  wrote", path)
	return nil
}
