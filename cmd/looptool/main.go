// Command looptool regenerates the node-performance study of paper §4.1
// (figures 4 and 5): the diffusive-flux loop nest is timed in its
// naturally-written Fortran-90-array style and in its LoopTool-restructured
// form (unswitched, fused, unroll-and-jammed) on a 50³ single-rank
// pressure-wave problem, reporting the kernel speedup and the whole-RHS
// saving — measured on this machine and modelled on the Cray XD1 the paper
// used (2.94× kernel, ≈6.8% total).
package main

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/s3dgo/s3d/internal/perf"

	"github.com/s3dgo/s3d"
)

func main() {
	n := flag.Int("n", 50, "grid points per side")
	reps := flag.Int("reps", 3, "timing repetitions (best-of)")
	flag.Parse()

	mech := s3d.HydrogenAir()
	yAir := make([]float64, mech.NumSpecies())
	yAir[mech.SpeciesIndex("O2")] = 0.233
	yAir[mech.SpeciesIndex("N2")] = 0.767

	build := func(naive bool) *s3d.Simulation {
		sim, err := s3d.New(s3d.Config{
			Mechanism:     mech,
			Grid:          s3d.GridSpec{Nx: *n, Ny: *n, Nz: *n, Lx: 0.01, Ly: 0.01, Lz: 0.01},
			Pressure:      101325,
			ChemistryOff:  true,
			NaiveDiffFlux: naive,
		})
		if err != nil {
			panic(err)
		}
		// The §4.1 pressure-wave test: quiescent air with a pressure pulse.
		sim.SetInitial(func(x, y, z float64, s *s3d.State) {
			s.T = 300
			copy(s.Y, yAir)
		}, func(x, y, z float64) float64 {
			d := ((x-0.005)*(x-0.005) + (y-0.005)*(y-0.005) + (z-0.005)*(z-0.005)) / (0.002 * 0.002)
			return 101325 * (1 + 5e-3*math.Exp(-d))
		})
		return sim
	}

	// Build, warm and time one configuration at a time so the two ~250 MB
	// field sets never coexist (memory pressure would contaminate the
	// second measurement).
	measure := func(naive bool, steps int) time.Duration {
		sim := build(naive)
		dt := 0.5 * sim.StableDt()
		sim.Advance(1, dt) // warm-up step
		best := time.Duration(math.MaxInt64)
		for r := 0; r < *reps; r++ {
			t0 := time.Now()
			sim.Advance(steps, dt)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		runtime.GC()
		return best
	}

	fmt.Printf("# Figures 4-5: diffusive-flux kernel restructuring, %d^3 pressure-wave test\n", *n)
	steps := 2
	tNaive := measure(true, steps)
	tOpt := measure(false, steps)

	fmt.Printf("whole-step time, naive kernel:     %v\n", tNaive)
	fmt.Printf("whole-step time, optimized kernel: %v\n", tOpt)
	saving := 1 - tOpt.Seconds()/tNaive.Seconds()
	fmt.Printf("measured whole-code saving:        %.1f%%  (paper on XD1: 6.8%% from this loop)\n", 100*saving)

	before, after, modelSaving := perf.DiffFluxModelSpeedup(perf.XD1, 2.94)
	fmt.Printf("modelled XD1 cost per grid point:  %.1f -> %.1f µs (%.1f%% saving; paper: 6.8%%)\n",
		before*1e6, after*1e6, 100*modelSaving)
	fmt.Println("# kernel-only microbenchmark: go test -bench 'Fig4' -benchmem .")
}
