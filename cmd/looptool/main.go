// Command looptool regenerates the node-performance study of paper §4.1
// (figures 4 and 5): the diffusive-flux loop nest alone, in its Fortran-90
// array-statement form and its LoopTool-restructured form (the one the RHS
// runs), and the whole step of a 50³ single-rank pressure-wave problem. It
// reports the kernel speedup and the whole-code saving, measured here and
// modelled on the paper's Cray XD1 (2.94× kernel, ≈6.8% total).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/rk"
	"github.com/s3dgo/s3d/internal/solver"
	"github.com/s3dgo/s3d/internal/transport"
)

func main() {
	n := flag.Int("n", 50, "grid points per side")
	reps := flag.Int("reps", 3, "timing repetitions (best-of)")
	flag.Parse()

	mech := chem.H2Air()
	blk, err := solver.NewSerial(&solver.Config{
		Mech:         mech,
		Trans:        transport.MustNew(mech.Set),
		Grid:         grid.New(grid.Spec{Nx: *n, Ny: *n, Nz: *n, Lx: 0.01, Ly: 0.01, Lz: 0.01}),
		PInf:         101325,
		ChemistryOff: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	yAir := make([]float64, mech.NumSpecies())
	yAir[mech.Set.Index("O2")] = 0.233
	yAir[mech.Set.Index("N2")] = 0.767
	// The §4.1 pressure-wave test: quiescent air with a pressure pulse.
	blk.SetState(func(x, y, z float64, s *solver.InflowState) {
		s.T = 300
		copy(s.Y, yAir)
	}, func(x, y, z float64) float64 {
		d := ((x-0.005)*(x-0.005) + (y-0.005)*(y-0.005) + (z-0.005)*(z-0.005)) / (0.002 * 0.002)
		return 101325 * (1 + 5e-3*math.Exp(-d))
	})
	blk.RefreshPrimitives()
	dt := 0.5 * blk.AcousticDt()

	best := func(fn func()) time.Duration {
		fn() // warm-up
		b := time.Duration(math.MaxInt64)
		for r := 0; r < *reps; r++ {
			t0 := time.Now()
			fn()
			b = min(b, time.Since(t0))
		}
		return b
	}
	step := best(func() { blk.StepOnce(dt) })
	study := blk.NewDiffFluxStudy()
	naive := best(study.Naive)
	fused := best(study.Fused)

	// A step evaluates the RHS once per RK stage, and with it the kernel: the
	// array-statement step is the measured one plus that many differences.
	stages := rk.RK46NL.Stages()
	extra := time.Duration(stages) * (naive - fused)
	naiveStep := step + extra
	fmt.Printf("# Figures 4-5: diffusive-flux kernel restructuring, %d^3 pressure-wave test\n", *n)
	fmt.Printf("kernel, array-statement form:      %v\n", naive)
	fmt.Printf("kernel, fused form:                %v  (%.2fx)\n", fused, naive.Seconds()/fused.Seconds())
	fmt.Printf("whole step, pencil-fused RHS:      %v  (%d RHS evaluations)\n", step, stages)
	fmt.Printf("kernel share, array-statement step: %.1f%%  (paper: 11.3%%)\n",
		100*float64(stages)*naive.Seconds()/naiveStep.Seconds())
	fmt.Printf("measured whole-code saving:        %.1f%%  (%d x the kernel difference over the array-statement step; paper on XD1: 6.8%% from this loop)\n",
		100*extra.Seconds()/naiveStep.Seconds(), stages)

	before, after, modelSaving := perf.DiffFluxModelSpeedup(perf.XD1, 2.94)
	fmt.Printf("modelled XD1 cost per grid point:  %.1f -> %.1f µs (%.1f%% saving; paper: 6.8%%)\n",
		before*1e6, after*1e6, 100*modelSaving)
	fmt.Println("# kernel-only microbenchmark: go test -bench 'Fig4' -benchmem .")
}
