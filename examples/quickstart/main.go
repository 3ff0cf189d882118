// Quickstart: the smallest complete S3D-Go program. It builds a periodic
// box of air with a small temperature blob, advances the compressible
// reacting-flow solver a few hundred steps through the drivers' one run loop
// (RunOptions.Open, Session.Arm, Armed.Run) and prints monitoring output.
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/s3dgo/s3d"
)

func main() {
	// Open before building the simulation: it sizes the worker pool. No
	// option is set, so no instrumentation layer is armed.
	run, err := s3d.RunOptions{}.Open(".", "")
	if err != nil {
		log.Fatal(err)
	}
	mech := s3d.HydrogenAir()

	sim, err := s3d.New(s3d.Config{
		Mechanism:   mech,
		Grid:        s3d.GridSpec{Nx: 32, Ny: 32, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01},
		Pressure:    101325,
		FilterEvery: 10,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Air with a hot spot in the middle of the box.
	yAir := make([]float64, mech.NumSpecies())
	yAir[mech.SpeciesIndex("O2")] = 0.233
	yAir[mech.SpeciesIndex("N2")] = 0.767
	sim.SetInitial(func(x, y, z float64, s *s3d.State) {
		r2 := ((x-0.005)*(x-0.005) + (y-0.005)*(y-0.005)) / (0.0015 * 0.0015)
		s.T = 300 + 500*math.Exp(-r2)
		copy(s.Y, yAir)
	}, nil)

	// Ten chunks of 20 steps, each at the drivers' fraction of the acoustic
	// limit taken at its start, with a report after each.
	h, err := run.Arm(sim, nil, s3d.TelemetryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := h.Run(200, 20, func() error {
		lo, hi, _ := sim.MinMax("T")
		fmt.Printf("step %4d  t = %.3g s  T ∈ [%.1f, %.1f] K\n", sim.Step(), sim.Time(), lo, hi)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	if err := run.Close(); err != nil {
		log.Fatal(err)
	}

	// Extract a field for downstream analysis.
	temp, dims, _ := sim.Field("T")
	fmt.Printf("temperature field: %v points, centre value %.1f K\n",
		dims, temp[(dims[1]/2)*dims[0]+dims[0]/2])
}
