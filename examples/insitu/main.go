// Insitu: demonstrates paper §8.3 — visualization running *inside* the
// simulation loop, sharing the solver's live data structures. The run
// renders fused OH/HO2 frames and accumulates the temperature time histogram
// on the analysis lane's cadence, without ever writing raw field data to
// disk; only the images leave the run.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/viz"
)

func main() {
	p, err := s3d.LiftedJetProblem(s3d.LiftedJetOptions{
		Nx: 48, Ny: 40, Nz: 1, IgnitionKernel: true, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		log.Fatal(err)
	}

	// One cadence for everything in situ: every 12th step the analysis lane
	// reduces the temperature histogram and, as its subscriber, the imager
	// renders a frame from the same live fields.
	lane, err := sim.EnableAnalysis(s3d.AnalysisSpec{
		Every:      12,
		Histograms: []s3d.HistogramSpec{{Field: "T", Bins: 24, Lo: 300, Hi: 2900}},
	})
	if err != nil {
		log.Fatal(err)
	}
	outDir := "out_insitu"
	imager := &s3d.InSituImager{Dir: outDir, FieldA: "Y_OH", FieldB: "Y_HO2", Width: 240, Height: 180}
	if err := imager.Attach(sim); err != nil {
		log.Fatal(err)
	}
	var hist [][]float64
	lane.Subscribe(func(rec s3d.AnalysisRecord) {
		hist = append(hist, rec.Products[0].Bins)
		lo, hi, _ := sim.MinMax("T")
		fmt.Printf("in-situ observation at step %3d: T ∈ [%.0f, %.0f] K\n", rec.Step, lo, hi)
	})

	sim.Advance(60, 0.4*sim.StableDt())

	fmt.Printf("\nrendered %d frames into %s/\n", imager.Frames(), outDir)

	// The accumulated histograms feed the §8.2 time-histogram view.
	th := &viz.TimeHistogram{Hist: hist, Width: 256, Height: 128}
	img, err := th.Render()
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(outDir, "time_histogram.png")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := viz.WritePNG(f, img); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", path)
}
