// Command s3dflow demonstrates the paper's §9 workflow automation: a small
// DNS runs as the "jaguar" producer, dumping restart SDF files (with .done
// sentinels), analysis files and min/max logs, while the Kepler-style
// monitoring workflow concurrently stages them to "ewok", morphs restarts,
// archives to "HPSS", ships analysis copies to "Sandia" and feeds the
// dashboard — then the run is stopped and restarted to show checkpointed
// skip/retry semantics (figure 16).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/sdf"
	"github.com/s3dgo/s3d/internal/workflow"
)

func main() {
	root := flag.String("root", "out_workflow", "simulated cluster root directory")
	dumps := flag.Int("dumps", 4, "restart dumps to produce")
	steps := flag.Int("steps", 20, "solver steps between dumps")
	flag.Parse()

	if err := os.RemoveAll(*root); err != nil {
		log.Fatal(err)
	}
	cluster, err := workflow.NewCluster(*root)
	if err != nil {
		log.Fatal(err)
	}

	// Start the monitoring workflow concurrently with the "simulation".
	wf, err := workflow.S3DMonitor(cluster)
	if err != nil {
		log.Fatal(err)
	}
	wfDone := make(chan error, 1)
	go func() { wfDone <- wf.Run(context.Background()) }()

	produce(cluster, *dumps, *steps)
	if err := cluster.StopAll(); err != nil {
		log.Fatal(err)
	}
	if err := <-wfDone; err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n# workflow events (provenance log)")
	for _, e := range wf.Events() {
		fmt.Println("  ", e)
	}
	fmt.Printf("\nstaged bytes: %d\n", cluster.TransferredBytes.Load())

	// Restart the workflow over the same tree: everything is checkpointed.
	wf2, err := workflow.S3DMonitor(cluster)
	if err != nil {
		log.Fatal(err)
	}
	if err := wf2.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	skips := 0
	for _, e := range wf2.Events() {
		if strings.Contains(e, "skip (checkpointed)") {
			skips++
		}
	}
	fmt.Printf("restarted workflow skipped %d checkpointed stages (fault-tolerant restart, §9)\n", skips)

	// Show the dashboard table.
	rows, err := os.ReadFile(filepath.Join(cluster.Dashboard, "minmax.csv"))
	if err == nil {
		fmt.Println("\n# dashboard min/max table (figure 17 data)")
		fmt.Print(string(rows))
	}

	// Build the figures-17/18 dashboard artefacts: per-variable min/max
	// trace plots and the jobs/status JSON, plus a user annotation.
	status, err := workflow.BuildDashboard(cluster, []workflow.Job{
		{ID: "284113", Machine: "jaguar", Name: "s3d-lifted", State: "R", Cores: 10000},
		{ID: "284114", Machine: "ewok", Name: "s3d-morph", State: "R", Cores: 16},
		{ID: "90231", Machine: "nersc", Name: "s3d-bunsen-c", State: "Q", Cores: 4480},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := workflow.Annotate(cluster, "T", "peak T rises as the kernel ignites the shear layer"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n# dashboard (figures 17-18): %d trace plots + status.json under %s\n",
		len(status.Images), cluster.Dashboard)
}

// produce runs a tiny lifted-flame DNS and dumps its files like S3D does.
func produce(c *workflow.Cluster, dumps, steps int) {
	p, err := s3d.LiftedJetProblem(s3d.LiftedJetOptions{Nx: 40, Ny: 32, Nz: 1, IgnitionKernel: true})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		log.Fatal(err)
	}
	// Publish the field inventory once, up front: the registry-backed
	// /fields document, dropped next to the dashboard artefacts so the
	// page knows every field's role, halo group and checkpoint membership.
	if data, err := json.MarshalIndent(sim.FieldsDocument(), "", "  "); err == nil {
		if err := writeFile(filepath.Join(c.Dashboard, "fields.json"), data); err != nil {
			log.Fatal(err)
		}
	}
	// The run trace streams straight into the dashboard directory: its step
	// records feed the telemetry lane, the reduction pipeline's records (every
	// step) the AnalysisLane and the cost sampler's (once per dump) the
	// BalanceLane.
	run, err := s3d.RunOptions{
		Trace: filepath.Join(c.Dashboard, "trace.jsonl"), Analysis: 1, Cost: steps,
	}.Open(c.Dashboard, "")
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()
	h, err := run.Arm(sim, p, s3d.TelemetryOptions{Case: "s3dflow"})
	if err != nil {
		log.Fatal(err)
	}
	// One chunk per dump: the callback writes the dump's files.
	_, err = h.Run(dumps*steps, steps, func() error {
		step := sim.Step()

		// Restart dump: per-"rank" temperature slabs in one SDF (the real
		// code writes one file per rank; the workflow morphs N→M).
		temp, dims, err := sim.Field("T")
		if err != nil {
			return err
		}
		rst := sdf.New()
		rst.Attrs["step"] = fmt.Sprint(step)
		slab := len(temp) / 4
		for r := 0; r < 4; r++ {
			name := fmt.Sprintf("T.%d", r)
			lo := r * slab
			hi := lo + slab
			if r == 3 {
				hi = len(temp)
			}
			if err := rst.AddVar(name, []int{hi - lo}, temp[lo:hi]); err != nil {
				return err
			}
		}
		path := filepath.Join(c.JaguarRestart, fmt.Sprintf("restart-%04d.sdf", step))
		if err := rst.WriteFile(path); err != nil {
			return err
		}
		if err := os.WriteFile(path+".done", nil, 0o644); err != nil {
			return err
		}

		// Analysis file: temperature + OH planes.
		oh, _, _ := sim.Field("Y_OH")
		an := sdf.New()
		an.Attrs["step"] = fmt.Sprint(step)
		_ = an.AddVar("T", []int{dims[0], dims[1]}, temp)
		_ = an.AddVar("Y_OH", []int{dims[0], dims[1]}, oh)
		if err := an.WriteFile(filepath.Join(c.JaguarNetcdf, fmt.Sprintf("analysis-%04d.sdf", step))); err != nil {
			return err
		}

		// ASCII min/max log.
		lo, hi, _ := sim.MinMax("T")
		line := fmt.Sprintf("%d T %.1f %.1f\n", step, lo, hi)
		if err := writeFile(filepath.Join(c.JaguarMinMax, fmt.Sprintf("minmax-%d.txt", step)), []byte(line)); err != nil {
			return err
		}
		fmt.Printf("produced dump %d (step %d)\n", step/steps, step)
		time.Sleep(10 * time.Millisecond) // let the watcher interleave
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

// writeFile lands data under path whole or not at all, because the workflow
// reads these files while the run writes them: the min/max watcher stages
// whatever matches its glob (no .done gate) and the dashboard parses
// fields.json. The temporary is a dot-file, which no watched glob matches.
func writeFile(path string, data []byte) error {
	return sdf.WriteAtomic(path, func(w io.Writer) error { _, err := w.Write(data); return err })
}
