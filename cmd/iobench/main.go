// Command iobench regenerates figure 9 of the paper: the S3D-I/O
// checkpoint kernel (four global arrays, block-block-block partitioned,
// ≈15.26 MB per process per checkpoint, ten checkpoints) written through
// the four paths — Fortran file-per-process I/O, native collective MPI-I/O,
// collective I/O with MPI-I/O caching and independent I/O with two-stage
// write-behind — against the Lustre-like and GPFS-like file-system models,
// reporting write bandwidth and file-open time per process count. It also
// verifies that every shared-file path produces the byte-identical
// canonical file image (figure 8) before reporting numbers.
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/s3dgo/s3d/internal/pario"
)

// checkpoints is the number of checkpoints per run, the paper's.
const checkpoints = 10

func main() {
	// No flags: Parse only rejects unknown ones.
	flag.Parse()

	k := pario.Kernel{NxP: 6, NyP: 5, NzP: 4, Px: 2, Py: 2, Pz: 2}
	if err := k.VerifyImages(256, 128); err != nil {
		log.Fatalf("canonical image verification failed: %v", err)
	}
	fmt.Println("# canonical-order verification: all shared-file paths byte-identical ✓")

	grids := []pario.Kernel{
		{NxP: 50, NyP: 50, NzP: 50, Px: 2, Py: 2, Pz: 2}, // 8
		{NxP: 50, NyP: 50, NzP: 50, Px: 4, Py: 2, Pz: 2}, // 16
		{NxP: 50, NyP: 50, NzP: 50, Px: 4, Py: 4, Pz: 2}, // 32
		{NxP: 50, NyP: 50, NzP: 50, Px: 4, Py: 4, Pz: 4}, // 64
		{NxP: 50, NyP: 50, NzP: 50, Px: 8, Py: 4, Pz: 4}, // 128
	}
	net := pario.GigE()
	methods := pario.AllMethods()

	for _, fs := range []*pario.FS{pario.Lustre(), pario.GPFS()} {
		fmt.Printf("\n# Figure 9 (%s): write bandwidth (MB/s)\n", fs.Name)
		fmt.Print("procs")
		for _, m := range methods {
			fmt.Printf(",%s", m.Name())
		}
		fmt.Println(",independent")
		for _, k := range grids {
			fmt.Printf("%d", k.NumProcs())
			for _, m := range methods {
				r := m.Simulate(k, fs, net, checkpoints)
				fmt.Printf(",%.1f", r.BandwidthMBs)
			}
			ind := pario.NativeIndependent{}.Simulate(k, fs, net, checkpoints)
			fmt.Printf(",%.1f\n", ind.BandwidthMBs)
		}

		fmt.Printf("\n# Figure 9 (%s): file open time over %d checkpoints (s)\n", fs.Name, checkpoints)
		fmt.Println("procs,fortran,shared")
		for _, k := range grids {
			f := pario.FortranIO{}.Simulate(k, fs, net, checkpoints)
			c := pario.NativeCollective{}.Simulate(k, fs, net, checkpoints)
			fmt.Printf("%d,%.2f,%.2f\n", k.NumProcs(), f.OpenTime, c.OpenTime)
		}
	}
}
