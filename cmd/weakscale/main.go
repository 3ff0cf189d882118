// Command weakscale regenerates the performance study of paper §3–4:
//
//	figure 1: weak-scaling cost per grid point per step on XT3, XT4 and
//	          hybrid allocations of the 50³-per-core model problem;
//	figure 2: the per-region exclusive-time breakdown of XT3 vs XT4 ranks
//	          in a hybrid execution (-breakdown);
//	figure 3: the predicted average cost when the XT3 ranks carry a reduced
//	          50×50×40 block (-balance).
//
// Output is a CSV-like table on stdout.
package main

import (
	"flag"
	"fmt"
	"sort"

	"github.com/s3dgo/s3d/internal/perf"
)

func main() {
	breakdown := flag.Bool("breakdown", false, "print the figure-2 region breakdown")
	balance := flag.Bool("balance", false, "print the figure-3 hybrid balance curve")
	flag.Parse()

	switch {
	case *breakdown:
		printBreakdown()
	case *balance:
		printBalance()
	default:
		printWeakScaling()
	}
}

func printWeakScaling() {
	cores := []int{2, 8, 64, 512, 2048, 4096, 8192, 12000, 16384, 22800}
	fmt.Println("# Figure 1: weak scaling, cost per grid point per time step (µs)")
	fmt.Println("cores,xt3,xt4,hybrid")
	xt3 := perf.WeakScaling(cores, "xt3")
	xt4 := perf.WeakScaling(cores, "xt4")
	hyb := perf.WeakScaling(cores, "hybrid")
	for i, n := range cores {
		fmt.Printf("%d,%.2f,%.2f,%.2f\n", n,
			xt3[i].CostPerGP*1e6, xt4[i].CostPerGP*1e6, hyb[i].CostPerGP*1e6)
	}
}

func printBreakdown() {
	fmt.Println("# Figure 2: exclusive time per region (s per step, 50³ per core)")
	fmt.Println("region,xt3_rank,xt4_rank")
	b3 := perf.RegionBreakdown(perf.XT3, perf.XT3, perf.S3DKernels)
	b4 := perf.RegionBreakdown(perf.XT4, perf.XT3, perf.S3DKernels)
	names := make([]string, 0, len(b3))
	for name := range b3 {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return b3[names[i]] > b3[names[j]] })
	for _, name := range names {
		fmt.Printf("%s,%.4f,%.4f\n", name, b3[name], b4[name])
	}
}

func printBalance() {
	fmt.Println("# Figure 3: predicted avg cost per grid point vs proportion of XT4 nodes (µs)")
	fmt.Println("xt4_fraction,cost_us")
	var fr []float64
	for f := 0.0; f <= 1.0001; f += 0.05 {
		fr = append(fr, f)
	}
	for _, p := range perf.HybridBalance(fr) {
		fmt.Printf("%.2f,%.2f\n", p.XT4Fraction, p.CostPerGP*1e6)
	}
	fmt.Println("# 2007 Jaguar configuration: 46% XT4 nodes")
	at := perf.HybridBalance([]float64{0.46})
	fmt.Printf("0.46,%.2f  # paper predicts 61 µs\n", at[0].CostPerGP*1e6)
}
