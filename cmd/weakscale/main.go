// Command weakscale regenerates the performance study of paper §3–4:
//
//	figure 1: weak-scaling cost per grid point per step on XT3, XT4 and
//	          hybrid allocations of the 50³-per-core model problem;
//	figure 2: the per-region exclusive-time breakdown of XT3 vs XT4 ranks
//	          in a hybrid execution (-breakdown);
//	figure 3: the predicted average cost when the XT3 ranks carry a reduced
//	          50×50×40 block (-balance);
//	measured: the figure-3 companion from a real run (-measured) — a small
//	          decomposed reacting lifted-jet DNS with the spatial cost
//	          sampler on, reporting each kernel's proxy tile-cost imbalance
//	          with the greedy re-tiling what-if, and each rank's modelled
//	          chemistry substep demand with the rebalancing headroom
//	          (results/fig3_balance.csv). The chemistry rows are a proxy —
//	          the substep demand of an adaptive stiff integrator this
//	          solver does not run — not measured load.
//
// Output is a CSV-like table on stdout.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/perf"
)

func main() {
	breakdown := flag.Bool("breakdown", false, "print the figure-2 region breakdown")
	balance := flag.Bool("balance", false, "print the figure-3 hybrid balance curve")
	measured := flag.Bool("measured", false, "run a small decomposed reacting DNS with cost maps and print the proxy load-balance table")
	steps := flag.Int("steps", 30, "time steps for the -measured run")
	flag.Parse()

	switch {
	case *breakdown:
		printBreakdown()
	case *balance:
		printBalance()
	case *measured:
		printMeasured(*steps)
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

// printMeasured is the figure-3 companion from a real run: a decomposed
// reacting lifted-jet DNS with the spatial cost sampler enabled. Its first
// deterministic record yields each kernel's tile-cost imbalance (with the
// greedy re-tiling what-if) and each rank's chemistry proxy total. Every
// chemistry number is the modelled substep demand, not a timing: the
// rebalance line says how much an integrator with that demand would gain
// from spreading it evenly (DESIGN.md, "Why there is no dynamic balancer").
func printMeasured(steps int) {
	const nx, ny = 48, 32
	dims := [3]int{2, 2, 1}
	cadence := steps / 3
	if cadence < 1 {
		cadence = 1
	}
	prob, err := s3d.LiftedJetProblem(s3d.LiftedJetOptions{
		Nx: nx, Ny: ny, Nz: 1, IgnitionKernel: true, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	var first *s3d.CostRecord // written on rank 0's goroutine, read after the run
	err = s3d.RunDecomposed(prob.Config, dims, func(r *s3d.RankSim) {
		r.SetInitial(prob.Initial, prob.InitPressure)
		// Collective: every rank enables the identical cadence; rank 0 keeps
		// the first record — the ordered fold makes every rank's copy
		// bitwise identical anyway.
		if _, err := r.EnableCostMaps(s3d.CostSpec{Every: cadence}); err != nil {
			panic(err)
		}
		if r.Rank == 0 {
			if err := r.SubscribeCost(func(rec s3d.CostRecord) {
				if first == nil {
					first = &rec
				}
			}); err != nil {
				panic(err)
			}
		}
		dt := 0.4 * r.StableDt()
		r.Advance(steps, dt)
	})
	if err != nil {
		log.Fatal(err)
	}
	if first == nil {
		log.Fatal("weakscale: the cost sampler produced no record")
	}
	fmt.Printf("# Proxy load balance: lifted H2/air jet, %dx%dx1 grid, %dx%dx%d ranks, step %d\n",
		nx, ny, dims[0], dims[1], dims[2], first.Step)
	fmt.Println("# (modelled chemistry substep demand, one unit per cell elsewhere — not measured load;")
	fmt.Println("# see README.md \"Cost maps\")")
	fmt.Println("kernel,tiles,proxy_imbalance,whatif_workers,whatif_reduction")
	for _, k := range first.Kernels {
		fmt.Printf("%s,%d,%.4f,%d,%.4f\n",
			k.Kernel, k.Tiles, k.Imbalance, k.WhatIf.Workers, k.WhatIf.Reduction)
	}
	fmt.Println("rank,chem_proxy,share")
	var total float64
	for _, v := range first.RankTotals {
		total += v
	}
	for r, v := range first.RankTotals {
		share := 0.0
		if total > 0 {
			share = v / total
		}
		fmt.Printf("%d,%.0f,%.4f\n", r, v, share)
	}
	// The figure-3 analogue: an integrator paying the proxy would wait for
	// the most loaded rank; perfect rebalancing would cut its chemistry
	// makespan by 1 − mean/max.
	maxRank := 0.0
	for _, v := range first.RankTotals {
		if v > maxRank {
			maxRank = v
		}
	}
	mean := total / float64(len(first.RankTotals))
	headroom := 0.0
	if maxRank > 0 {
		headroom = 1 - mean/maxRank
	}
	fmt.Printf("proxy_rank_imbalance,%.4f\n", first.RankImbalance)
	fmt.Printf("proxy_straggler_rank,%d\n", first.Straggler)
	fmt.Printf("rebalance_headroom,%.4f  # modelled chemistry makespan cut from even redistribution\n", headroom)
}
