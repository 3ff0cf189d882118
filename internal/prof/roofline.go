package prof

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/s3dgo/s3d/internal/perf"
)

// RunShape carries the grid parameters the kernel demand model needs: the
// per-rank interior point count and the mechanism's species count.
type RunShape struct {
	PointsPerRank int
	NumSpecies    int
}

// Demand is the analytic per-grid-point cost of one call of a kernel.
type Demand struct {
	Flops float64 // floating-point operations per grid point per call
	Bytes float64 // memory traffic per grid point per call
}

// KernelDemand returns the analytic flop/byte demand of one named solver
// region per grid point per call, parameterised by the species count ns
// (nvar = ns+4 conserved fields). The counts are operation-level estimates
// read off the kernel loop bodies — the same style of static counting the
// paper's §4 roofline reasoning used — not hardware counter measurements:
//
//   - derivatives charge 17 flops per 9-point stencil (8 multiplies, 8 adds,
//     one metric scale); a stored one ~2.2 streamed doubles (stencil reads
//     mostly hit cache; one miss-ish read plus one write), one kept in row
//     scratch ~1.2 (the write stays in cache);
//   - pointwise thermochemistry charges the dominant polynomial and
//     mixture-rule terms (cp/h evaluations ≈ 12 flops per species, mixture
//     transport combination rules ≈ O(ns²)).
//
// Regions that do not sweep the volume (ghost exchange, waits, NSCBC faces)
// have no per-point demand and are absent.
func KernelDemand(name string, ns int) (Demand, bool) {
	nvar := float64(ns + 4)
	nsf := float64(ns)
	const dFlops = 17.0 // flops per 9-point derivative
	const dBytes = 17.6 // 2.2 doubles streamed per stored derivative
	switch name {
	case "COMPUTE_PRIMITIVES":
		// Velocity/KE recovery (~12), species unpacking (2ns), Newton
		// temperature inversion (~4 iterations of a 12ns-flop cp/e
		// polynomial sweep), mixture weight and pressure (~2ns+8).
		return Demand{Flops: 20 + 52*nsf, Bytes: 8 * (nvar + 7 + 2*nsf)}, true
	case "DIVERGENCE":
		// 3 flux derivatives per conserved field plus the accumulate/negate.
		n := 3 * nvar
		return Demand{Flops: dFlops*n + 2*nvar, Bytes: dBytes*n + 8*nvar}, true
	case "ASSEMBLE_FLUXES":
		// The fused flux stage: transport mixture rules (20ns + 12ns²),
		// 3 x (5+ns) derivatives kept in row scratch, J and its correction
		// (~20 flops per species and direction), the assembly (stress ~40,
		// heat flux 3x(2+2ns), convective 3x~20, species 9ns, enthalpies
		// 12ns); streamed: ~8+ns operands, 3·nvar fluxes.
		n := 3 * (5 + nsf)
		return Demand{Flops: dFlops*n + 60*nsf + 110 + 27*nsf + 20*nsf + 12*nsf*nsf,
			Bytes: 8*1.2*n + 8*(8+nsf+3*nvar)}, true
	case "REACTION_RATE_BOUNDS":
		// Arrhenius rates with exponentials; compute-bound by design (the
		// paper's figure-2 chemistry kernel runs at the same speed on XT3
		// and XT4). ~250 flops per species covers the H2/air mechanism's
		// rate evaluations amortised over its 9 species.
		return Demand{Flops: 250 * nsf, Bytes: 8 * 4 * nsf}, true
	case "RK_UPDATE":
		// dq = a*dq + dt*r; q += b*dq: 4 flops, 5 streamed doubles per field.
		return Demand{Flops: 4 * nvar, Bytes: 8 * 5 * nvar}, true
	case "FILTER":
		// 3 axes x nvar fields x (11-point filter ~23 flops, ~4.5 streamed
		// doubles including the copy-back pass).
		return Demand{Flops: 3 * nvar * 23, Bytes: 3 * nvar * 8 * 4.5}, true
	}
	return Demand{}, false
}

// MachineFrac is one kernel's attained fraction of one machine's roofline.
type MachineFrac struct {
	Machine string
	// Frac is t_roofline / t_measured: 1.0 means the kernel runs exactly at
	// the machine model's roofline, lower means headroom (or a model that
	// does not describe this host).
	Frac  float64
	Bound string // "compute" or "memory": which roofline arm binds
}

// RooflineRow compares one kernel's measured rate against the analytic
// machine models.
type RooflineRow struct {
	Kernel    string
	Calls     int64   // per rank (mean)
	Sec       float64 // exclusive seconds per rank (mean)
	TimePerPt float64 // measured seconds per grid point per call
	Flops     float64 // modelled flops per grid point per call
	Bytes     float64 // modelled bytes per grid point per call
	GFlopS    float64 // attained Gflop/s implied by the model counts
	GBS       float64 // attained GB/s implied by the model counts
	Machines  []MachineFrac
}

// Roofline builds the figure-2-style measured table: for every profiled
// kernel with an analytic demand model, the measured per-point time, the
// implied attained flop and byte rates, and the attained fraction of each
// machine's roofline (perf.Kernel.Time gives the roofline bound).
func Roofline(rep *Report, shape RunShape, machines []perf.Machine) []RooflineRow {
	if shape.PointsPerRank <= 0 || rep.NumRanks() == 0 {
		return nil
	}
	nRanks := float64(rep.NumRanks())
	var rows []RooflineRow
	for name, ks := range rep.RegionTotals() {
		d, ok := KernelDemand(name, shape.NumSpecies)
		if !ok || ks.Calls == 0 || ks.Sec <= 0 {
			continue
		}
		callsPerRank := float64(ks.Calls) / nRanks
		secPerRank := ks.Sec / nRanks
		tpp := secPerRank / (callsPerRank * float64(shape.PointsPerRank))
		row := RooflineRow{
			Kernel: name, Calls: int64(callsPerRank + 0.5), Sec: secPerRank,
			TimePerPt: tpp, Flops: d.Flops, Bytes: d.Bytes,
			GFlopS: d.Flops / tpp / 1e9, GBS: d.Bytes / tpp / 1e9,
		}
		for _, m := range machines {
			k := perf.Kernel{Name: name, Flops: d.Flops, Bytes: d.Bytes}
			bound := "memory"
			if d.Flops/m.FlopRate >= d.Bytes/m.MemBW {
				bound = "compute"
			}
			row.Machines = append(row.Machines, MachineFrac{
				Machine: m.Name, Frac: k.Time(m) / tpp, Bound: bound,
			})
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Sec > rows[j].Sec })
	return rows
}

// FormatRoofline renders the rows as the figure-2-style text table.
func FormatRoofline(rows []RooflineRow, machines []perf.Machine) string {
	var sb strings.Builder
	sb.WriteString("measured-vs-modelled roofline (per kernel, per grid point per call)\n")
	sb.WriteString("attained% = roofline-model time / measured time on that machine model\n\n")
	fmt.Fprintf(&sb, "%-24s %8s %10s %10s %9s %9s %9s",
		"kernel", "calls/rk", "excl s/rk", "ns/pt", "flops/pt", "bytes/pt", "Gflop/s")
	for _, m := range machines {
		fmt.Fprintf(&sb, "  %13s", m.Name+" att%")
	}
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-24s %8d %10.4f %10.1f %9.0f %9.0f %9.2f",
			r.Kernel, r.Calls, r.Sec, r.TimePerPt*1e9, r.Flops, r.Bytes, r.GFlopS)
		for _, mf := range r.Machines {
			fmt.Fprintf(&sb, "  %6.1f (%s)", 100*mf.Frac, mf.Bound[:3])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// calibration sinks keep the compiler from eliding the measurement loops.
var calibSinkF float64
var calibSink []float64

// CalibrateHost measures this host's single-core attained peak: a short
// FMA-chain loop for the flop rate and a STREAM-triad pass for the memory
// bandwidth (~10 ms each). The result slots into the machine list next to
// the paper's XT3/XT4 models so the roofline report can state attained
// fractions against the hardware the run actually used.
func CalibrateHost() perf.Machine {
	// Flop rate: 8 independent multiply-add chains, the per-core ILP a
	// scalar FPU sustains.
	var a0, a1, a2, a3, a4, a5, a6, a7 = 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
	const c0, c1 = 0.999999, 1e-9
	iters := 0
	start := time.Now()
	for time.Since(start) < 5*time.Millisecond {
		for i := 0; i < 100_000; i++ {
			a0 = a0*c0 + c1
			a1 = a1*c0 + c1
			a2 = a2*c0 + c1
			a3 = a3*c0 + c1
			a4 = a4*c0 + c1
			a5 = a5*c0 + c1
			a6 = a6*c0 + c1
			a7 = a7*c0 + c1
		}
		iters += 100_000
	}
	flopSec := time.Since(start).Seconds()
	calibSinkF = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	flopRate := float64(16*iters) / flopSec

	// Memory bandwidth: triad a = b + s*c over arrays far beyond cache;
	// 3 doubles of traffic per element.
	const n = 1 << 21 // 2M doubles x 3 arrays = 48 MB
	if len(calibSink) < 3*n {
		calibSink = make([]float64, 3*n)
	}
	av, bv, cv := calibSink[:n], calibSink[n:2*n], calibSink[2*n:3*n]
	for i := range bv {
		bv[i], cv[i] = float64(i), float64(n-i)
	}
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			av[i] = bv[i] + 1.000001*cv[i]
		}
		if bw := float64(24*n) / time.Since(t0).Seconds(); bw > best {
			best = bw
		}
	}
	return perf.Machine{Name: "host", FlopRate: flopRate, MemBW: best,
		NICLat: 1e-6, NICBW: 10e9}
}
