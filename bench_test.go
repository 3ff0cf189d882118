package s3d

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Custom metrics carry
// the reproduced quantities so `go test -bench=. -benchmem` regenerates the
// numbers EXPERIMENTS.md records:
//
//	Fig. 1  — weak-scaling cost per grid point per step (µs)
//	Fig. 2  — region breakdown, XT3/XT4 diffusive-flux ratio
//	Fig. 3  — balanced-hybrid cost at the 2007 node mix (µs)
//	Figs. 4–5 — diffusive-flux kernel: naive vs optimised (real timing)
//	Fig. 9  — S3D-I/O write bandwidth per method (MB/s)
//	Fig. 10 — lifted-flame DNS step throughput
//	Fig. 11 — conditional T|ξ statistics construction
//	Table 1 — laminar flame + turbulence parameter evaluation
//	Fig. 12 — c-isosurface rendering
//	Fig. 13 — conditional |∇c| statistics
//	Figs. 14–15 — multivariate rendering + trispace views
//	Figs. 16–18 — workflow pipeline execution

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/deriv"
	"github.com/s3dgo/s3d/internal/flame1d"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/pario"
	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
	"github.com/s3dgo/s3d/internal/sdf"
	"github.com/s3dgo/s3d/internal/solver"
	"github.com/s3dgo/s3d/internal/stats"
	"github.com/s3dgo/s3d/internal/transport"
	"github.com/s3dgo/s3d/internal/turb"
	"github.com/s3dgo/s3d/internal/viz"
	"github.com/s3dgo/s3d/internal/workflow"
)

// --- Figure 1 ---

func BenchmarkFig1WeakScaling(b *testing.B) {
	cores := []int{2, 64, 2048, 8192, 12000, 22800}
	var hybridPlateau float64
	for i := 0; i < b.N; i++ {
		pts := perf.WeakScaling(cores, "hybrid")
		hybridPlateau = pts[len(pts)-1].CostPerGP
	}
	b.ReportMetric(perf.NodalCost(perf.XT4, perf.S3DKernels)*1e6, "xt4_us/gp")
	b.ReportMetric(perf.NodalCost(perf.XT3, perf.S3DKernels)*1e6, "xt3_us/gp")
	b.ReportMetric(hybridPlateau*1e6, "hybrid_us/gp")
}

// --- Figure 2 ---

func BenchmarkFig2Breakdown(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		b3 := perf.RegionBreakdown(perf.XT3, perf.XT3, perf.S3DKernels)
		b4 := perf.RegionBreakdown(perf.XT4, perf.XT3, perf.S3DKernels)
		ratio = b3["COMPUTESPECIESDIFFFLUX"] / b4["COMPUTESPECIESDIFFFLUX"]
	}
	b.ReportMetric(ratio, "diffflux_xt3/xt4")
}

// --- Figure 3 ---

func BenchmarkFig3HybridBalance(b *testing.B) {
	var at46 float64
	for i := 0; i < b.N; i++ {
		at46 = perf.HybridBalance([]float64{0.46})[0].CostPerGP
	}
	b.ReportMetric(at46*1e6, "balanced_us/gp") // paper: 61 µs
}

// --- Figures 4–5: the real kernel, both implementations ---

// diffFluxStudy builds the figure-4 kernel study on a single-rank inert
// block, so only the diffusive-flux loop nest is measured.
func diffFluxStudy(b *testing.B, n int) *solver.DiffFluxStudy {
	b.Helper()
	mech := chem.H2Air()
	cfg := &solver.Config{
		Mech:         mech,
		Trans:        transport.MustNew(mech.Set),
		Grid:         grid.New(grid.Spec{Nx: n, Ny: n, Nz: n, Lx: 0.01, Ly: 0.01, Lz: 0.01}),
		PInf:         101325,
		ChemistryOff: true,
	}
	blk, err := solver.NewSerial(cfg)
	if err != nil {
		b.Fatal(err)
	}
	iH2 := mech.Set.Index("H2")
	iO2 := mech.Set.Index("O2")
	iN2 := mech.Set.Index("N2")
	iH2O := mech.Set.Index("H2O")
	blk.SetState(func(x, y, z float64, s *solver.InflowState) {
		f := 0.02 * (1 + math.Sin(600*x)*math.Cos(600*y))
		s.T = 400 + 60*math.Sin(600*y)
		for i := range s.Y {
			s.Y[i] = 0
		}
		s.Y[iH2] = f
		s.Y[iH2O] = 0.05
		s.Y[iO2] = 0.2
		s.Y[iN2] = 1 - f - 0.25
	}, nil)
	return blk.NewDiffFluxStudy()
}

func BenchmarkFig4DiffFluxArraySyntax(b *testing.B) {
	s := diffFluxStudy(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Naive()
	}
}

func BenchmarkFig4DiffFluxFused(b *testing.B) {
	s := diffFluxStudy(b, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Fused()
	}
}

func BenchmarkFig5ModelledSaving(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		_, _, saving = perf.DiffFluxModelSpeedup(perf.XD1, 2.94)
	}
	b.ReportMetric(saving*100, "xd1_saving_%") // paper: 6.8%
}

// --- Figure 9 ---

func BenchmarkFig9IOKernel(b *testing.B) {
	k := pario.Kernel{NxP: 50, NyP: 50, NzP: 50, Px: 4, Py: 4, Pz: 2}
	net := pario.GigE()
	lustre := pario.Lustre()
	gpfs := pario.GPFS()
	var res [4]pario.Result
	for i := 0; i < b.N; i++ {
		for mi, m := range pario.AllMethods() {
			res[mi] = m.Simulate(k, lustre, net, 10)
		}
	}
	b.ReportMetric(res[0].BandwidthMBs, "lustre_fortran_MB/s")
	b.ReportMetric(res[1].BandwidthMBs, "lustre_collective_MB/s")
	b.ReportMetric(res[2].BandwidthMBs, "lustre_caching_MB/s")
	b.ReportMetric(res[3].BandwidthMBs, "lustre_writebehind_MB/s")
	g := pario.TwoStageWriteBehind{}.Simulate(k, gpfs, net, 10)
	b.ReportMetric(g.BandwidthMBs, "gpfs_writebehind_MB/s")
}

func BenchmarkFig9Alignment(b *testing.B) {
	// Ablation: aligned page flushes vs unaligned partitions on Lustre.
	fs := pario.Lustre()
	const np = 16
	pageB := fs.StripeBytes
	fileBytes := pageB * 128
	aligned := make([][]pario.Run, np)
	unaligned := make([][]pario.Run, np)
	for pg := int64(0); pg < 128; pg++ {
		p := int(pg) % np
		aligned[p] = append(aligned[p], pario.Run{Offset: pg * pageB, Bytes: pageB, Count: 1})
	}
	chunk := fileBytes / np
	for p := 0; p < np; p++ {
		off := int64(p)*chunk + pageB/3
		if p == 0 {
			off = 0
		}
		end := int64(p+1)*chunk + pageB/3
		if p == np-1 {
			end = fileBytes
		}
		unaligned[p] = []pario.Run{{Offset: off, Bytes: end - off, Count: 1}}
	}
	var ta, tu float64
	for i := 0; i < b.N; i++ {
		ta = fs.SharedWriteTime(aligned, fileBytes)
		tu = fs.SharedWriteTime(unaligned, fileBytes)
	}
	b.ReportMetric(tu/ta, "unaligned_slowdown_x")
}

// --- Figure 10 ---

func BenchmarkFig10LiftedFlame(b *testing.B) {
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 48, Ny: 40, Nz: 1, IgnitionKernel: true, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		b.Fatal(err)
	}
	dt := 0.4 * sim.StableDt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Advance(1, dt)
	}
	nx, ny, nz := sim.Dims()
	perStep := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(perStep/float64(nx*ny*nz)*1e6, "us/gp/step")
}

// --- Figure 11 ---

func BenchmarkFig11ConditionalStats(b *testing.B) {
	// Conditional statistics over a synthetic T(ξ) cloud of the figure-11 size.
	n := 200000
	xi := make([]float64, n)
	temp := make([]float64, n)
	for i := range xi {
		xi[i] = float64(i%1000) / 1000
		temp[i] = 1100 + 1200*math.Exp(-(xi[i]-0.2)*(xi[i]-0.2)/0.02)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		cond := stats.NewConditional(25, 0, 1)
		for i := range xi {
			cond.Add(xi[i], temp[i])
		}
		cond.Bins()
	}
}

// --- Table 1 ---

func BenchmarkTable1Parameters(b *testing.B) {
	m := chem.CH4Skeletal()
	yu, err := flame1d.PremixedMixture(m, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	var props flame1d.Properties
	for i := 0; i < b.N; i++ {
		// Coarser, shorter flame solve than production: the bench measures
		// the parameter pipeline, EXPERIMENTS.md records the full numbers.
		props, err = flame1d.Solve(flame1d.Config{
			Mech: m, Tu: 800, P: 101325, Yu: yu,
			Nx: 140, L: 7e-3, TEnd: 0.12e-3, TAvg: 0.05e-3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(props.SL, "SL_m/s")            // paper: 1.8
	b.ReportMetric(props.DeltaL*1e3, "deltaL_mm") // paper: 0.3
	field := turb.NewField(turb.Spectrum{Urms: 3 * props.SL, L0: 4 * 0.7 * props.DeltaL}, 100, 9)
	_, _, _ = field.At(0, 0, 0)
}

// --- Figure 12 ---

func BenchmarkFig12FlameSurface(b *testing.B) {
	g := grid.New(grid.Spec{Nx: 64, Ny: 48, Nz: 1, Lx: 1, Ly: 1, Lz: 1})
	c := grid.NewField3(g)
	c.Map(func(i, j, k int, _ float64) float64 {
		return 0.5 + 0.5*math.Tanh(float64(j-24)/3+2*math.Sin(float64(i)/5))
	})
	r := &viz.Renderer{
		Layers: []viz.Layer{{Field: c,
			TF:  viz.IsoTF(0.65, 0.06, viz.RGBA{R: 0.95, G: 0.75, B: 0.2, A: 0.9}),
			Min: 0, Max: 1, Shade: true}},
		Cam:   viz.Camera{Elevation: math.Pi / 2},
		Width: 240, Height: 180,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Render()
	}
}

// --- Figure 13 ---

func BenchmarkFig13GradC(b *testing.B) {
	nx, ny := 128, 96
	c := make([]float64, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			c[j*nx+i] = 0.5 + 0.5*math.Tanh(float64(j-ny/2)/4)
		}
	}
	h := 2e-5
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		cond := stats.NewConditional(20, 0.02, 0.98)
		for j := 1; j < ny-1; j++ {
			for i := 1; i < nx-1; i++ {
				gx := (c[j*nx+i+1] - c[j*nx+i-1]) / (2 * h)
				gy := (c[(j+1)*nx+i] - c[(j-1)*nx+i]) / (2 * h)
				cond.Add(c[j*nx+i], math.Sqrt(gx*gx+gy*gy)*3e-4)
			}
		}
		cond.Bins()
	}
}

// --- Figures 14–15 ---

func BenchmarkFig14MultivariateRender(b *testing.B) {
	g := grid.New(grid.Spec{Nx: 48, Ny: 36, Nz: 1, Lx: 1, Ly: 1, Lz: 1})
	oh := grid.NewField3(g)
	ho2 := grid.NewField3(g)
	oh.Map(func(i, j, k int, _ float64) float64 {
		return math.Exp(-float64((i-30)*(i-30)+(j-18)*(j-18)) / 60)
	})
	ho2.Map(func(i, j, k int, _ float64) float64 {
		return math.Exp(-float64((i-16)*(i-16)+(j-18)*(j-18)) / 60)
	})
	r := &viz.Renderer{
		Layers: []viz.Layer{
			{Field: oh, TF: viz.HotTF(0.8), Min: 0, Max: 1},
			{Field: ho2, TF: viz.CoolTF(0.8), Min: 0, Max: 1},
		},
		Cam:   viz.Camera{Elevation: math.Pi / 2},
		Width: 240, Height: 180,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Render()
	}
}

func BenchmarkFig15ParallelCoords(b *testing.B) {
	samples := make([][]float64, 2000)
	for i := range samples {
		f := float64(i) / 2000
		samples[i] = []float64{f, 1 - f, math.Abs(math.Sin(20 * f))}
	}
	pc := &viz.ParallelCoords{
		VarNames: []string{"chi", "OH", "mixfrac"},
		Samples:  samples,
		Brush:    func(s []float64) bool { return s[2] < 0.1 },
		Width:    320, Height: 200,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.Render(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 16–18 ---

func BenchmarkFig16Workflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := b.TempDir()
		cluster, err := workflow.NewCluster(filepath.Join(root, fmt.Sprint(i)))
		if err != nil {
			b.Fatal(err)
		}
		for s := 1; s <= 3; s++ {
			f := sdf.New()
			f.Attrs["step"] = fmt.Sprint(s)
			_ = f.AddVar("T.0", []int{64}, make([]float64, 64))
			_ = f.AddVar("T.1", []int{64}, make([]float64, 64))
			path := filepath.Join(cluster.JaguarRestart, fmt.Sprintf("restart-%04d.sdf", s))
			if err := f.WriteFile(path); err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(path+".done", nil, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		if err := cluster.StopAll(); err != nil {
			b.Fatal(err)
		}
		wf, err := workflow.S3DMonitor(cluster)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := wf.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Observability overhead ---

// benchCPUOverhead is the shared harness behind the observability
// overhead gates (telemetry, watchdog, analysis, cost maps). Wall-clock
// window timings on shared single-CPU runners are ±5% noisy — an order
// of magnitude above the 2% budgets — so the gate is built on process
// CPU time (getrusage) instead: the baseline and the instrumented
// simulation advance in interleaved paired windows so scheduler drift
// hits both sides, each round yields an on/off CPU ratio, each
// repetition takes the median over its rounds, and the gate takes the
// best repetition — a real regression shifts every repetition, while a
// one-off noise spike cannot fail the build.
//
// newPair builds a fresh baseline simulation plus the instrumented
// side's step function and optional teardown (telemetry must close its
// probe; the watchdog routes through TryAdvance).
func benchCPUOverhead(b *testing.B, what string, budgetPct float64, newPair func() (off *Simulation, stepOn func(n int, dt float64), done func())) {
	const warm, window, rounds, reps = 2, 8, 8, 3
	cpuSeconds := func() float64 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			b.Fatal(err)
		}
		return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 +
			float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
	}
	for i := 0; i < b.N; i++ {
		best := math.Inf(1)
		for rep := 0; rep < reps; rep++ {
			off, stepOn, done := newPair()
			// Normalise heap state so a previous benchmark's garbage cannot
			// bias this repetition's GC-assist attribution.
			runtime.GC()
			warmDt := 0.4 * off.StableDt()
			off.Advance(warm, warmDt)
			stepOn(warm, warmDt)
			ratios := make([]float64, 0, rounds)
			for r := 0; r < rounds; r++ {
				// Refresh dt as the flame develops: both sims follow the
				// identical trajectory, so the baseline's stable dt is the
				// instrumented side's too, and a dt frozen at step 0 goes
				// unstable as ignition stiffens the acoustics.
				dt := 0.4 * off.StableDt()
				// ABBA window order: any linear load or frequency drift
				// across the round contributes equally to both sides of the
				// ratio and cancels.
				s := cpuSeconds()
				off.Advance(window, dt)
				offCPU := cpuSeconds() - s
				s = cpuSeconds()
				stepOn(window, dt)
				onCPU := cpuSeconds() - s
				s = cpuSeconds()
				stepOn(window, dt)
				onCPU += cpuSeconds() - s
				s = cpuSeconds()
				off.Advance(window, dt)
				offCPU += cpuSeconds() - s
				ratios = append(ratios, onCPU/offCPU)
			}
			if done != nil {
				done()
			}
			sort.Float64s(ratios)
			if med := ratios[len(ratios)/2]; med < best {
				best = med
			}
		}
		overhead := (best - 1) * 100
		b.ReportMetric(overhead, "overhead_%")
		if overhead > budgetPct {
			b.Errorf("%s overhead %.2f%% exceeds the %g%% budget (best median CPU ratio %.4f over %d reps)",
				what, overhead, budgetPct, best, reps)
		}
	}
}

// newLiftedBenchSim builds the small reacting lifted-jet case the
// overhead gates share.
func newLiftedBenchSim(b *testing.B) (*Simulation, *Problem) {
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		b.Fatal(err)
	}
	return sim, p
}

// BenchmarkObsOverhead measures the cost of full step telemetry (trace
// writer attached, every per-step monitor live) against an uninstrumented
// run of the same problem, and fails if the overhead exceeds the 2% budget
// the observability layer is designed to (methodology: benchCPUOverhead).
func BenchmarkObsOverhead(b *testing.B) {
	benchCPUOverhead(b, "telemetry", 2, func() (*Simulation, func(int, float64), func()) {
		off, _ := newLiftedBenchSim(b)
		on, _ := newLiftedBenchSim(b)
		probe, err := on.StartTelemetry(TelemetryOptions{
			Case:  "bench",
			Trace: obs.NewTrace(io.Discard),
		})
		if err != nil {
			b.Fatal(err)
		}
		return off, probe.Advance, func() {
			if err := probe.Close("bench done"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProfOverhead measures the cost of the call-path profiler's rank
// track against an unprofiled run of the same problem two ways — attached
// but disabled (the always-compiled-in cost: one atomic load per region),
// budget 1%, and attached and recording, budget 5% (methodology:
// benchCPUOverhead).
func BenchmarkProfOverhead(b *testing.B) {
	for _, c := range []struct {
		name    string
		enabled bool
		budget  float64
	}{{"disabled", false, 1}, {"enabled", true, 5}} {
		b.Run(c.name, func(b *testing.B) {
			benchCPUOverhead(b, c.name+" profiler", c.budget, func() (*Simulation, func(int, float64), func()) {
				off, _ := newLiftedBenchSim(b)
				on, _ := newLiftedBenchSim(b)
				pr := prof.New()
				pr.SetEnabled(c.enabled)
				// The rank track alone: the worker pool is shared with the
				// baseline, so pool tracks would charge it too.
				on.blk.EnableProfiling(pr.NewTrack(prof.GroupRank, "rank0"))
				return off, on.Advance, nil
			})
		})
	}
}

// --- §2.6 numerics order ---

func BenchmarkNumericsOrder(b *testing.B) {
	// Report the measured convergence order of the eighth-order derivative
	// as a custom metric (≈8, paper §2.6).
	var rate float64
	for i := 0; i < b.N; i++ {
		e1 := derivMaxErr(33)
		e2 := derivMaxErr(65)
		rate = math.Log2(e1 / e2)
	}
	b.ReportMetric(rate, "deriv_order")
}

func derivMaxErr(n int) float64 {
	g := grid.New(grid.Spec{Nx: n, Ny: 3, Nz: 3, Lx: 1, Ly: 1, Lz: 1})
	f := grid.NewField3(g)
	h := 1.0 / float64(n-1)
	for k := -f.G; k < f.Nz+f.G; k++ {
		for j := -f.G; j < f.Ny+f.G; j++ {
			for i := -f.G; i < f.Nx+f.G; i++ {
				f.Set(i, j, k, math.Sin(4*math.Pi*float64(i)*h))
			}
		}
	}
	d := grid.NewField3(g)
	deriv.Diff(d, f, grid.X, g.MetX, deriv.UseGhosts, deriv.UseGhosts)
	var max float64
	for i := 0; i < n; i++ {
		want := 4 * math.Pi * math.Cos(4*math.Pi*float64(i)*h)
		if e := math.Abs(d.At(i, 1, 1) - want); e > max {
			max = e
		}
	}
	return max
}

// --- Run-health watchdog overhead ---

// BenchmarkHealthOverhead measures the cost of the armed watchdog — the
// fused end-of-step invariant sweep with every check on, plus the flight
// recorder — against an unwatched run of the same problem, and fails if
// the overhead exceeds the 2% budget the health layer is designed to
// (methodology: benchCPUOverhead). When disarmed the whole feature costs
// one nil check and at most one atomic load per step, which is below
// measurement resolution by construction.
func BenchmarkHealthOverhead(b *testing.B) {
	benchCPUOverhead(b, "watchdog", 2, func() (*Simulation, func(int, float64), func()) {
		off, _ := newLiftedBenchSim(b)
		on, _ := newLiftedBenchSim(b)
		// Every check runs — the benchmark pays the full sweep — but the
		// deliberately under-resolved ignition case drifts past the default
		// 5% species-sum and species-bounds FATAL bands around step 65, so
		// only those trip thresholds are widened to keep the ~100-step
		// measurement alive.
		cfg := HealthDefaults()
		cfg.SpeciesSum = health.Above(0.1, 0.5)
		cfg.SpeciesBounds = health.Range(-0.1, 1.1, -0.5, 1.5)
		on.EnableHealth(HealthOptions{Config: &cfg})
		return off, func(n int, dt float64) {
			if err := on.TryAdvance(n, dt); err != nil {
				b.Fatal(err)
			}
		}, nil
	})
}

// --- In-situ analysis overhead ---

// BenchmarkAnalysisOverhead measures the cost of the in-situ science
// reduction — the fused end-of-step operator sweep with the full standard
// spec (moments, histogram, conditional means, flame surface, heat release)
// — against an unanalysed run of the same problem, and fails if the
// overhead exceeds the 2% budget the pipeline is designed to (methodology:
// benchCPUOverhead). When installed but disabled the whole feature costs
// one nil check and one atomic load per step, which is below measurement
// resolution by construction.
func BenchmarkAnalysisOverhead(b *testing.B) {
	benchCPUOverhead(b, "analysis", 2, func() (*Simulation, func(int, float64), func()) {
		off, _ := newLiftedBenchSim(b)
		on, p := newLiftedBenchSim(b)
		if _, err := on.EnableAnalysis(p.StandardAnalysis()); err != nil {
			b.Fatal(err)
		}
		if err := on.Subscribe(func(AnalysisRecord) {}); err != nil {
			b.Fatal(err)
		}
		return off, on.Advance, nil
	})
}

// --- Spatial cost-map overhead ---

// BenchmarkCostOverhead measures the cost-attribution sampler against an
// uninstrumented run of the same problem at the default cadence (Every: 1,
// a record every step — the worst case): the probe's run and tile counts,
// its per-tile sample on the first runs of each kernel per window (later
// runs execute unwrapped; the region seconds come from the always-on
// region timers) and the end-of-step snapshot and publish. The budget is
// the same 2% every other observability layer holds to (methodology:
// benchCPUOverhead — this gate is why the harness exists: per-step wall
// clock on shared runners swings an order of magnitude more than the
// budget). Installed but
// disabled, the sampler costs one nil check plus one atomic load per
// step and one atomic load per plan run, below measurement resolution
// by construction.
func BenchmarkCostOverhead(b *testing.B) {
	benchCPUOverhead(b, "cost-map", 2, func() (*Simulation, func(int, float64), func()) {
		off, _ := newLiftedBenchSim(b)
		on, _ := newLiftedBenchSim(b)
		if _, err := on.EnableCostMaps(CostSpec{Every: 1}); err != nil {
			b.Fatal(err)
		}
		if err := on.SubscribeCost(func(CostRecord) {}); err != nil {
			b.Fatal(err)
		}
		return off, on.Advance, nil
	})
}

// BenchmarkCritPathOverhead measures the wait-state and critical-path
// analyzer at the worst-case cadence (Every: 1 — the internal call-path
// profiler armed every step, a deposit, the per-step analysis, and the
// subscriber fan-out) against an uninstrumented run of the same problem,
// holding it to the same 2% budget as every other observability layer
// (methodology: benchCPUOverhead). Installed but disarmed, the per-step
// cost is one nil check plus one atomic load in Due — below measurement
// resolution by construction, the same contract the cost sampler keeps.
func BenchmarkCritPathOverhead(b *testing.B) {
	benchCPUOverhead(b, "critpath", 2, func() (*Simulation, func(int, float64), func()) {
		off, _ := newLiftedBenchSim(b)
		on, _ := newLiftedBenchSim(b)
		if err := on.EnableCritPath(NewCritPathAnalyzer(CritPathSpec{Every: 1})); err != nil {
			b.Fatal(err)
		}
		if err := on.SubscribeCritPath(func(CritPathRecord) {}); err != nil {
			b.Fatal(err)
		}
		return off, on.Advance, nil
	})
}
