package prof

import (
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/perf"
)

func TestKernelDemandCoversFigure2Regions(t *testing.T) {
	const ns = 9 // H2/air
	for _, name := range []string{
		"COMPUTE_PRIMITIVES", "DIVERGENCE",
		"ASSEMBLE_FLUXES", "REACTION_RATE_BOUNDS", "RK_UPDATE", "FILTER",
	} {
		d, ok := KernelDemand(name, ns)
		if !ok {
			t.Fatalf("no demand model for %s", name)
		}
		if d.Flops <= 0 || d.Bytes <= 0 {
			t.Fatalf("%s demand = %+v", name, d)
		}
	}
	// No span of these names opens any more: the fused flux stage, transport
	// included, is ASSEMBLE_FLUXES, and the diffusive-flux loop nest alone
	// lives in the figure-4 study and the perf.Machine model.
	for _, name := range []string{"GHOST_EXCHANGE", "DERIVATIVES", "COMPUTESPECIESDIFFFLUX", "COMPUTE_TRANSPORT"} {
		if _, ok := KernelDemand(name, ns); ok {
			t.Fatalf("%s must have no per-point demand model", name)
		}
	}
	// Chemistry must be modelled compute-bound on the XT3 model (the
	// paper's figure-2 observation; the memory-bound diffusive-flux loop nest
	// is perf.S3DKernels' COMPUTESPECIESDIFFFLUX).
	chem, _ := KernelDemand("REACTION_RATE_BOUNDS", ns)
	if m := perf.XT3; chem.Flops/m.FlopRate <= chem.Bytes/m.MemBW {
		t.Fatal("chemistry modelled memory-bound")
	}
}

func TestRooflineFromSyntheticRun(t *testing.T) {
	p := New()
	tr := p.NewTrack(GroupRank, "rank0")
	// Two kernel calls with real (short) durations.
	for i := 0; i < 2; i++ {
		s := tr.Begin("REACTION_RATE_BOUNDS")
		busyWait()
		s.End()
		s = tr.Begin("RK_UPDATE")
		busyWait()
		s.End()
	}
	rep := Build(p)
	shape := RunShape{PointsPerRank: 16 * 16 * 16, NumSpecies: 9}
	machines := []perf.Machine{perf.XT3, perf.XT4}
	rows := Roofline(rep, shape, machines)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Calls != 2 {
			t.Fatalf("%s calls = %d", r.Kernel, r.Calls)
		}
		if r.TimePerPt <= 0 || r.GFlopS <= 0 || r.GBS <= 0 {
			t.Fatalf("%s rates: %+v", r.Kernel, r)
		}
		if len(r.Machines) != 2 {
			t.Fatalf("%s machine fracs = %d", r.Kernel, len(r.Machines))
		}
		for _, mf := range r.Machines {
			if mf.Frac <= 0 {
				t.Fatalf("%s on %s frac = %g", r.Kernel, mf.Machine, mf.Frac)
			}
			if mf.Bound != "compute" && mf.Bound != "memory" {
				t.Fatalf("bound = %q", mf.Bound)
			}
		}
	}
	txt := FormatRoofline(rows, machines)
	for _, want := range []string{
		"REACTION_RATE_BOUNDS", "RK_UPDATE", "XT3", "XT4", "flops/pt",
	} {
		if !strings.Contains(txt, want) {
			t.Fatalf("roofline table missing %q:\n%s", want, txt)
		}
	}
}

// busyWait burns a little real time so durations are strictly positive.
func busyWait() {
	x := 1.0
	for i := 0; i < 20000; i++ {
		x = x*0.9999999 + 1e-12
	}
	calibSinkF = x
}

func TestCalibrateHost(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration loop in -short mode")
	}
	m := CalibrateHost()
	if m.FlopRate < 1e8 || m.MemBW < 1e8 {
		t.Fatalf("implausible host calibration: %+v", m)
	}
}
