package s3d

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/obs"
)

func inertBoxSim(t *testing.T) *Simulation {
	t.Helper()
	mech := HydrogenAir()
	sim, err := New(Config{
		Mechanism:    mech,
		Grid:         GridSpec{Nx: 16, Ny: 12, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01},
		Pressure:     101325,
		ChemistryOff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	yAir := make([]float64, mech.NumSpecies())
	yAir[mech.SpeciesIndex("O2")] = 0.233
	yAir[mech.SpeciesIndex("N2")] = 0.767
	sim.SetInitial(func(x, y, z float64, s *State) {
		s.T = 300 + 200*x/0.01
		copy(s.Y, yAir)
	}, nil)
	return sim
}

// attachImager arms the analysis lane every `every` steps and attaches im
// to it.
func attachImager(t *testing.T, sim *Simulation, im *InSituImager, every int) {
	t.Helper()
	spec := AnalysisSpec{Every: every, Moments: []MomentSpec{{Field: "T"}}}
	if _, err := sim.EnableAnalysis(spec); err != nil {
		t.Fatal(err)
	}
	if err := im.Attach(sim); err != nil {
		t.Fatal(err)
	}
}

func TestInSituImagerWritesFrames(t *testing.T) {
	sim := inertBoxSim(t)
	dir := filepath.Join(t.TempDir(), "frames")
	im := &InSituImager{Dir: dir, FieldA: "T", FieldB: "p", Width: 48, Height: 36}
	attachImager(t, sim, im, 2)
	sim.Advance(6, 0.5*sim.StableDt())
	if im.Frames() != 3 {
		t.Fatalf("frames = %d, want 3", im.Frames())
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 3 {
		t.Fatalf("frame files = %d (%v)", len(entries), err)
	}
	// Frames are valid PNGs with content.
	info, err := entries[0].Info()
	if err != nil || info.Size() < 100 {
		t.Fatalf("suspicious frame size: %v %v", info, err)
	}
}

func TestInSituImagerNeedsAnalysis(t *testing.T) {
	im := &InSituImager{Dir: filepath.Join(t.TempDir(), "frames"), FieldA: "T"}
	if err := im.Attach(inertBoxSim(t)); err == nil {
		t.Fatal("Attach without EnableAnalysis must fail: there is no lane to ride")
	}
}

// TestInSituImagerUnderHealth: §8.3 runs inside the one checked loop. A NaN
// planted at step 5 with frames due every 2 steps leaves the frames of steps
// 2 and 4, the violation from TryAdvance, and no frame of the aborted step
// or after it.
func TestInSituImagerUnderHealth(t *testing.T) {
	sim := inertBoxSim(t)
	sim.EnableHealth(HealthOptions{})
	im := &InSituImager{Dir: filepath.Join(t.TempDir(), "frames"), FieldA: "T", Width: 32, Height: 24}
	attachImager(t, sim, im, 2)
	sim.InjectNaN(5)
	err := sim.TryAdvance(8, 0.5*sim.StableDt())
	if _, ok := err.(*health.Violation); !ok {
		t.Fatalf("TryAdvance returned %T (%v), want *health.Violation", err, err)
	}
	if sim.Step() != 5 {
		t.Fatalf("run stopped at step %d, want 5", sim.Step())
	}
	if im.Frames() != 2 || im.Err() != nil {
		t.Fatalf("frames = %d (err %v), want the 2 of steps 2 and 4", im.Frames(), im.Err())
	}
}

func TestInSituImagerSurfacesRenderErrors(t *testing.T) {
	sim := inertBoxSim(t)
	dir := filepath.Join(t.TempDir(), "frames")
	reg := obs.NewRegistry()
	im := &InSituImager{Dir: dir, FieldA: "T", Width: 32, Height: 24, Metrics: reg}
	attachImager(t, sim, im, 1)
	dt := 0.5 * sim.StableDt()
	sim.Advance(1, dt)
	if im.Err() != nil {
		t.Fatalf("healthy frame reported error: %v", im.Err())
	}
	// Take the output directory away: the frame's write must fail, the
	// simulation must NOT, and the failure must be counted and retained.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	sim.Advance(2, dt)
	if im.Err() == nil {
		t.Fatal("Err() must surface the first frame-write failure")
	}
	if got := reg.Counter("insitu.render_errors").Value(); got != 2 {
		t.Fatalf("insitu.render_errors = %d, want 2", got)
	}
}

func TestSolverFieldUnknown(t *testing.T) {
	sim := inertBoxSim(t)
	if sim.blk.FieldByName("nonsense") != nil {
		t.Fatal("unknown field should be nil")
	}
	if sim.blk.FieldByName("Y_ZZ") != nil {
		t.Fatal("unknown species should be nil")
	}
	if sim.blk.FieldByName("Y_OH") == nil || sim.blk.FieldByName("rho") == nil {
		t.Fatal("known fields missing")
	}
}
