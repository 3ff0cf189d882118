package solver

import (
	"math"
	"sync"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/transport"
)

// The jet configurations of the paper use "an algebraically stretched mesh
// ... in the transverse direction" (§6.2, §7.2). These tests exercise the
// solver on a stretched y mesh.

func stretchedConfig(t *testing.T) *Config {
	t.Helper()
	mech := chem.H2Air()
	return &Config{
		Mech:  mech,
		Trans: transport.MustNew(mech.Set),
		Grid: grid.New(grid.Spec{
			Nx: 12, Ny: 32, Nz: 1,
			Lx: 0.01, Ly: 0.02, Lz: 0.01,
			StretchY: true, Beta: 1.5,
		}),
		PInf:         101325,
		ChemistryOff: true,
	}
}

func airYFor(cfg *Config) []float64 {
	y := make([]float64, cfg.Mech.NumSpecies())
	y[cfg.Mech.Set.Index("O2")] = 0.233
	y[cfg.Mech.Set.Index("N2")] = 0.767
	return y
}

func TestStretchedMeshQuiescentSteady(t *testing.T) {
	cfg := stretchedConfig(t)
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	y := airYFor(cfg)
	b.SetState(func(x, yy, z float64, s *InflowState) {
		s.T = 500
		copy(s.Y, y)
	}, nil)
	b.EvalRHS(0)
	for v := 0; v < b.nvar; v++ {
		lo, hi := b.rhs[v].MinMax()
		if math.Max(math.Abs(lo), math.Abs(hi)) > 1e-3 {
			t.Fatalf("var %d: stretched-mesh quiescent RHS = [%g, %g]", v, lo, hi)
		}
	}
}

func TestStretchedMeshAdvectionConsistent(t *testing.T) {
	// A smooth temperature bump advected in y must move at the flow speed
	// regardless of the stretching (the metric terms must be right).
	cfg := stretchedConfig(t)
	b, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	yAir := airYFor(cfg)
	v0 := 10.0
	b.SetState(func(x, yy, z float64, s *InflowState) {
		s.V = v0
		d := yy / 0.003 // bump centred at the (clustered) domain centre
		s.T = 400 + 40*math.Exp(-d*d)
		copy(s.Y, yAir)
	}, nil)
	b.RefreshPrimitives()
	// Bump peak position before.
	peakY := func() float64 {
		best, bestY := -1.0, 0.0
		for j := 0; j < b.G.Ny; j++ {
			if v := b.T.At(6, j, 0); v > best {
				best, bestY = v, b.G.Yc[j]
			}
		}
		return bestY
	}
	y0 := peakY()
	dt := 0.4 * b.AcousticDt()
	steps := 40
	b.Advance(steps, dt)
	b.RefreshPrimitives()
	y1 := peakY()
	moved := y1 - y0
	want := v0 * float64(steps) * dt
	// Within two (local, fine) cells.
	cell := b.G.Yc[b.G.Ny/2+1] - b.G.Yc[b.G.Ny/2]
	if math.Abs(moved-want) > 2*cell+1e-9 {
		t.Fatalf("bump moved %g m, want %g (cell %g)", moved, want, cell)
	}
}

func TestParallelStretchedMatchesSerial(t *testing.T) {
	mkcfg := func() *Config { return stretchedConfig(t) }
	ic := func(b *Block) {
		y := airYFor(b.cfg)
		b.SetState(func(x, yy, z float64, s *InflowState) {
			s.U = 4 * math.Sin(2*math.Pi*x/0.01)
			s.T = 450 + 20*math.Exp(-(yy/0.004)*(yy/0.004))
			copy(s.Y, y)
		}, nil)
	}
	ser, err := NewSerial(mkcfg())
	if err != nil {
		t.Fatal(err)
	}
	ic(ser)
	ser.Advance(3, 3e-7)
	ser.RefreshPrimitives()

	var mu sync.Mutex
	worst := 0.0
	err = RunParallel(mkcfg(), [3]int{1, 2, 1}, func(b *Block) {
		ic(b)
		b.Advance(3, 3e-7)
		b.RefreshPrimitives()
		_, j0, _ := b.GlobalOffset()
		local := 0.0
		for j := 0; j < b.G.Ny; j++ {
			for i := 0; i < b.G.Nx; i++ {
				if d := math.Abs(b.T.At(i, j, 0) - ser.T.At(i, j0+j, 0)); d > local {
					local = d
				}
			}
		}
		mu.Lock()
		if local > worst {
			worst = local
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-10 {
		t.Fatalf("stretched parallel/serial mismatch %g K", worst)
	}
}
