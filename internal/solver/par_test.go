package solver

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/insitu"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/transport"
)

// TestMain lets CI force every solver test through a multi-worker pool:
// S3D_WORKERS=4 go test -race ./internal/solver exercises the tiled kernels
// with real concurrency even on small CI machines where NumCPU would
// otherwise select the single-worker inline path.
func TestMain(m *testing.M) {
	if s := os.Getenv("S3D_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			par.SetDefaultWorkers(n)
		}
	}
	os.Exit(m.Run())
}

// reactiveConfig builds a 3-D periodic H2/air box with chemistry on.
func reactiveConfig() *Config {
	mech := chem.H2Air()
	return &Config{
		Mech:        mech,
		Trans:       transport.MustNew(mech.Set),
		Grid:        grid.New(grid.Spec{Nx: 16, Ny: 12, Nz: 8, Lx: 0.004, Ly: 0.003, Lz: 0.002}),
		PInf:        101325,
		FilterEvery: 4,
	}
}

// hotSpotIC sets a lean premixed H2/air charge with a hot kernel, so the
// chemistry source and heat-release integral are active from step one.
func hotSpotIC(b *Block) {
	set := b.cfg.Mech.Set
	Y := make([]float64, b.cfg.Mech.NumSpecies())
	Y[set.Index("H2")] = 0.015
	Y[set.Index("O2")] = 0.23
	Y[set.Index("N2")] = 1 - 0.015 - 0.23
	b.SetState(func(x, y, z float64, s *InflowState) {
		s.U = 2 * math.Sin(2*math.Pi*x/0.004)
		s.V = 1 * math.Cos(2*math.Pi*y/0.003)
		s.W = 0.5 * math.Sin(2*math.Pi*z/0.002)
		r2 := (x-0.002)*(x-0.002) + (y-0.0015)*(y-0.0015) + (z-0.001)*(z-0.001)
		s.T = 700 + 500*math.Exp(-r2/(0.0005*0.0005))
		copy(s.Y, Y)
	}, nil)
}

// rankState is one rank's bit-exact solution record.
type rankState struct {
	i0, j0, k0 int
	q          [][]uint64 // [var][interior point] bit patterns
	hrr        uint64
	mass       uint64
}

// runDecomposed advances the reactive case for ten steps on a 2×2×1 rank
// grid whose blocks all share a dedicated pool of the given size, and
// returns every rank's solution bits.
func runDecomposed(t *testing.T, workers int) []rankState {
	t.Helper()
	pool := par.NewPool(workers)
	defer pool.Close()
	cfg := reactiveConfig()
	cfg.Pool = pool
	results := make(chan rankState, 4)
	err := RunParallel(cfg, [3]int{2, 2, 1}, func(b *Block) {
		b.EnableTelemetry() // activates the heat-release reduction
		hotSpotIC(b)
		b.Advance(10, 2e-8)
		st := rankState{i0: b.i0, j0: b.j0, k0: b.k0,
			hrr:  math.Float64bits(b.HeatRelease()),
			mass: math.Float64bits(b.TotalMass()),
		}
		st.q = make([][]uint64, b.nvar)
		for v := 0; v < b.nvar; v++ {
			for k := 0; k < b.G.Nz; k++ {
				for j := 0; j < b.G.Ny; j++ {
					for i := 0; i < b.G.Nx; i++ {
						st.q[v] = append(st.q[v], math.Float64bits(b.Q[v].At(i, j, k)))
					}
				}
			}
		}
		results <- st
	})
	if err != nil {
		t.Fatal(err)
	}
	close(results)
	var out []rankState
	for r := range results {
		out = append(out, r)
	}
	return out
}

// TestWorkerCountDeterminism is the tier-1 determinism gate: ten steps of
// the decomposed reactive periodic case must produce bitwise-identical
// conserved fields, heat-release integrals and total masses with one worker
// and with eight — the pool only reorders work whose results are
// order-independent, and reductions run through ordered tile slots.
func TestWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run reacting case")
	}
	base := runDecomposed(t, 1)
	for _, workers := range []int{4, 8} {
		got := runDecomposed(t, workers)
		for _, g := range got {
			var ref *rankState
			for idx := range base {
				if base[idx].i0 == g.i0 && base[idx].j0 == g.j0 && base[idx].k0 == g.k0 {
					ref = &base[idx]
					break
				}
			}
			if ref == nil {
				t.Fatalf("workers=%d: no matching rank for offset (%d,%d,%d)", workers, g.i0, g.j0, g.k0)
			}
			for v := range g.q {
				for p := range g.q[v] {
					if g.q[v][p] != ref.q[v][p] {
						t.Fatalf("workers=%d rank(%d,%d,%d): Q[%d] differs at flat %d: %x vs %x",
							workers, g.i0, g.j0, g.k0, v, p, g.q[v][p], ref.q[v][p])
					}
				}
			}
			if g.hrr != ref.hrr {
				t.Errorf("workers=%d rank(%d,%d,%d): heat release %x vs %x",
					workers, g.i0, g.j0, g.k0, g.hrr, ref.hrr)
			}
			if g.mass != ref.mass {
				t.Errorf("workers=%d rank(%d,%d,%d): total mass %x vs %x",
					workers, g.i0, g.j0, g.k0, g.mass, ref.mass)
			}
		}
	}
}

// TestWorkerCountDeterminismNSCBC covers the boundary path: a serial
// inflow/outflow channel must also be bitwise independent of the pool size
// (the NSCBC planes tile over the pool with per-worker scratch).
func TestWorkerCountDeterminismNSCBC(t *testing.T) {
	run := func(workers int) ([]uint64, func()) {
		pool := par.NewPool(workers)
		mech := chem.H2Air()
		cfg := &Config{
			Mech:  mech,
			Trans: transport.MustNew(mech.Set),
			Grid:  grid.New(grid.Spec{Nx: 24, Ny: 8, Nz: 1, Lx: 0.01, Ly: 0.004, Lz: 0.004}),
			BC: [3][2]BCType{
				{InflowNSCBC, OutflowNSCBC},
				{OutflowNSCBC, OutflowNSCBC},
				{Periodic, Periodic},
			},
			PInf:         101325,
			ChemistryOff: true,
			Pool:         pool,
		}
		Yin := airY(cfg)
		cfg.Inflow = func(y, z, t float64, tgt *InflowState) {
			tgt.U, tgt.V, tgt.W = 10, 0, 0
			tgt.T = 320
			copy(tgt.Y, Yin)
		}
		b, err := NewSerial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.SetState(func(x, y, z float64, s *InflowState) {
			s.U = 10
			s.T = 320 + 30*math.Exp(-((x-0.005)*(x-0.005))/(0.001*0.001))
			copy(s.Y, Yin)
		}, nil)
		b.Advance(8, 5e-8)
		var bits []uint64
		for v := 0; v < b.nvar; v++ {
			for k := 0; k < b.G.Nz; k++ {
				for j := 0; j < b.G.Ny; j++ {
					for i := 0; i < b.G.Nx; i++ {
						bits = append(bits, math.Float64bits(b.Q[v].At(i, j, k)))
					}
				}
			}
		}
		return bits, pool.Close
	}
	ref, cl1 := run(1)
	defer cl1()
	got, cl8 := run(8)
	defer cl8()
	for p := range ref {
		if ref[p] != got[p] {
			t.Fatalf("NSCBC channel: bit mismatch at flat %d: %x vs %x", p, ref[p], got[p])
		}
	}
}

// TestDecompositionThinnerThanHalo: a cut axis with fewer than grid.Ghost
// points on some rank is a configuration error naming the axis and the
// minimum — from RunParallel before any rank starts and from NewParallel on
// every rank — never a panic or a silently short halo.
func TestDecompositionThinnerThanHalo(t *testing.T) {
	cfg := reactiveConfig() // 16×12×8
	for _, c := range []struct {
		dims [3]int
		axis string // "" = accepted
	}{
		{[3]int{2, 2, 1}, ""},
		{[3]int{3, 1, 1}, ""},  // 16/3 = 5 = grid.Ghost exactly
		{[3]int{4, 1, 1}, "x"}, // 4 per rank
		{[3]int{1, 3, 1}, "y"}, // 4 per rank
		{[3]int{1, 1, 2}, "z"}, // 4 per rank
		{[3]int{1, 1, 0}, "z"},
	} {
		err := validateDecomposition(cfg.Grid, c.dims)
		if c.axis == "" {
			if err != nil {
				t.Errorf("dims %v rejected: %v", c.dims, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "axis "+c.axis) {
			t.Errorf("dims %v: error %v, want one naming axis %s", c.dims, err, c.axis)
		}
	}
	ran := false
	err := RunParallel(cfg, [3]int{1, 1, 2}, func(*Block) { ran = true })
	if err == nil || ran {
		t.Fatalf("RunParallel over a 4-point-thick cut: err %v, body ran %v", err, ran)
	}
	if want := fmt.Sprintf("at least %d per rank", grid.Ghost); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not state the minimum (%q)", err, want)
	}
	w := comm.NewWorld(2)
	if err := w.Run(func(c *comm.Comm) {
		cart, err := comm.NewCart(c, [3]int{1, 1, 2}, [3]bool{true, true, true})
		if err != nil {
			panic(err)
		}
		if b, err := NewParallel(cfg, cart); err == nil || b != nil {
			panic("NewParallel accepted a 4-point-thick cut axis")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotFoldsWorkerInvariant: the HEALTH and ANALYSIS sweeps accumulate
// one slot per partition plane and fold the slots in plane order, so their
// sums — and the whole health sample and analysis record — must be bitwise
// equal at every pool size, although the pool size changes how the planes
// are grouped into scheduled blocks. Run on the 3-D reactive box and on a
// quasi-2-D one (wider than tall: the plane axis is y, not the longest).
func TestSlotFoldsWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run reacting case")
	}
	for _, dims := range [][3]int{{16, 12, 8}, {24, 14, 1}} {
		run := func(workers int) string {
			pool := par.NewPool(workers)
			defer pool.Close()
			cfg := reactiveConfig()
			cfg.Grid = grid.New(grid.Spec{Nx: dims[0], Ny: dims[1], Nz: dims[2], Lx: 0.004, Ly: 0.003, Lz: 0.002})
			cfg.Pool = pool
			b, err := NewSerial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hotSpotIC(b)
			w := health.New(health.Defaults(), b.Rank())
			b.InstallWatchdog(w)
			w.Arm()
			p := insitu.NewPipeline(1)
			p.SetHeatRelease(true)
			for _, op := range []insitu.Operator{
				insitu.Moments{Field: "T"},
				insitu.Moments{Field: "Y_H2", Favre: true},
				insitu.Hist{Field: "T", Bins: 8, Lo: 600, Hi: 1300},
			} {
				if err := p.Register(op, b.NewBinder()); err != nil {
					t.Fatal(err)
				}
			}
			b.InstallAnalysis(p)
			p.Enable()
			for i := 0; i < 2; i++ {
				if err := b.StepChecked(2e-8); err != nil {
					t.Fatal(err)
				}
			}
			fr := w.Recorder().Frames()
			if len(fr) != 2 || p.Latest() == nil {
				t.Fatalf("%d health frames, analysis record %v", len(fr), p.Latest())
			}
			out, err := json.Marshal(struct {
				Health   health.Sample
				Analysis *insitu.Record
			}{fr[len(fr)-1].Sample, p.Latest()})
			if err != nil {
				t.Fatal(err)
			}
			return string(out)
		}
		want := run(1)
		for _, workers := range []int{2, 3, 4, 7} {
			if got := run(workers); got != want {
				t.Errorf("grid %v workers=%d: health sample / analysis record differ from 1 worker:\n%s\n%s",
					dims, workers, got, want)
			}
		}
	}
}
