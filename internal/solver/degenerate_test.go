package solver

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/transport"
)

// degenerateCase is one quasi-1-D or quasi-2-D reacting configuration whose
// trajectory is pinned bit for bit.
type degenerateCase struct {
	name       string
	nx, ny, nz int
	jet        bool // NSCBC inflow/outflow along x, outflow along y
	layouts    []degenerateLayout
}

// degenerateLayout is a process grid and the conserved-bank hash recorded
// for it on the commit before degenerate axes lost their ghost planes,
// gradient fields and sweeps (every axis carried grid.Ghost layers and all
// three directions were swept; the dropped terms were exact zeros).
type degenerateLayout struct {
	dims [3]int
	hash uint64
}

var degenerateCases = []degenerateCase{
	{name: "jet24x16x1", nx: 24, ny: 16, nz: 1, jet: true, layouts: []degenerateLayout{
		{[3]int{1, 1, 1}, 0xa1b5e273005f6265},
		{[3]int{2, 1, 1}, 0xd2b71015b23f4e59},
	}},
	{name: "line20x1x1", nx: 20, ny: 1, nz: 1, layouts: []degenerateLayout{
		{[3]int{1, 1, 1}, 0x8311378545819108},
		{[3]int{2, 1, 1}, 0x7711c0d564c74078},
	}},
	{name: "line1x1x24", nx: 1, ny: 1, nz: 24, layouts: []degenerateLayout{
		{[3]int{1, 1, 1}, 0x9801ccb6b0cbbe87},
		{[3]int{1, 1, 2}, 0xdacdecbac04c725b},
	}},
}

const (
	degLx, degLy, degLz = 0.006, 0.004, 0.005
	degSteps            = 9 // FilterEvery 4: two filter applications
	degDt               = 2e-8
)

func (c degenerateCase) config(pool *par.Pool) *Config {
	mech := chem.H2Air()
	cfg := &Config{
		Mech:        mech,
		Trans:       transport.MustNew(mech.Set),
		Grid:        grid.New(grid.Spec{Nx: c.nx, Ny: c.ny, Nz: c.nz, Lx: degLx, Ly: degLy, Lz: degLz}),
		PInf:        101325,
		FilterEvery: 4,
		Pool:        pool,
	}
	if c.jet {
		cfg.BC = [3][2]BCType{
			{InflowNSCBC, OutflowNSCBC},
			{OutflowNSCBC, OutflowNSCBC},
			{Periodic, Periodic},
		}
		Yin := degenerateY(cfg, 0)
		cfg.Inflow = func(y, z, t float64, tgt *InflowState) {
			tgt.U, tgt.V, tgt.W = 12, 0, 0.4
			tgt.T = 750
			copy(tgt.Y, Yin)
		}
	}
	return cfg
}

// degenerateY is a lean H2/air charge with a radical seed that varies with
// s, so species gradients, differential diffusion and chemistry are all live.
func degenerateY(cfg *Config, s float64) []float64 {
	set := cfg.Mech.Set
	Y := make([]float64, cfg.Mech.NumSpecies())
	Y[set.Index("H2")] = 0.015 + 0.005*s
	Y[set.Index("O2")] = 0.23
	Y[set.Index("H")] = 1e-5 * (1 + s)
	Y[set.Index("OH")] = 2e-5 * (1 - 0.5*s)
	Y[set.Index("N2")] = 1 - Y[set.Index("H2")] - 0.23 - Y[set.Index("H")] - Y[set.Index("OH")]
	return Y
}

// degenerateIC sets a hot kernel with all three velocity components non-zero
// (the spanwise one included: its cross-gradients feed the stress tensor of a
// quasi-2-D run) and a composition that varies along every active axis.
func degenerateIC(b *Block) {
	cfg := b.cfg
	b.SetState(func(x, y, z float64, s *InflowState) {
		px, py, pz := 2*math.Pi*x/degLx, 2*math.Pi*y/degLy, 2*math.Pi*z/degLz
		s.U = 12 + 2*math.Sin(px)*math.Cos(py+pz)
		s.V = 1.5 * math.Cos(px+0.3) * math.Cos(pz)
		s.W = 0.4 + 0.7*math.Sin(px+py+pz)
		// The hot kernel sits mid-domain along every active axis.
		var r2 float64
		for a, d := range [3]float64{x - 0.5*degLx, y - 0.5*degLy, z - 0.4*degLz} {
			if cfg.Grid.Dim(grid.Axis(a)) > 1 {
				r2 += d * d
			}
		}
		s.T = 750 + 550*math.Exp(-r2/(0.0008*0.0008))
		copy(s.Y, degenerateY(cfg, 0.5*math.Sin(px+pz)*math.Cos(py)))
	}, nil)
}

// conservedHash is the FNV-1a hash of the interior conserved bank of every
// rank, ranks in offset order.
func conservedHash(ranks []rankState) uint64 {
	sortByOffset(ranks)
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range ranks {
		for _, vq := range r.q {
			for _, bits := range vq {
				for i := 0; i < 8; i++ {
					buf[i] = byte(bits >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

func (c degenerateCase) run(t *testing.T, dims [3]int, workers int) uint64 {
	t.Helper()
	pool := par.NewPool(workers)
	defer pool.Close()
	cfg := c.config(pool)
	advance := func(b *Block) rankState {
		degenerateIC(b)
		b.Advance(degSteps, degDt)
		st := rankState{i0: b.i0, j0: b.j0, k0: b.k0, q: make([][]uint64, b.nvar)}
		for v := 0; v < b.nvar; v++ {
			b.Q[v].Each(func(_, _, _ int, x float64) {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					panic(fmt.Sprintf("Q[%d] not finite", v))
				}
				st.q[v] = append(st.q[v], math.Float64bits(x))
			})
		}
		return st
	}
	if dims == [3]int{1, 1, 1} {
		b, err := NewSerial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return conservedHash([]rankState{advance(b)})
	}
	n := dims[0] * dims[1] * dims[2]
	results := make(chan rankState, n)
	if err := RunParallel(cfg, dims, func(b *Block) { results <- advance(b) }); err != nil {
		t.Fatal(err)
	}
	close(results)
	var ranks []rankState
	for r := range results {
		ranks = append(ranks, r)
	}
	return conservedHash(ranks)
}

// TestDegenerateAxisBitCompatibility pins the trajectories of runs with one
// or two single-point axes — a reacting NSCBC jet in the plane, a line along
// x and a line along z — serial and cut in two, at one worker and at four:
// nine steps with two filter applications must reproduce the conserved bank
// recorded when degenerate axes still carried ghost planes, zero gradient
// fields and full sweeps.
func TestDegenerateAxisBitCompatibility(t *testing.T) {
	for _, c := range degenerateCases {
		for _, l := range c.layouts {
			for _, workers := range []int{1, 4} {
				if h := c.run(t, l.dims, workers); h != l.hash {
					t.Errorf("%s ranks=%v workers=%d: conserved hash %#016x, recorded %#016x",
						c.name, l.dims, workers, h, l.hash)
				}
			}
		}
	}
}
