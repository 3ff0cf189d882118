package solver

import (
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/par"
)

// rhsPinCase is one geometry of TestRHSBits: a configuration, its initial
// condition and the hashes of one EvalRHS recorded before divergence,
// chemistry and the NSCBC faces ran as one sweep (each stage was its own
// plan region then, the NSCBC faces one plane region each).
type rhsPinCase struct {
	name    string
	config  func(*par.Pool) *Config
	ic      func(*Block)
	off, on uint64 // heat-release collection off, on
}

var rhsPinCases = []rhsPinCase{
	{name: "jet25x17x1", config: degenerateCase{nx: 25, ny: 17, nz: 1, jet: true}.config, ic: degenerateIC,
		off: 0xab10e6c3f9f67bf8, on: 0xd336548dba3cd4b0},
	{name: "block11x9x7", config: func(pool *par.Pool) *Config {
		// NSCBC on every face: the corrections of the x, y and z faces meet
		// on the block's edges and corners.
		cfg := degenerateCase{nx: 11, ny: 9, nz: 7, jet: true}.config(pool)
		cfg.BC[2] = [2]BCType{OutflowNSCBC, OutflowNSCBC}
		return cfg
	}, ic: degenerateIC, off: 0x810181c466325ecc, on: 0x2afc30da6acb47a3},
	{name: "xline1x11x9", config: degenerateCase{nx: 1, ny: 11, nz: 9}.config, ic: degenerateIC,
		off: 0x0fddc830bb7e95c0, on: 0x2bdeba5b0386316a},
	{name: "airbox13x11x7", config: func(pool *par.Pool) *Config {
		cfg := airConfig(13, 11, 7, 0.004)
		cfg.Pool = pool
		return cfg
	}, ic: func(b *Block) {
		Y := airY(b.cfg)
		b.SetState(func(x, y, z float64, s *InflowState) {
			px, py, pz := 2*math.Pi*x/0.004, 2*math.Pi*y/0.004, 2*math.Pi*z/0.004
			s.U = 3 * math.Sin(px) * math.Cos(py)
			s.V = -2 * math.Cos(px) * math.Sin(pz)
			s.W = math.Sin(py + pz)
			s.T = 300 + 40*math.Cos(px+py)*math.Sin(pz)
			copy(s.Y, Y)
		}, nil)
	}, off: 0xabf067bd0b0ef484, on: 0xabf067bd0b0ef484},
}

// rhsHash is the FNV-1a hash of every interior rhs word, variables in
// order, followed by the heat-release integral's bits.
func rhsHash(b *Block) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, f := range b.rhs {
		for k := 0; k < f.Nz; k++ {
			for j := 0; j < f.Ny; j++ {
				for i := 0; i < f.Nx; i++ {
					put(math.Float64bits(f.At(i, j, k)))
				}
			}
		}
	}
	put(math.Float64bits(b.HeatRelease()))
	return h.Sum64()
}

// TestRHSBits pins one EvalRHS after two steps — every interior rhs word
// and HeatRelease(), with the heat-release collection off and on — on the
// reacting 2-D jet (four NSCBC faces), a reacting 3-D block with NSCBC on
// all six faces, a block whose x axis has one point and the periodic air
// box, at one, two and three workers, to the hashes the unfused stages
// produced.
func TestRHSBits(t *testing.T) {
	const tRHS = 3 * degDt
	for _, tc := range rhsPinCases {
		for _, workers := range []int{1, 2, 3} {
			for _, collect := range []bool{false, true} {
				pool := par.NewPool(workers)
				b, err := NewSerial(tc.config(pool))
				if err != nil {
					pool.Close()
					t.Fatal(err)
				}
				tc.ic(b)
				b.Advance(2, degDt)
				b.collectHRR, b.hrrAcc = collect, 0
				b.EvalRHS(tRHS)
				b.collectHRR = false
				got, want := rhsHash(b), tc.off
				if collect {
					want = tc.on
				}
				if got != want {
					t.Errorf("%s workers=%d collect=%v: rhs hash %#x, want %#x", tc.name, workers, collect, got, want)
				}
				pool.Close()
			}
		}
	}
}

// TestRHSRegions: one EvalRHS on the NSCBC jet runs the primitive recovery,
// the flux stage, the halo items (GHOST_EXCHANGE, where an axis wraps or
// meets a rank) and one sweep that finishes rhs — no plan region of its own
// for the chemistry or for any NSCBC face.
func TestRHSRegions(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	b, err := NewSerial(degenerateCase{nx: 24, ny: 16, nz: 1, jet: true}.config(pool))
	if err != nil {
		t.Fatal(err)
	}
	degenerateIC(b)
	reg := obs.NewRegistry()
	b.plan.AttachMetrics(reg)
	b.EvalRHS(0)
	var labels []string
	for name := range reg.Snapshot().Counters {
		if l := strings.TrimPrefix(name, "par.tiles."); l != "GHOST_EXCHANGE" {
			labels = append(labels, l)
		}
	}
	slices.Sort(labels)
	if want := []string{"ASSEMBLE_FLUXES", "COMPUTE_PRIMITIVES", "DIVERGENCE"}; !slices.Equal(labels, want) {
		t.Fatalf("plan labels of one EvalRHS = %v, want %v", labels, want)
	}
}
