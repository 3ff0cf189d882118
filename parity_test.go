package s3d

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// airBox is a 16³ periodic box of inert two-species air carrying a seeded
// sum of low-wavenumber Fourier modes in velocity, temperature and O2 — the
// shape of the benchmark's air_box3d, small enough to run twenty seeds.
func airBox(t *testing.T, seed int64) (Config, func(x, y, z float64, s *State)) {
	t.Helper()
	mech, err := ParseMechanism("air2", "SPECIES\nO2 N2\nEND\nREACTIONS\nEND")
	if err != nil {
		t.Fatal(err)
	}
	const l = 8e-3
	rng := rand.New(rand.NewSource(seed))
	modes := func() func(x, y, z float64) float64 {
		const n = 6
		var k [n][3]float64
		var phase [n]float64
		for i := range k {
			for a := range k[i] {
				k[i][a] = 2 * math.Pi / l * float64(rng.Intn(5)-2)
			}
			if k[i] == [3]float64{} {
				k[i][i%3] = 2 * math.Pi / l
			}
			phase[i] = 2 * math.Pi * rng.Float64()
		}
		return func(x, y, z float64) float64 {
			var s float64
			for i := range k {
				s += math.Sin(k[i][0]*x + k[i][1]*y + k[i][2]*z + phase[i])
			}
			return s / n
		}
	}
	u, v, w, tm, o2 := modes(), modes(), modes(), modes(), modes()
	iO2, iN2 := mech.SpeciesIndex("O2"), mech.SpeciesIndex("N2")
	cfg := Config{
		Mechanism:    mech,
		Grid:         GridSpec{Nx: 16, Ny: 16, Nz: 16, Lx: l, Ly: l, Lz: l},
		Pressure:     101325,
		FilterEvery:  5,
		ChemistryOff: true,
	}
	return cfg, func(x, y, z float64, s *State) {
		s.U, s.V, s.W = 12*u(x, y, z), 12*v(x, y, z), 12*w(x, y, z)
		s.T = 320 + 40*tm(x, y, z)
		s.Y[iO2] = 0.233 + 0.03*o2(x, y, z)
		s.Y[iN2] = 1 - s.Y[iO2]
	}
}

// parityFields are the fields the parity check compares: every conserved
// register and the temperature.
func parityFields(s *Simulation) []string {
	var names []string
	for _, fi := range s.Fields() {
		if fi.Role == "conserved" {
			names = append(names, fi.Name)
		}
	}
	return append(names, "T")
}

// TestDecompositionParityEverySeed runs the periodic air box serially and
// over 2×1×1 ranks at seeds 1–20, ten steps each filtered every five, and
// requires every conserved variable and T to end bit-equal. A ghost
// primitive is a copy of the owner's, so no rank's recovery depends on
// where the block was cut; a ghost temperature inversion seeded
// differently from the owner's would break this at some seeds.
func TestDecompositionParityEverySeed(t *testing.T) {
	if testing.Short() {
		t.Skip("forty runs of a 16³ box")
	}
	const steps = 10
	for seed := int64(1); seed <= 20; seed++ {
		cfg, init := airBox(t, seed)
		serial, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial.SetInitial(init, nil)
		serial.Advance(steps, 0.4*serial.StableDt())
		names := parityFields(serial)
		ref := make(map[string][]float64, len(names))
		for _, n := range names {
			if ref[n], _, err = serial.Field(n); err != nil {
				t.Fatal(err)
			}
		}

		var mu sync.Mutex
		var diffs []string
		err = RunDecomposed(cfg, [3]int{2, 1, 1}, func(r *RankSim) {
			r.SetInitial(init, nil)
			r.Advance(steps, 0.4*r.StableDt())
			for _, n := range names {
				got, dims, err := r.Field(n)
				if err != nil {
					panic(err)
				}
				bad, first := 0, ""
				for k := 0; k < dims[2]; k++ {
					for j := 0; j < dims[1]; j++ {
						for i := 0; i < dims[0]; i++ {
							g := got[(k*dims[1]+j)*dims[0]+i]
							gi, gj, gk := i+r.Offset[0], j+r.Offset[1], k+r.Offset[2]
							w := ref[n][(gk*r.GlobalDims[1]+gj)*r.GlobalDims[0]+gi]
							if math.Float64bits(g) != math.Float64bits(w) {
								if bad == 0 {
									first = fmt.Sprintf("(%d,%d,%d) %v vs serial %v", gi, gj, gk, g, w)
								}
								bad++
							}
						}
					}
				}
				if bad > 0 {
					mu.Lock()
					diffs = append(diffs, fmt.Sprintf("rank %d %s: %d points differ, first at %s", r.Rank, n, bad, first))
					mu.Unlock()
				}
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(diffs) > 0 {
			t.Errorf("seed %d: the 2x1x1 run is not bit-equal to the serial one:\n%v", seed, diffs)
		}
	}
}
