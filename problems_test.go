package s3d

import (
	"bytes"
	"hash/fnv"
	"math"
	"testing"
)

// TestProblemConstantsPinned holds the case builders and the 0-D reactor to
// the bits recorded when the §6.2 and §7.2 physics (extents, slot width,
// stream speeds and temperatures, inflow intensity, φ, reactant temperature,
// the Bunsen velocity scale) and the reactor's step controls were still
// settable fields filled by defaults: each initial state's restart-file
// digest and the ignition delay of a lean H2/air mixture at the 1100 K
// coflow temperature.
func TestProblemConstantsPinned(t *testing.T) {
	lifted := func(nx, ny, nz int) func() (*Problem, error) {
		return func() (*Problem, error) {
			return LiftedJetProblem(LiftedJetOptions{Nx: nx, Ny: ny, Nz: nz, IgnitionKernel: true, Seed: 3})
		}
	}
	bunsen := func(c byte) func() (*Problem, error) {
		return func() (*Problem, error) {
			return BunsenProblem(BunsenOptions{Case: c, Nx: 24, Ny: 18, Nz: 1, Seed: 5})
		}
	}
	for _, c := range []struct {
		name  string
		build func() (*Problem, error)
		want  uint64
	}{
		{"lifted 24x16x1", lifted(24, 16, 1), 0x709c2d414c056570},
		{"lifted 12x10x4", lifted(12, 10, 4), 0xc5aa84121c071ea2},
		{"bunsen A", bunsen('A'), 0xf431c7533d65e8a4},
		{"bunsen B", bunsen('B'), 0x995e3aa6b781e6b4},
		{"bunsen C", bunsen('C'), 0x0c568c102fe05955},
	} {
		p, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sim, err := p.NewSimulation()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var buf bytes.Buffer
		if err := sim.SaveCheckpoint(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: initial-state digest %#016x, recorded %#016x", c.name, got, c.want)
		}
	}

	m := HydrogenAir()
	y := make([]float64, m.NumSpecies())
	y[m.SpeciesIndex("H2")], y[m.SpeciesIndex("O2")], y[m.SpeciesIndex("N2")] = 0.02, 0.228, 0.752
	tau, err := m.IgnitionDelay(1100, 101325, y, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(tau), uint64(0x3f1432e987839354); got != want {
		t.Errorf("ignition delay %g s: bits %#016x, recorded %#016x", tau, got, want)
	}
}
