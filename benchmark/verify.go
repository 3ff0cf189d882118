package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"math"
	"strings"

	s3d "github.com/s3dgo/s3d"
)

// snapshot is the global conserved bank and temperature of a run's state,
// flattened x-fastest over the global grid. Serial and decomposed runs fill
// the same layout, so every reduction below adds in the same order and a
// re-decomposed run of the same problem yields the same bits.
type snapshot struct {
	dims  [3]int
	names []string    // conserved field names, registry order
	cons  [][]float64 // [var][global point]
	temp  []float64
}

// conservedNames lists the registry's conserved fields in order.
func conservedNames(sim *s3d.Simulation) []string {
	var names []string
	for _, f := range sim.Fields() {
		if f.Role == "conserved" {
			names = append(names, f.Name)
		}
	}
	return names
}

func newSnapshot(names []string, dims [3]int) *snapshot {
	n := dims[0] * dims[1] * dims[2]
	s := &snapshot{dims: dims, names: names, cons: make([][]float64, len(names)), temp: make([]float64, n)}
	for v := range s.cons {
		s.cons[v] = make([]float64, n)
	}
	return s
}

// fill copies one block's interior into the global arrays at offset. Ranks
// of a decomposed run call it concurrently on disjoint regions. Rows stream
// out of the registry without an intermediate copy of the field.
func (s *snapshot) fill(sim *s3d.Simulation, offset [3]int) error {
	put := func(dst []float64, name string) error {
		rows, d, err := sim.FieldRows(name)
		if err != nil {
			return err
		}
		row := 0 // rows arrive in k-then-j order
		return rows(func(chunk []float64) error {
			j, k := row%d[1], row/d[1]
			at := ((offset[2]+k)*s.dims[1]+offset[1]+j)*s.dims[0] + offset[0]
			copy(dst[at:at+d[0]], chunk)
			row++
			return nil
		})
	}
	for v, name := range s.names {
		if err := put(s.cons[v], name); err != nil {
			return err
		}
	}
	return put(s.temp, "T")
}

// takeSnapshot captures a serial simulation.
func takeSnapshot(sim *s3d.Simulation) (*snapshot, error) {
	nx, ny, nz := sim.Dims()
	s := newSnapshot(conservedNames(sim), [3]int{nx, ny, nz})
	return s, s.fill(sim, [3]int{})
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// digest is a CRC-64 of the conserved bank's bits: equal digests mean
// bitwise-equal conserved states. Printed as information; only equality
// between two states of one run (restart round trip, armed against un-armed
// twin, serial against decomposed) is ever checked, never a stored value.
func (s *snapshot) digest() string {
	h := crc64.New(crcTable)
	buf := make([]byte, 8*4096)
	for _, field := range s.cons {
		for len(field) > 0 {
			n := min(len(field), len(buf)/8)
			for i, x := range field[:n] {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
			}
			h.Write(buf[:8*n])
			field = field[n:]
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// summary holds the scalar reductions the golden file pins, plus the
// extrema the band checks read.
type summary struct {
	Mass   float64 `json:"mass"`   // Σ ρ over grid points
	Energy float64 `json:"energy"` // Σ ρe₀
	SumT   float64 `json:"sum_t"`
	TMin   float64 `json:"t_min"`
	TMax   float64 `json:"t_max"`

	yMin, ySumMax float64 // transported mass fractions ρYᵢ/ρ: least value, largest Σ
	finite        bool
}

func (s *snapshot) summarize() summary {
	out := summary{TMin: math.Inf(1), TMax: math.Inf(-1), yMin: math.Inf(1), ySumMax: math.Inf(-1), finite: true}
	var rho, rhoE []float64
	var species [][]float64
	for v, name := range s.names {
		switch {
		case strings.HasSuffix(name, "_rho"):
			rho = s.cons[v]
		case strings.HasSuffix(name, "_rhoE"):
			rhoE = s.cons[v]
		case strings.Contains(name, "_rhoY_"):
			species = append(species, s.cons[v])
		}
	}
	for _, field := range s.cons {
		for _, x := range field {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				out.finite = false
			}
		}
	}
	for i, t := range s.temp {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			out.finite = false
		}
		out.SumT += t
		out.TMin = math.Min(out.TMin, t)
		out.TMax = math.Max(out.TMax, t)
		out.Mass += rho[i]
		out.Energy += rhoE[i]
		var ySum float64
		for _, ry := range species {
			y := ry[i] / rho[i]
			ySum += y
			out.yMin = math.Min(out.yMin, y)
		}
		out.ySumMax = math.Max(out.ySumMax, ySum)
	}
	return out
}

// bands are the physical limits a workload's final state must lie in. The
// temperature band and the 5 % mass-fraction band are the health layer's
// FATAL defaults; BenchmarkHealthOverhead widens only the two species bands
// (to 0.5 around the unit interval and the unit sum) for the under-resolved
// lifted flame, so the lifted workloads use those and nothing else is wider.
type bands struct {
	tLo, tHi float64
	yLo      float64 // least transported mass fraction allowed
	ySumHi   float64 // largest Σ of transported mass fractions allowed
}

var (
	defaultBands = bands{tLo: 50, tHi: 6000, yLo: -5e-2, ySumHi: 1 + 5e-2}
	liftedBands  = bands{tLo: 50, tHi: 6000, yLo: -0.5, ySumHi: 1.5}
)

// checker counts operations and failures for one run: every measured
// window, I/O cycle and verification check is one operation.
type checker struct {
	attempted, failed int
	failures          []string
}

// op records one operation; ok false makes it a failure with the message.
func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkState runs the state checks every workload shares.
func (c *checker) checkState(sm summary, b bands) {
	c.op(sm.finite, "state holds a NaN or Inf")
	c.op(sm.TMin >= b.tLo && sm.TMax <= b.tHi, "T in [%g, %g] leaves [%g, %g]", sm.TMin, sm.TMax, b.tLo, b.tHi)
	c.op(sm.yMin >= b.yLo && sm.ySumMax <= b.ySumHi,
		"mass fractions: least %g, largest sum %g leave [%g, %g]", sm.yMin, sm.ySumMax, b.yLo, b.ySumHi)
}

// relDiff is |a−b| relative to the larger magnitude.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

//go:embed golden.json
var goldenJSON []byte

// goldenTol is the relative agreement required with the golden reductions:
// loose enough for a change of summation order or a fused multiply-add,
// tight enough that a wrong coefficient or a skipped stage cannot pass.
const goldenTol = 1e-6

func loadGolden() (map[string]summary, error) {
	g := map[string]summary{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares sm with the pinned entry for key, if there is one.
func (c *checker) checkGolden(golden map[string]summary, key string, sm summary) (found bool) {
	want, ok := golden[key]
	if !ok {
		return false
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"mass", sm.Mass, want.Mass}, {"energy", sm.Energy, want.Energy}, {"sum_t", sm.SumT, want.SumT},
		{"t_min", sm.TMin, want.TMin}, {"t_max", sm.TMax, want.TMax},
	} {
		c.op(relDiff(f.got, f.want) <= goldenTol, "golden %s %s: got %.12g want %.12g", key, f.name, f.got, f.want)
	}
	return true
}
