package solver

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
)

// setGhosts writes x into every ghost cell of f except the face slabs
// (exactly one index outside the interior) on the sides marked in keep.
func setGhosts(f *grid.Field3, keep [3][2]bool, x float64) {
	n := [3]int{f.Nx, f.Ny, f.Nz}
	g := f.Ghosts()
	var p [3]int
	for p[2] = -g[2]; p[2] < f.Nz+g[2]; p[2]++ {
		for p[1] = -g[1]; p[1] < f.Ny+g[1]; p[1]++ {
			for p[0] = -g[0]; p[0] < f.Nx+g[0]; p[0]++ {
				outside, axis, side := 0, -1, 0
				for a := 0; a < 3; a++ {
					if p[a] < 0 || p[a] >= n[a] {
						outside++
						axis, side = a, 0
						if p[a] >= n[a] {
							side = 1
						}
					}
				}
				if outside == 0 || (outside == 1 && keep[axis][side]) {
					continue
				}
				f.Set(p[0], p[1], p[2], x)
			}
		}
	}
}

// strayGhost returns the first ghost cell of f whose bits differ from x's,
// and false when every ghost cell holds x.
func strayGhost(f *grid.Field3, x float64) ([3]int, bool) {
	g := f.Ghosts()
	for k := -g[2]; k < f.Nz+g[2]; k++ {
		for j := -g[1]; j < f.Ny+g[1]; j++ {
			for i := -g[0]; i < f.Nx+g[0]; i++ {
				inside := i >= 0 && i < f.Nx && j >= 0 && j < f.Ny && k >= 0 && k < f.Nz
				if !inside && math.Float64bits(f.At(i, j, k)) != math.Float64bits(x) {
					return [3]int{i, j, k}, true
				}
			}
		}
	}
	return [3]int{}, false
}

// poisonUnreadGhosts poisons everything the read-set rule (halo.go) says the
// RHS does not read: every ghost cell of the conserved registers (the RHS
// reads Q in the interior alone; only the filter exchanges it), of ρ and of
// p, the edge and corner ghosts of the exchanged primitives and the face
// slabs of a physical (one-sided) face, the ghost cells of flux[v][d]
// along the axes other than d, and every ghost cell of the dQ and rhs
// registers.
func poisonUnreadGhosts(b *Block) {
	var faces [3][2]bool
	for a := 0; a < 3; a++ {
		faces[a] = [2]bool{b.loGhost[a], b.hiGhost[a]}
	}
	for _, f := range slices.Concat([]*grid.Field3{b.Rho, b.P}, b.Q, b.dQ, b.rhs) {
		setGhosts(f, [3][2]bool{}, math.NaN())
	}
	for _, f := range b.gradSrc {
		setGhosts(f, faces, math.NaN())
	}
	for v := range b.flux {
		for _, d := range b.active {
			var along [3][2]bool
			along[d] = faces[d]
			setGhosts(b.flux[v][d], along, math.NaN())
		}
	}
}

// interiorBits returns the interior bit patterns of the fields, or an error
// naming the first non-finite value.
func interiorBits(name string, fields []*grid.Field3) ([]uint64, error) {
	var bits []uint64
	for v, f := range fields {
		var bad error
		f.Each(func(i, j, k int, x float64) {
			if bad == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
				bad = fmt.Errorf("%s[%d] not finite at (%d,%d,%d): %g", name, v, i, j, k, x)
			}
			bits = append(bits, math.Float64bits(x))
		})
		if bad != nil {
			return nil, bad
		}
	}
	return bits, nil
}

func sameBits(what string, got, want []uint64) error {
	for p := range want {
		if got[p] != want[p] {
			return fmt.Errorf("%s differs at flat %d after poisoning the unread ghosts: %x vs %x",
				what, p, got[p], want[p])
		}
	}
	return nil
}

// checkReadSet proves on one block that EvalRHS and ApplyFilter read no
// ghost cell outside the read-set: both must reproduce their interior
// results bit for bit, and finite, with every other ghost cell set to NaN —
// for the RHS, every ghost cell of Q included.
func checkReadSet(b *Block) error {
	hotSpotIC(b)
	b.EvalRHS(0) // fills every field once
	// Both compared evaluations restart the temperature Newton iteration
	// from the same seeds.
	seedT := append([]float64(nil), b.T.Data...)
	b.EvalRHS(0)
	want, err := interiorBits("rhs", b.rhs)
	if err != nil {
		return err
	}
	copy(b.T.Data, seedT)
	poisonUnreadGhosts(b)
	b.EvalRHS(0)
	got, err := interiorBits("rhs", b.rhs)
	if err != nil {
		return err
	}
	if err := sameBits("rhs", got, want); err != nil {
		return err
	}
	// Nor does the RHS exchange Q: its ghost cells still hold the poison.
	for v, f := range b.Q {
		if p, ok := strayGhost(f, math.NaN()); ok {
			return fmt.Errorf("the RHS wrote ghost cell %v of Q[%d]: only the filter exchanges Q", p, v)
		}
	}

	// The filter refills the ghosts it reads itself, one axis per pass.
	q0 := make([][]float64, len(b.Q))
	for v, f := range b.Q {
		q0[v] = slices.Clone(f.Data)
	}
	b.ApplyFilter()
	if want, err = interiorBits("filtered Q", b.Q); err != nil {
		return err
	}
	for v, f := range b.Q {
		copy(f.Data, q0[v])
		setGhosts(f, [3][2]bool{}, math.NaN())
	}
	b.ApplyFilter()
	if got, err = interiorBits("filtered Q", b.Q); err != nil {
		return err
	}
	return sameBits("filtered Q", got, want)
}

// TestGhostReadSet is the NaN-poison proof of the read-set rule — the
// primitive exchange in place of any ghost read of Q, the pencil-fused flux
// stage's derivative rows, the divergence, the NSCBC planes' normal
// derivatives and the filter — for a serial periodic block
// and for decompositions with two cut axes (where the old X→Y→Z exchange
// filled edges and corners), in three dimensions and in two (one axis with
// neither ghost layers nor fields of its own), periodic and as a jet with
// characteristic inflow and outflow faces (whose face slabs no stencil
// reads), at one worker and at four.
func TestGhostReadSet(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pool := par.NewPool(workers)
		for _, c := range []struct {
			nz     int
			jet    bool
			layout [][3]int
		}{
			{12, false, [][3]int{{1, 1, 1}, {2, 2, 1}, {1, 2, 2}}},
			{1, false, [][3]int{{1, 1, 1}, {2, 2, 1}}},
			{12, true, [][3]int{{1, 1, 1}, {2, 2, 1}}},
			{1, true, [][3]int{{1, 1, 1}, {2, 1, 1}}},
		} {
			cfg := reactiveConfig()
			cfg.Grid = grid.New(grid.Spec{Nx: 12, Ny: 12, Nz: c.nz, Lx: 0.003, Ly: 0.003, Lz: 0.003})
			cfg.Pool = pool
			if c.jet {
				cfg.BC = [3][2]BCType{{InflowNSCBC, OutflowNSCBC}, {OutflowNSCBC, OutflowNSCBC}, {Periodic, Periodic}}
				yIn := degenerateY(cfg, 0)
				cfg.Inflow = func(y, z, t float64, tgt *InflowState) {
					tgt.U, tgt.V, tgt.W = 2, 0, 0
					tgt.T = 700
					copy(tgt.Y, yIn)
				}
			}
			for _, dims := range c.layout {
				var err error
				if dims == [3]int{1, 1, 1} {
					var b *Block
					if b, err = NewSerial(cfg); err == nil {
						err = checkReadSet(b)
					}
				} else {
					err = RunParallel(cfg, dims, func(b *Block) {
						if err := checkReadSet(b); err != nil {
							panic(err)
						}
					})
				}
				if err != nil {
					t.Errorf("workers=%d grid 12x12x%d jet=%v ranks=%v: %v", workers, c.nz, c.jet, dims, err)
				}
			}
		}
		pool.Close()
	}
}

// TestRKUpdateLeavesGhosts: the RK update reads and writes the registers'
// interior alone. With every ghost cell of Q, dQ and rhs set to a finite
// sentinel, two unfiltered steps leave interior Q bit-equal to an unmarked
// twin's and every one of those ghost cells holding the sentinel — on a
// serial periodic box, on each rank of the box cut 2×1×1 and on a jet with
// characteristic inflow and outflow faces.
func TestRKUpdateLeavesGhosts(t *testing.T) {
	const sentinel = 7.25
	for _, c := range []struct {
		name string
		jet  bool
		dims [3]int
	}{
		{"periodic", false, [3]int{1, 1, 1}},
		{"periodic 2x1x1", false, [3]int{2, 1, 1}},
		{"jet", true, [3]int{1, 1, 1}},
	} {
		run := func(mark bool) ([][]uint64, error) {
			cfg := reactiveConfig()
			cfg.FilterEvery = 0
			if c.jet {
				cfg.BC = [3][2]BCType{{InflowNSCBC, OutflowNSCBC}, {OutflowNSCBC, OutflowNSCBC}, {Periodic, Periodic}}
				yIn := degenerateY(cfg, 0)
				cfg.Inflow = func(y, z, t float64, tgt *InflowState) {
					tgt.U, tgt.V, tgt.W = 2, 0, 0
					tgt.T = 700
					copy(tgt.Y, yIn)
				}
			}
			bits := make([][]uint64, c.dims[0]*c.dims[1]*c.dims[2])
			body := func(b *Block) error {
				hotSpotIC(b)
				regs := slices.Concat(b.Q, b.dQ, b.rhs)
				if mark {
					for _, f := range regs {
						setGhosts(f, [3][2]bool{}, sentinel)
					}
				}
				for s := 0; s < 2; s++ {
					if err := b.StepChecked(2e-8); err != nil {
						return err
					}
				}
				q, err := interiorBits("Q", b.Q)
				if err != nil {
					return err
				}
				bits[b.Rank()] = q
				if !mark {
					return nil
				}
				for id, f := range regs {
					if p, ok := strayGhost(f, sentinel); ok {
						return fmt.Errorf("rank %d: ghost cell %v of %s[%d] holds %g, not the sentinel",
							b.Rank(), p, [3]string{"Q", "dQ", "rhs"}[id/b.nvar], id%b.nvar, f.At(p[0], p[1], p[2]))
					}
				}
				return nil
			}
			if c.dims == [3]int{1, 1, 1} {
				b, err := NewSerial(cfg)
				if err != nil {
					return nil, err
				}
				return bits, body(b)
			}
			return bits, RunParallel(cfg, c.dims, func(b *Block) {
				if err := body(b); err != nil {
					panic(err)
				}
			})
		}
		want, err := run(false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := run(true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for r := range want {
			if err := sameBits(fmt.Sprintf("%s rank %d: interior Q", c.name, r), got[r], want[r]); err != nil {
				t.Error(err)
			}
		}
	}
}
