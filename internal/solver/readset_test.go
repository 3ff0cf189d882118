package solver

import (
	"fmt"
	"math"
	"testing"

	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
)

// poisonGhosts writes NaN into every ghost cell of f except the face slabs
// (exactly one index outside the interior) on the sides marked in keep.
func poisonGhosts(f *grid.Field3, keep [3][2]bool) {
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
				f.Set(p[0], p[1], p[2], math.NaN())
			}
		}
	}
}

// poisonUnreadGhosts poisons everything the read-set rule (halo.go) says the
// RHS does not read: every ghost cell of the conserved registers (the RHS
// reads Q in the interior alone; only the filter exchanges it), of ρ and of
// p, the edge and corner ghosts of the exchanged primitives and the face
// slabs of a physical (one-sided) face, and the ghost cells of flux[v][d]
// along the axes other than d. The rhs/dQ banks stay untouched: rkUpdateBank
// relies on their ghosts being exact zeros.
func poisonUnreadGhosts(b *Block) {
	var faces [3][2]bool
	for a := 0; a < 3; a++ {
		faces[a] = [2]bool{b.loGhost[a], b.hiGhost[a]}
	}
	for _, f := range append([]*grid.Field3{b.Rho, b.P}, b.Q...) {
		poisonGhosts(f, [3][2]bool{})
	}
	for _, f := range b.gradSrc {
		poisonGhosts(f, faces)
	}
	for v := range b.flux {
		for _, d := range b.active {
			var along [3][2]bool
			along[d] = faces[d]
			poisonGhosts(b.flux[v][d], along)
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
		g := f.Ghosts()
		for k := -g[2]; k < f.Nz+g[2]; k++ {
			for j := -g[1]; j < f.Ny+g[1]; j++ {
				for i := -g[0]; i < f.Nx+g[0]; i++ {
					inside := i >= 0 && i < f.Nx && j >= 0 && j < f.Ny && k >= 0 && k < f.Nz
					if !inside && !math.IsNaN(f.At(i, j, k)) {
						return fmt.Errorf("the RHS wrote ghost cell (%d,%d,%d) of Q[%d]: only the filter exchanges Q", i, j, k, v)
					}
				}
			}
		}
	}

	// The filter refills the ghosts it reads itself, one axis per pass.
	q0 := append([]float64(nil), b.qBank...)
	b.ApplyFilter()
	if want, err = interiorBits("filtered Q", b.Q); err != nil {
		return err
	}
	copy(b.qBank, q0)
	for _, f := range b.Q {
		poisonGhosts(f, [3][2]bool{})
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
