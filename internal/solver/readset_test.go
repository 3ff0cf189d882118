package solver

import (
	"fmt"
	"math"
	"testing"

	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
)

// poisonGhosts writes NaN into every ghost cell of f except the face slabs
// (exactly one index outside the interior) along the axes marked in keep.
func poisonGhosts(f *grid.Field3, keep [3]bool) {
	n := [3]int{f.Nx, f.Ny, f.Nz}
	g := f.Ghosts()
	var p [3]int
	for p[2] = -g[2]; p[2] < f.Nz+g[2]; p[2]++ {
		for p[1] = -g[1]; p[1] < f.Ny+g[1]; p[1]++ {
			for p[0] = -g[0]; p[0] < f.Nx+g[0]; p[0]++ {
				outside, axis := 0, -1
				for a := 0; a < 3; a++ {
					if p[a] < 0 || p[a] >= n[a] {
						outside++
						axis = a
					}
				}
				if outside == 0 || (outside == 1 && keep[axis]) {
					continue
				}
				f.Set(p[0], p[1], p[2], math.NaN())
			}
		}
	}
}

// poisonUnreadGhosts poisons everything the read-set rule (halo.go) says no
// stencil reads: every ghost cell of the transport properties, the edge and
// corner ghosts of the conserved, primitive and flux fields, and the ghost
// cells of flux[v][d] along the axes other than d. The rhs/dQ banks stay
// untouched: rkUpdateBank relies on their ghosts being exact zeros.
func poisonUnreadGhosts(b *Block) {
	none, faces := [3]bool{}, [3]bool{true, true, true}
	poisonGhosts(b.Mu, none)
	poisonGhosts(b.Lambda, none)
	for _, f := range b.D {
		poisonGhosts(f, none)
	}
	for _, f := range b.Q {
		poisonGhosts(f, faces)
	}
	for _, f := range append([]*grid.Field3{b.Rho, b.U, b.V, b.W, b.T, b.P, b.Wmix}, b.Y...) {
		poisonGhosts(f, faces)
	}
	for v := range b.flux {
		for _, d := range b.active {
			var along [3]bool
			along[d] = true
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

// checkReadSet proves on one block that computeRHS and ApplyFilter read no
// ghost cell outside the read-set: both must reproduce their interior
// results bit for bit, and finite, with every other ghost cell set to NaN.
func checkReadSet(b *Block) error {
	hotSpotIC(b)
	b.computeRHS(0) // fills every field once
	// Both compared evaluations restart the temperature Newton iteration
	// from the same seeds.
	seedT := append([]float64(nil), b.T.Data...)
	b.computeRHS(0)
	want, err := interiorBits("rhs", b.rhs)
	if err != nil {
		return err
	}
	copy(b.T.Data, seedT)
	poisonUnreadGhosts(b)
	b.computeRHS(0)
	got, err := interiorBits("rhs", b.rhs)
	if err != nil {
		return err
	}
	if err := sameBits("rhs", got, want); err != nil {
		return err
	}

	// The filter refills the ghosts it reads itself, one axis per pass.
	q0 := append([]float64(nil), b.qBank...)
	b.ApplyFilter()
	if want, err = interiorBits("filtered Q", b.Q); err != nil {
		return err
	}
	copy(b.qBank, q0)
	for _, f := range b.Q {
		poisonGhosts(f, [3]bool{})
	}
	b.ApplyFilter()
	if got, err = interiorBits("filtered Q", b.Q); err != nil {
		return err
	}
	return sameBits("filtered Q", got, want)
}

// TestGhostReadSet is the NaN-poison proof of the read-set rule for a serial
// periodic block and for decompositions with two cut axes (where the old
// X→Y→Z exchange filled edges and corners), in three dimensions and in two
// (one axis with neither ghost layers nor fields of its own), at one worker
// and at four.
func TestGhostReadSet(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pool := par.NewPool(workers)
		for _, c := range []struct {
			nz     int
			layout [][3]int
		}{
			{12, [][3]int{{1, 1, 1}, {2, 2, 1}, {1, 2, 2}}},
			{1, [][3]int{{1, 1, 1}, {2, 2, 1}}},
		} {
			cfg := reactiveConfig()
			cfg.Grid = grid.New(grid.Spec{Nx: 12, Ny: 12, Nz: c.nz, Lx: 0.003, Ly: 0.003, Lz: 0.003})
			cfg.Pool = pool
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
					t.Errorf("workers=%d grid 12x12x%d ranks=%v: %v", workers, c.nz, dims, err)
				}
			}
		}
		pool.Close()
	}
}
