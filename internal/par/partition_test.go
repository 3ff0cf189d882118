package par

import (
	"math/rand"
	"sync"
	"testing"
)

// coverCheck asserts the partition's tiles cover r exactly: every cell in
// exactly one tile, Tile(i).Index == i, and weights non-negative.
func coverCheck(t *testing.T, r Range, p *Partition) {
	t.Helper()
	nx, ny, nz := r.Ext(0), r.Ext(1), r.Ext(2)
	seen := make([]int, nx*ny*nz)
	for i := 0; i < p.Len(); i++ {
		tl := p.Tile(i)
		if tl.Index != i {
			t.Fatalf("tile %d has Index %d", i, tl.Index)
		}
		if p.Weight(i) < 0 {
			t.Fatalf("tile %d has negative planned weight %g", i, p.Weight(i))
		}
		for k := tl.Lo[2]; k < tl.Hi[2]; k++ {
			for j := tl.Lo[1]; j < tl.Hi[1]; j++ {
				for ii := tl.Lo[0]; ii < tl.Hi[0]; ii++ {
					if ii < r.Lo[0] || ii >= r.Hi[0] || j < r.Lo[1] || j >= r.Hi[1] ||
						k < r.Lo[2] || k >= r.Hi[2] {
						t.Fatalf("tile %d cell (%d,%d,%d) outside box %v", i, ii, j, k, r)
					}
					idx := ((k-r.Lo[2])*ny+(j-r.Lo[1]))*nx + (ii - r.Lo[0])
					seen[idx]++
				}
			}
		}
	}
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("cell %d covered %d times", idx, c)
		}
	}
}

// TestPartitionExactCover fuzzes boxes, profiles and budgets: weighted
// decompositions must tile the box with no gaps and no overlaps.
func TestPartitionExactCover(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		r := Box(
			[3]int{rng.Intn(4), rng.Intn(4), rng.Intn(4)},
			[3]int{0, 0, 0},
		)
		for a := 0; a < 3; a++ {
			r.Hi[a] = r.Lo[a] + 1 + rng.Intn(24)
		}
		frozen := rng.Intn(4) - 1 // -1..2
		ax := splitAxis(r, frozen)
		if ax < 0 {
			continue
		}
		w := make([]float64, r.Ext(ax))
		for i := range w {
			switch rng.Intn(4) {
			case 0:
				w[i] = 0
			case 1:
				w[i] = rng.Float64()
			default:
				w[i] = rng.Float64() * float64(rng.Intn(200))
			}
		}
		budget := 0.0
		if rng.Intn(2) == 0 {
			budget = rng.Float64() * 300
		}
		p := NewPartition(r, frozen, w, budget)
		coverCheck(t, r, p)
		// Planned tile weights must conserve the profile mass.
		var total, planned float64
		for _, v := range w {
			total += v
		}
		for i := 0; i < p.Len(); i++ {
			planned += p.Weight(i)
		}
		if total > 0 {
			if rel := (planned - total) / total; rel > 1e-9 || rel < -1e-9 {
				t.Fatalf("trial %d: planned weight %g != profile total %g", trial, planned, total)
			}
		}
	}
}

// TestPartitionUniformDegradesToPlanes pins the compatibility contract: a
// uniform profile (any positive constant, any budget at or below the plane
// weight) reproduces the one-plane split exactly, so enabling weights with
// nothing learned changes nothing.
func TestPartitionUniformDegradesToPlanes(t *testing.T) {
	boxes := []Range{
		Interior(32, 24, 1),
		Interior(7, 5, 3),
		Interior(2, 2, 1),
		Interior(1, 1, 16),
		Box([3]int{3, 1, 2}, [3]int{19, 9, 4}),
	}
	consts := []float64{1, 16, 0.37, 1e6}
	for _, r := range boxes {
		ax := splitAxis(r, -1)
		if ax < 0 {
			continue
		}
		for _, c := range consts {
			w := make([]float64, r.Ext(ax))
			for i := range w {
				w[i] = c
			}
			for _, budget := range []float64{0, c / 2, c} {
				p := NewPartition(r, -1, w, budget)
				if p.Len() != r.Ext(ax) {
					t.Fatalf("box %v const %g budget %g: %d tiles, want %d planes",
						r, c, budget, p.Len(), r.Ext(ax))
				}
				for i := 0; i < p.Len(); i++ {
					if p.Tile(i) != tileOf(r, ax, i) {
						t.Fatalf("box %v const %g: tile %d = %+v, want plane %+v",
							r, c, i, p.Tile(i), tileOf(r, ax, i))
					}
				}
			}
		}
	}
}

// TestPartitionWorkerCountInvariance runs a weighted sweep on 1-worker and
// 4-worker plans: the executed tile sets, the reduction order and the
// reduced sum must be identical — the partition is a pure function of (box,
// weights), never of the pool.
func TestPartitionWorkerCountInvariance(t *testing.T) {
	r := Interior(16, 24, 1)
	w := make([]float64, 24)
	for i := range w {
		w[i] = float64(1 + (i*i)%37)
	}
	w[7] = 400 // hot plane: forces a secondary-axis split
	type run struct {
		tiles []Tile
		sum   float64
	}
	exec := func(workers int) run {
		pl := NewPlan(NewPool(workers))
		defer pl.Pool().Close()
		pl.SetWeights("K", w, 0)
		var mu sync.Mutex
		var out run
		out.sum = pl.RunReduce("K", r, func(tl Tile, _ int) float64 {
			mu.Lock()
			out.tiles = append(out.tiles, tl)
			mu.Unlock()
			return float64(tl.Index) * 1.25
		})
		return out
	}
	a, b := exec(1), exec(4)
	if len(a.tiles) != len(b.tiles) {
		t.Fatalf("tile count differs: %d vs %d", len(a.tiles), len(b.tiles))
	}
	sortTiles(a.tiles)
	sortTiles(b.tiles)
	for i := range a.tiles {
		if a.tiles[i] != b.tiles[i] {
			t.Fatalf("tile %d differs: %+v vs %+v", i, a.tiles[i], b.tiles[i])
		}
	}
	if a.sum != b.sum {
		t.Fatalf("reduced sum differs: %v vs %v", a.sum, b.sum)
	}
	// The hot plane must actually have been split.
	split := false
	for _, tl := range a.tiles {
		if tl.Lo[1] == 7 && tl.Hi[1] == 8 && tl.Ext(0) < 16 {
			split = true
		}
	}
	if !split {
		t.Fatalf("hot plane 7 was not split: %+v", a.tiles)
	}
}

// TestPartitionBudgetMergesCheapPlanes pins the cross-rank sizing rule: a
// rank whose profile is far below the global budget merges its planes into
// few tiles instead of emitting one tiny tile per plane.
func TestPartitionBudgetMergesCheapPlanes(t *testing.T) {
	r := Interior(16, 24, 1)
	w := make([]float64, 24)
	for i := range w {
		w[i] = 16 // cold rank: proxy floor only
	}
	p := NewPartition(r, -1, w, 1000)
	if p.Len() > 1 {
		t.Fatalf("cold rank under global budget: %d tiles, want 1", p.Len())
	}
	coverCheck(t, r, p)
}

// sortTiles orders tiles by Index (stable across pool schedules).
func sortTiles(ts []Tile) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Index < ts[j-1].Index; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
