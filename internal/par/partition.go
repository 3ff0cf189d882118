package par

import "math"

// Partition is the deterministic tile decomposition of one sweep box: the
// grain of RunSlots/RunReduce bodies and the definition of the
// reduction-slot order. It is a pure function of (box, frozen axis, weight
// profile, budget) — never of the worker count or any wall-clock input — so
// the tile set, the tile order and with them every ordered reduction are
// bitwise reproducible across pool sizes and runs. (Plans schedule blocks
// of consecutive partition tiles; only that grouping follows the pool.)
//
// Unweighted (nil profile) the partition is one tile per plane along the
// split axis (splitAxis: the slowest axis with extent > 1, so planes are
// whole x-rows). A per-plane weight profile turns it into a cost-weighted
// decomposition: expensive planes are split along a secondary axis and
// cheap neighbouring planes are merged into one tile, targeting roughly
// equal planned work per tile.
type Partition struct {
	r  Range
	ax int // one-plane split axis (unweighted path); -1 = single tile
	n  int // tile count

	tiles []Tile    // explicit tiles (weighted path only)
	w     []float64 // planned per-tile weight (weighted path only)
}

// hotTol is the fractional overshoot tolerated before a plane is split or a
// merge run is flushed: budgets derive from floating-point means, so an
// exactly-uniform profile must not split (or refuse to merge) over a
// rounding ulp. 1/8 is far above any accumulated rounding error and far
// below a meaningful imbalance.
const hotTol = 1.125

// NewPartition computes the deterministic decomposition of r with one axis
// optionally frozen (-1 for none). weights, when non-nil, is the per-plane
// work profile along the split axis (length must equal the axis extent;
// profiles of the wrong length, with non-finite or negative entries, or
// summing to zero fall back to the unweighted split). budget, when positive,
// is an externally imposed target weight per tile — the solver passes the
// global mean plane weight so ranks with little work merge their cheap
// planes into few tiles instead of emitting many near-empty ones; the
// effective per-tile budget is never below the local mean, so a uniform
// profile always degrades to the one-plane split regardless of budget.
func NewPartition(r Range, frozen int, weights []float64, budget float64) *Partition {
	p := &Partition{r: r, ax: -1, n: 1}
	if r.Empty() {
		p.n = 0
		return p
	}
	p.ax = splitAxis(r, frozen)
	if p.ax >= 0 {
		p.n = r.Ext(p.ax)
	}
	ext := p.n
	if weights == nil || p.ax < 0 || len(weights) != ext {
		return p
	}
	var total float64
	for _, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return p
		}
		total += w
	}
	if total <= 0 {
		return p
	}
	mean := total / float64(ext)
	// The per-tile work target: at least the local mean plane weight (so a
	// uniform profile keeps its plane-per-tile split), raised to the caller's
	// global budget when that is larger.
	b := mean
	if budget > b {
		b = budget
	}
	// Secondary axis for splitting hot planes: the split axis of a plane,
	// so the pieces keep whole x-rows too whenever the plane allows.
	sax, sext := splitAxis(tileOf(r, p.ax, 0).Range, frozen), 1
	if sax >= 0 {
		sext = r.Ext(sax)
	}
	hot := hotTol * b

	tiles := make([]Tile, 0, ext)
	tw := make([]float64, 0, ext)
	runLo := r.Lo[p.ax]
	var cum float64
	flush := func(hi int) {
		if hi <= runLo {
			return
		}
		t := Tile{Range: r, Index: len(tiles)}
		t.Lo[p.ax], t.Hi[p.ax] = runLo, hi
		tiles = append(tiles, t)
		tw = append(tw, cum)
		runLo, cum = hi, 0
	}
	for pi := 0; pi < ext; pi++ {
		plane := r.Lo[p.ax] + pi
		w := weights[pi]
		if w > hot && sax >= 0 {
			// Hot plane: close the pending merge run, then cut the plane
			// into roughly budget-sized spans along the secondary axis.
			flush(plane)
			m := int(math.Ceil(w / b))
			if m > sext {
				m = sext
			}
			slo := r.Lo[sax]
			for s := 0; s < m; s++ {
				a, bnd := slo+s*sext/m, slo+(s+1)*sext/m
				t := Tile{Range: r, Index: len(tiles)}
				t.Lo[p.ax], t.Hi[p.ax] = plane, plane+1
				t.Lo[sax], t.Hi[sax] = a, bnd
				tiles = append(tiles, t)
				tw = append(tw, w*float64(bnd-a)/float64(sext))
			}
			runLo = plane + 1
			continue
		}
		if cum > 0 && cum+w > hot {
			flush(plane)
		}
		cum += w
	}
	flush(r.Hi[p.ax])
	p.tiles, p.w, p.n = tiles, tw, len(tiles)
	return p
}

// Len returns the tile count — the length every ordered reduction over this
// partition uses.
func (p *Partition) Len() int { return p.n }

// Weighted reports whether a weight profile shaped the decomposition.
func (p *Partition) Weighted() bool { return p.tiles != nil }

// Tile returns tile i in deterministic index order (Tile(i).Index == i).
func (p *Partition) Tile(i int) Tile {
	if p.tiles != nil {
		return p.tiles[i]
	}
	return tileOf(p.r, p.ax, i)
}

// Tiles returns the explicit tile list in index order (materialising it on
// the unweighted path).
func (p *Partition) Tiles() []Tile {
	if p.tiles != nil {
		return p.tiles
	}
	out := make([]Tile, p.n)
	for i := range out {
		out[i] = tileOf(p.r, p.ax, i)
	}
	return out
}

// Weight returns tile i's planned weight: the profile mass it covers on the
// weighted path, its cell count otherwise.
func (p *Partition) Weight(i int) float64 {
	if p.w != nil {
		return p.w[i]
	}
	return float64(p.Cells(i))
}

// Cells returns tile i's cell count.
func (p *Partition) Cells(i int) int {
	t := p.Tile(i)
	return t.Ext(0) * t.Ext(1) * t.Ext(2)
}
