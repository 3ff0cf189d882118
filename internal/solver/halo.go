package solver

import (
	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/grid"
)

// The read-set rule. A ghost cell is filled only if some stencil reads it,
// and every stencil in the solver is axis-aligned: the derivative and filter
// sweeps run over the interior and reach into the ghost layers along their
// own axis alone. A ghost cell is therefore read only when exactly one of
// its indices lies outside the interior (a face slab), and only along the
// axis that index belongs to:
//
//   - the primitives u, v, w, T, W and Yₙ (gradSrc, the halo group
//     "primitive") are differentiated along every axis by the flux stage, so
//     their six face slabs are filled — with copies of the owner's values,
//     exchanged after primitive recovery over the interior: no ghost cell
//     runs the temperature inversion, and a ghost primitive is bit-equal to
//     the one its owner computed;
//   - the conserved registers are filtered along every axis, so the filter
//     fills their six face slabs, one axis per pass; the RHS reads no ghost
//     cell of Q;
//   - ρ and p are read in the interior alone (the NSCBC planes differentiate
//     them along the normal of a physical face, one-sided) and are never
//     exchanged;
//   - flux[v][a] is differentiated along a alone (divergence), so the flux
//     exchange along axis a carries the nvar fields flux[·][a] and nothing
//     else;
//   - transport properties, gradients, J and the RK registers are never read
//     in a ghost cell and are never exchanged.
//
// Edge and corner ghosts (two or three indices outside) are never written,
// packed or sent, and never hold valid data. Exchanges along different axes
// touch disjoint storage and do not depend on each other. An axis of one
// point has no stencil along it, so no ghost layers (grid.AxisGhost), no
// fields of its own (registerFields) and empty lists here.

// haloLists holds the fields an exchange round fills along each axis; a nil
// entry — every one-point axis has one — skips the axis.
type haloLists [3][]*grid.Field3

// exchangeHalos fills the ghost face slabs of fields[a] along every axis a
// that has valid ghost data: halo exchange with neighbouring ranks through
// non-blocking sends/receives (the S3D ghost-zone construction, §2.6), or a
// local periodic wrap when the axis is periodic and undecomposed.
//
// All fields of an axis are packed into a single message per face, mirroring
// S3D's aggregated ~80 kB neighbour messages. Per-field work — the periodic
// wraps and the slab pack/unpack — runs as pool items: each field owns a
// disjoint ghost region or buffer segment, so fields proceed concurrently
// while the buffer layout stays field-major; with no such axis, no region.
func (b *Block) exchangeHalos(fields haloLists, tagBase int) {
	open := false
	for a := 0; a < 3; a++ {
		axis := grid.Axis(a)
		if len(fields[a]) == 0 || !b.loGhost[a] && !b.hiGhost[a] {
			continue
		}
		if !open {
			open = true
			defer b.beginRegion("GHOST_EXCHANGE").End()
		}
		loNb := b.cart.Neighbor(a, -1)
		hiNb := b.cart.Neighbor(a, +1)
		self := b.cart.Comm.Rank()
		if loNb == self && hiNb == self {
			// Periodic axis not decomposed (every serial periodic axis): the
			// rank is its own neighbour and wraps locally.
			b.wrapAll(fields[a], axis)
			continue
		}
		b.exchangeAxis(fields[a], a, loNb, hiNb, tagBase)
	}
}

// PackHaloGroupOnly serialises the low-face ghost-depth slab of what the
// exchange of a registry halo group ("conserved" or "flux") sends along axis
// a into the reusable halo buffer and returns the packed float count — the
// benchmark hook behind benchmark/'s solver.halo_pack_ns_per_float.*, timing
// exactly the pack kernel of one exchange message.
func (b *Block) PackHaloGroupOnly(group string, a int) int {
	fields := b.haloQ[a]
	if group == haloGroupFlux {
		fields = b.haloFlux[a]
	}
	per := b.slabSize(a) * grid.Ghost
	buf := b.haloBuffer(2, per*len(fields))
	b.packSlab(fields, a, 0, grid.Ghost, per, buf)
	return len(buf)
}

// slabJob is the wrap, pack or unpack a block's pool items are running. The
// item functions are bound once per block (newBlock) and read the job
// instead of capturing it, so a steady-state exchange allocates no closure;
// RunItems returns only when every item has run, so one job per block is
// enough.
type slabJob struct {
	fields []*grid.Field3
	axis   grid.Axis
	lo, hi [3]int
	per    int
	buf    []float64
}

// bindHaloItems binds the pool item functions of wrapAll, packSlab and
// unpackSlab.
func (b *Block) bindHaloItems() {
	b.wrapItem = func(item, _ int) { b.slab.fields[item].WrapPeriodic(b.slab.axis) }
	b.packItem = func(item, _ int) { b.slab.rows(item, true) }
	b.unpackItem = func(item, _ int) { b.slab.rows(item, false) }
}

// wrapAll applies the periodic wrap to every field, one pool item per field
// (each field's ghost layers are disjoint storage).
func (b *Block) wrapAll(fields []*grid.Field3, axis grid.Axis) {
	b.slab = slabJob{fields: fields, axis: axis}
	b.plan.RunItems("GHOST_EXCHANGE", len(fields), b.wrapItem)
}

// haloBuffer returns the idx-th reusable slab buffer with length n, growing
// it on demand (hoisted allocation: steady-state exchanges allocate nothing).
func (b *Block) haloBuffer(idx, n int) []float64 {
	if cap(b.haloBuf[idx]) < n {
		b.haloBuf[idx] = make([]float64, n)
	}
	return b.haloBuf[idx][:n]
}

// exchangeAxis performs the two-sided slab exchange along one axis.
func (b *Block) exchangeAxis(fields []*grid.Field3, a, loNb, hiNb, tagBase int) {
	c := b.cart.Comm
	g := grid.Ghost
	per := b.slabSize(a) * g // per-field slab points
	slab := per * len(fields)
	tagLo := tagBase + a*2     // message arriving at a low face
	tagHi := tagBase + a*2 + 1 // message arriving at a high face

	// At most two receives and two sends; a fixed array keeps the
	// steady-state exchange allocation-free.
	var reqs [4]*comm.Request
	nr := 0
	var recvLo, recvHi []float64
	if loNb >= 0 {
		recvLo = b.haloBuffer(0, slab)
		reqs[nr] = c.Irecv(loNb, tagLo, recvLo)
		nr++
	}
	if hiNb >= 0 {
		recvHi = b.haloBuffer(1, slab)
		reqs[nr] = c.Irecv(hiNb, tagHi, recvHi)
		nr++
	}
	if loNb >= 0 {
		buf := b.haloBuffer(2, slab)
		b.packSlab(fields, a, 0, g, per, buf) // my low interior → neighbour's high ghosts
		reqs[nr] = c.Isend(loNb, tagHi, buf)
		nr++
	}
	if hiNb >= 0 {
		buf := b.haloBuffer(3, slab)
		b.packSlab(fields, a, b.dimOf(a)-g, g, per, buf) // my high interior → neighbour's low ghosts
		reqs[nr] = c.Isend(hiNb, tagLo, buf)
		nr++
	}
	// Figure 2's MPI_WAIT is the time comm stamped this rank blocked: it
	// moves out of GHOST_EXCHANGE, as the MPI_WAIT spans sit under it.
	b.Timers.Charge("GHOST_EXCHANGE", "MPI_WAIT", comm.WaitAll(reqs[:nr]...))
	if loNb >= 0 {
		b.unpackSlab(fields, a, -g, g, per, recvLo)
	}
	if hiNb >= 0 {
		b.unpackSlab(fields, a, b.dimOf(a), g, per, recvHi)
	}
}

func (b *Block) dimOf(a int) int {
	switch a {
	case 0:
		return b.G.Nx
	case 1:
		return b.G.Ny
	default:
		return b.G.Nz
	}
}

// slabSize returns the number of points in one ghost layer of the axis: the
// interior cross-section of the other two axes.
func (b *Block) slabSize(a int) int {
	return b.G.Nx * b.G.Ny * b.G.Nz / b.dimOf(a)
}

// slabBox returns the index box of layers [start, start+depth) along axis a
// over the interior cross-section of the other two axes.
func (b *Block) slabBox(a, start, depth int) (lo, hi [3]int) {
	hi = [3]int{b.G.Nx, b.G.Ny, b.G.Nz}
	lo[a], hi[a] = start, start+depth
	return lo, hi
}

// packSlab serialises layers [start, start+depth) along axis a for every
// field in order, one pool item per field writing its own buffer segment of
// per points (field-major). Within a segment the slab is laid out k-j-i, one
// contiguous row copy per (j, k); unpackSlab walks the same order.
func (b *Block) packSlab(fields []*grid.Field3, a, start, depth, per int, buf []float64) {
	lo, hi := b.slabBox(a, start, depth)
	b.slab = slabJob{fields: fields, lo: lo, hi: hi, per: per, buf: buf}
	b.plan.RunItems("GHOST_EXCHANGE", len(fields), b.packItem)
}

// unpackSlab is the inverse of packSlab.
func (b *Block) unpackSlab(fields []*grid.Field3, a, start, depth, per int, buf []float64) {
	lo, hi := b.slabBox(a, start, depth)
	b.slab = slabJob{fields: fields, lo: lo, hi: hi, per: per, buf: buf}
	b.plan.RunItems("GHOST_EXCHANGE", len(fields), b.unpackItem)
}

// rows copies field item's slab rows into its buffer segment (pack) or back
// (unpack).
func (s *slabJob) rows(item int, pack bool) {
	f := s.fields[item]
	pos := item * s.per
	n := s.hi[0] - s.lo[0]
	for k := s.lo[2]; k < s.hi[2]; k++ {
		for j := s.lo[1]; j < s.hi[1]; j++ {
			row := f.Idx(s.lo[0], j, k)
			if pack {
				copy(s.buf[pos:pos+n], f.Data[row:row+n])
			} else {
				copy(f.Data[row:row+n], s.buf[pos:pos+n])
			}
			pos += n
		}
	}
}
