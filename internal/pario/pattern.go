// Package pario reproduces the parallel-I/O study of paper §5: the S3D-I/O
// checkpoint kernel (figure 8's block-block-block partitioning of four
// global arrays), a parallel file system model with stripe-granular locking
// (Lustre- and GPFS-like configurations), and the four write paths of
// figure 9 — Fortran file-per-process I/O, native collective (two-phase)
// MPI-I/O, collective I/O with MPI-I/O caching, and independent I/O with
// two-stage write-behind buffering — together with a byte-exact data path
// that materialises the canonical global file image for verification.
package pario

// Doubles are 8 bytes everywhere, as in the paper's checkpoint ("8 B 3D
// arrays").
const wordBytes = 8

// Kernel describes the S3D-I/O checkpoint of §5.3: four global arrays
// (mass ×11, velocity ×3, pressure ×1, temperature ×1 in the fourth
// dimension) over an NX×NY×NZ mesh partitioned block-block-block over a
// Px×Py×Pz process grid. The per-process block is 50×50×50 in the paper,
// producing ≈15.26 MB per process per checkpoint.
type Kernel struct {
	NxP, NyP, NzP int // per-process block
	Px, Py, Pz    int // process grid
}

// arrayComps lists the fourth-dimension lengths of the four checkpoint
// arrays: mass, velocity, pressure, temperature (paper §5.3).
var arrayComps = [4]int{11, 3, 1, 1}

// NumProcs returns the process count.
func (k Kernel) NumProcs() int { return k.Px * k.Py * k.Pz }

// GlobalDims returns the global mesh extents.
func (k Kernel) GlobalDims() (nx, ny, nz int) {
	return k.NxP * k.Px, k.NyP * k.Py, k.NzP * k.Pz
}

// ProcCoords returns the block coordinates of a rank (x-fastest ordering).
func (k Kernel) ProcCoords(p int) (px, py, pz int) {
	return p % k.Px, (p / k.Px) % k.Py, p / (k.Px * k.Py)
}

// BytesPerProc returns the checkpoint bytes one process writes
// (≈ 15.26 MB for the 50³ block).
func (k Kernel) BytesPerProc() int64 {
	cells := int64(k.NxP) * int64(k.NyP) * int64(k.NzP)
	var comps int64
	for _, c := range arrayComps {
		comps += int64(c)
	}
	return cells * comps * wordBytes
}

// FileBytes returns the shared checkpoint file size.
func (k Kernel) FileBytes() int64 { return k.BytesPerProc() * int64(k.NumProcs()) }

// Run is a strided group of contiguous write requests: Count requests of
// Bytes each, the first at Offset, subsequent ones Stride apart. The S3D
// pattern produces one run group per (array component, z-plane): within it,
// each y-row of the process block is one contiguous request of NxP values.
type Run struct {
	Offset int64
	Bytes  int64
	Stride int64
	Count  int
}

// TotalBytes returns the bytes covered by the run group.
func (r Run) TotalBytes() int64 { return r.Bytes * int64(r.Count) }

// Runs enumerates rank p's write requests into the shared checkpoint file
// in canonical order (figure 8: the lowest X–Y–Z dimensions partitioned
// block-block-block; the fourth dimension not partitioned). Arrays are
// laid out consecutively: mass, velocity, pressure, temperature.
func (k Kernel) Runs(p int) []Run {
	nx, ny, nz := k.GlobalDims()
	px, py, pz := k.ProcCoords(p)
	x0 := int64(px * k.NxP)
	y0 := int64(py * k.NyP)
	z0 := int64(pz * k.NzP)
	rowBytes := int64(k.NxP) * wordBytes
	strideY := int64(nx) * wordBytes

	var runs []Run
	var arrayBase int64
	for _, comps := range arrayComps {
		for m := 0; m < comps; m++ {
			for dz := 0; dz < k.NzP; dz++ {
				gz := z0 + int64(dz)
				off := arrayBase +
					((int64(m)*int64(nz)+gz)*int64(ny)+y0)*int64(nx)*wordBytes +
					x0*wordBytes
				runs = append(runs, Run{Offset: off, Bytes: rowBytes, Stride: strideY, Count: k.NyP})
			}
		}
		arrayBase += int64(comps) * int64(nx) * int64(ny) * int64(nz) * wordBytes
	}
	return runs
}

// RequestCount returns the number of individual contiguous requests rank p
// issues (the quantity that kills native independent I/O in §5.3).
func (k Kernel) RequestCount(p int) int {
	n := 0
	for _, r := range k.Runs(p) {
		n += r.Count
	}
	return n
}

// patternWord builds a deterministic 64-bit test value for (rank, seq).
func patternWord(p int, seq uint32) uint64 {
	return uint64(p)<<40 | uint64(seq) | 0xA5<<56
}
