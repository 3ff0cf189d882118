package solver

import (
	"bytes"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/par"
	"github.com/s3dgo/s3d/internal/sdf"
)

// seedSolutionHash is the FNV-1a hash of the decomposed reacting case's
// solution bits (rank-sorted Q fields, heat release, total mass after ten
// steps; see solutionHash) recorded on the pre-registry solver, whose
// fields were ~60 independent allocations. The arena layout must reproduce
// it exactly: registry storage is a pure re-homing of the same floats.
// Re-recorded once since (0xe334b76af311e9b5 → 0x13bf2dfc4e6660fa), when
// volume integrals took the global line's quadrature widths: only its hrr
// component moved — a hash over the Q bits plus mass alone is
// 0x0550b728c3018643 before and after.
const seedSolutionHash uint64 = 0x13bf2dfc4e6660fa

// sortByOffset orders rank records by block offset, k slowest.
func sortByOffset(ranks []rankState) {
	sort.Slice(ranks, func(a, b int) bool {
		ra, rb := ranks[a], ranks[b]
		if ra.k0 != rb.k0 {
			return ra.k0 < rb.k0
		}
		if ra.j0 != rb.j0 {
			return ra.j0 < rb.j0
		}
		return ra.i0 < rb.i0
	})
}

func solutionHash(ranks []rankState) uint64 {
	sortByOffset(ranks)
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, r := range ranks {
		for _, vq := range r.q {
			for _, bits := range vq {
				put(bits)
			}
		}
		put(r.hrr)
		put(r.mass)
	}
	return h.Sum64()
}

// TestArenaLayoutBitCompatibility pins the solver output against the
// pre-registry (seed) layout: ten steps of the decomposed reacting case,
// with one worker and with four, must hash to the value recorded before
// fields moved into the FieldSet arena.
func TestArenaLayoutBitCompatibility(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run reacting case")
	}
	for _, workers := range []int{1, 4} {
		if h := solutionHash(runDecomposed(t, workers)); h != seedSolutionHash {
			t.Fatalf("workers=%d: solution hash %#016x, seed layout gave %#016x",
				workers, h, seedSolutionHash)
		}
	}
}

// TestCheckpointOrderingStable pins the on-disk checkpoint ABI: variable
// names and their order come from the registry's checkpoint list and must
// never drift, or old restart files stop loading in sequence-sensitive
// consumers (the pario/cmd write paths iterate this order).
func TestCheckpointOrderingStable(t *testing.T) {
	b, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedCheckpointState(b)
	var buf bytes.Buffer
	if err := b.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := sdf.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"rho", "rhou", "rhov", "rhow", "rhoE",
		// H2Air transported species (last species N2 recovered from ΣY=1).
		"rhoY_H2", "rhoY_O2", "rhoY_O", "rhoY_OH", "rhoY_H2O",
		"rhoY_H", "rhoY_HO2", "rhoY_H2O2",
		"T_guess",
		"T_guess_halo",
	}
	if len(f.Vars) != len(want) {
		t.Fatalf("checkpoint has %d variables, want %d", len(f.Vars), len(want))
	}
	for i, v := range f.Vars {
		if v.Name != want[i] {
			t.Fatalf("checkpoint variable %d is %q, want %q (on-disk order is ABI)", i, v.Name, want[i])
		}
	}
}

// TestLoadPreRegistryCheckpoint loads a restart file written by the
// pre-registry solver (testdata/checkpoint_prereg.sdf: the serial
// checkpointConfig case advanced three steps) and checks the restored
// state bit-for-bit via interior sums recorded at write time.
func TestLoadPreRegistryCheckpoint(t *testing.T) {
	raw, err := os.ReadFile("testdata/checkpoint_prereg.sdf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadCheckpoint(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pre-registry checkpoint no longer loads: %v", err)
	}
	if b.Step != 3 {
		t.Fatalf("restored step %d, want 3", b.Step)
	}
	if bits := math.Float64bits(b.Time); bits != 0x3eae32f0ee144531 {
		t.Fatalf("restored time bits %#x", bits)
	}
	var qsum float64
	for v := 0; v < b.nvar; v++ {
		qsum += b.Q[v].SumInterior()
	}
	if bits := math.Float64bits(qsum); bits != 0x41758616349da657 {
		t.Fatalf("conserved-state sum bits %#x, want %#x", bits, uint64(0x41758616349da657))
	}
	if bits := math.Float64bits(b.T.SumInterior()); bits != 0x410110d060df203f {
		t.Fatalf("T_guess sum bits %#x, want %#x", bits, uint64(0x410110d060df203f))
	}
	// The restored state must advance: a checkpoint is only as good as the
	// trajectory it resumes.
	b.Advance(1, 3e-7)
}

// TestDecomposedCheckpointRoundTrip runs the registry save/load path on
// every rank of a decomposed reacting run: a run split at N/2 by per-rank
// checkpoint/restore must match the uninterrupted run bit-for-bit, on two
// layouts with different pairs of cut axes. T_guess_halo carries edge and
// corner entries that are never recomputed; no restored trajectory may
// depend on them.
func TestDecomposedCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run reacting case")
	}
	t.Run("2x2x1", func(t *testing.T) {
		decomposedCheckpointRoundTrip(t, reactiveConfig(), [3]int{2, 2, 1})
	})
	t.Run("1x2x2", func(t *testing.T) {
		cfg := reactiveConfig()
		// Every cut axis needs at least Ghost points per rank.
		cfg.Grid = grid.New(grid.Spec{Nx: 8, Ny: 12, Nz: 12, Lx: 0.004, Ly: 0.003, Lz: 0.002})
		decomposedCheckpointRoundTrip(t, cfg, [3]int{1, 2, 2})
	})
}

func decomposedCheckpointRoundTrip(t *testing.T, cfg *Config, dims [3]int) {
	pool := par.NewPool(4)
	defer pool.Close()
	cfg.Pool = pool
	dt := 2e-8

	type snap struct {
		i0, j0, k0 int
		ckpt       []byte
		q          [][]uint64
	}
	byOffset := func(s []snap) map[[3]int]*snap {
		m := map[[3]int]*snap{}
		for i := range s {
			m[[3]int{s[i].i0, s[i].j0, s[i].k0}] = &s[i]
		}
		return m
	}
	collect := func(body func(b *Block) snap) []snap {
		ch := make(chan snap, 4)
		if err := RunParallel(cfg, dims, func(b *Block) {
			hotSpotIC(b)
			ch <- body(b)
		}); err != nil {
			t.Fatal(err)
		}
		close(ch)
		var out []snap
		for s := range ch {
			out = append(out, s)
		}
		return out
	}
	qBits := func(b *Block) [][]uint64 {
		q := make([][]uint64, b.nvar)
		for v := 0; v < b.nvar; v++ {
			for k := 0; k < b.G.Nz; k++ {
				for j := 0; j < b.G.Ny; j++ {
					for i := 0; i < b.G.Nx; i++ {
						q[v] = append(q[v], math.Float64bits(b.Q[v].At(i, j, k)))
					}
				}
			}
		}
		return q
	}

	// Uninterrupted: 6 steps.
	cont := byOffset(collect(func(b *Block) snap {
		b.Advance(6, dt)
		return snap{i0: b.i0, j0: b.j0, k0: b.k0, q: qBits(b)}
	}))
	// First half: 3 steps, then checkpoint every rank.
	half := byOffset(collect(func(b *Block) snap {
		b.Advance(3, dt)
		var buf bytes.Buffer
		if err := b.SaveCheckpoint(&buf); err != nil {
			panic(err)
		}
		return snap{i0: b.i0, j0: b.j0, k0: b.k0, ckpt: buf.Bytes()}
	}))
	// Second half: restore each rank from its checkpoint, 3 more steps.
	final := collect(func(b *Block) snap {
		s := half[[3]int{b.i0, b.j0, b.k0}]
		if s == nil {
			panic("no checkpoint for rank offset")
		}
		if err := b.LoadCheckpoint(bytes.NewReader(s.ckpt)); err != nil {
			panic(err)
		}
		if b.Step != 3 {
			panic("restored step wrong")
		}
		b.Advance(3, dt)
		return snap{i0: b.i0, j0: b.j0, k0: b.k0, q: qBits(b)}
	})

	for _, g := range final {
		ref := cont[[3]int{g.i0, g.j0, g.k0}]
		if ref == nil {
			t.Fatalf("no continuous rank at offset (%d,%d,%d)", g.i0, g.j0, g.k0)
		}
		for v := range g.q {
			for p := range g.q[v] {
				if g.q[v][p] != ref.q[v][p] {
					t.Fatalf("rank(%d,%d,%d): restart diverges at Q[%d] flat %d: %x vs %x",
						g.i0, g.j0, g.k0, v, p, g.q[v][p], ref.q[v][p])
				}
			}
		}
	}
}

// TestBlockRegistryInventory sanity-checks the registry threading: named
// struct fields alias registry storage, groups match the hoisted halo
// lists, and the conserved bank spans alias the Q registers.
func TestBlockRegistryInventory(t *testing.T) {
	b, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	fs := b.Fields()
	if fs.ByName("T") != b.T || fs.ByName("rho") != b.Rho || fs.ByName("Q_rho") != b.Q[iRho] {
		t.Fatal("registry names do not alias the block's field views")
	}
	if b.FieldByName("Y_OH") != b.Y[b.mech.Set.Index("OH")] {
		t.Fatal("species primitive not resolvable by name")
	}
	if got := len(fs.Group(haloGroupConserved)); got != b.nvar {
		t.Fatalf("conserved halo group has %d fields, want %d", got, b.nvar)
	}
	// checkpointConfig is 14×10×1: fluxes exist along x and y alone.
	if got := len(fs.Group(haloGroupFlux)); got != 2*b.nvar {
		t.Fatalf("flux halo group has %d fields, want %d", got, 2*b.nvar)
	}
	// The primitive group is the flux stage's read-set, in gradSrc's order:
	// u, v, w, T, Wmix, then every Yₙ — one field more than Q.
	prim := fs.Group(haloGroupPrimitive)
	wantPrim := append([]*grid.Field3{b.U, b.V, b.W, b.T, b.Wmix}, b.Y...)
	if len(prim) != len(wantPrim) || len(prim) != b.nvar+1 {
		t.Fatalf("primitive halo group has %d fields, want %d", len(prim), len(wantPrim))
	}
	for i, f := range wantPrim {
		if prim[i] != f || b.gradSrc[i] != f {
			t.Fatalf("primitive halo group entry %d is not gradSrc's (u, v, w, T, Wmix, Y…)", i)
		}
	}
	for a, want := range []int{b.nvar, b.nvar, 0} {
		if len(b.haloQ[a]) != want || len(b.haloFlux[a]) != want || len(b.haloPrim[a]) != min(want, 1)*(b.nvar+1) {
			t.Fatalf("axis %d exchanges %d conserved, %d primitive and %d flux fields, want %d, %d and %d",
				a, len(b.haloQ[a]), len(b.haloPrim[a]), len(b.haloFlux[a]), want, min(want, 1)*(b.nvar+1), want)
		}
	}
	// Bank span aliasing: writes through Q land in qBank.
	b.Q[iRhoE].Set(1, 2, 0, 12345)
	off := iRhoE*fs.FieldLen() + b.Q[iRhoE].Idx(1, 2, 0)
	if b.qBank[off] != 12345 {
		t.Fatal("qBank does not alias the Q registers")
	}
	// Every field is arena-backed: no stray NewField3 allocations remain.
	if fs.Len() == 0 || fs.FieldLen() != len(b.T.Data) {
		t.Fatal("registry arena shape inconsistent")
	}
	// The filter writes through the rhs bank: the block registers no
	// scratch field.
	for id := 0; id < fs.Len(); id++ {
		if m := fs.Meta(id); m.Role == grid.RoleScratch {
			t.Fatalf("field %s is scratch storage: the filter writes through the rhs bank", m.Name)
		}
	}
}

// fieldNames lists a registry's names in registration order.
func fieldNames(fs *grid.FieldSet) []string {
	names := make([]string, fs.Len())
	for id := range names {
		names[id] = fs.Meta(id).Name
	}
	return names
}

// registryNamesHash3D is the FNV-1a hash of the newline-joined registry names
// of the 16×12×8 reactive block, recorded before per-direction fields became
// conditional on the axis being active: with three active axes the names and
// their order — the arena layout, halo pack order and checkpoint order — are
// what they were. Re-recorded since, each time on the parent commit over
// its names minus the deleted ones: the deleted balancer's per-cell
// ownership map (186 → 185, 0x1cc5a78fc70650d6 → 0xdb30d12cd5fdfc67), then
// the array-statement kernel's two temporaries and the cost layer's two
// deleted per-cell proxy maps (185 → 181, → 0x5262fab6cc5a156f), then every
// stored derivative and
// diffusive flux when the RHS began forming them per x-row in worker scratch
// (181 → 106): the families du/dv/dw_d*, dT_d*, dWmix_d*, drho_d*, dp_d*,
// dY_*_d* and J_*_*; then the transport fields when the flux row began
// evaluating transport itself (106 → 96, → 0x5eb1bb889d1d9244): mu, lambda
// and D_* gone, and diff_max, the watchdog's one diffusivity field, in mu's
// place; then filter_scratch when the filter began writing through the dead
// rhs bank (96 → 95, → 0x4e885e5bc8f8d033).
const registryNamesHash3D uint64 = 0x4e885e5bc8f8d033

// TestRegistryActiveAxes: a block registers flux fields — its one
// per-direction family — along its active axes only, and no field of the
// gradient role at all. The 3-D inventory is pinned; the 2-D one is the 3-D
// one minus every flux along z, in the same order; and the hoisted flux
// views along the missing axis are nil, so a stray read faults instead of
// seeing zeros.
func TestRegistryActiveAxes(t *testing.T) {
	b3, err := NewSerial(reactiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	names3 := fieldNames(b3.Fields())
	h := fnv.New64a()
	h.Write([]byte(strings.Join(names3, "\n")))
	if len(names3) != 95 || h.Sum64() != registryNamesHash3D {
		t.Fatalf("3-D registry: %d names hashing to %#016x, recorded 95 and %#016x",
			len(names3), h.Sum64(), registryNamesHash3D)
	}

	cfg := reactiveConfig()
	cfg.Grid = grid.New(grid.Spec{Nx: 16, Ny: 12, Nz: 1, Lx: 0.004, Ly: 0.003, Lz: 0.002})
	b2, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for id, name := range names3 {
		if b3.Fields().Meta(id).Role == grid.RoleFlux && strings.HasSuffix(name, "_z") {
			continue
		}
		want = append(want, name)
	}
	got := fieldNames(b2.Fields())
	if len(got) != 82 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("2-D registry has %d names, want the 3-D ones without the z fluxes (%d):\n%v",
			len(got), len(want), got)
	}
	for _, b := range []*Block{b3, b2} {
		for id := 0; id < b.Fields().Len(); id++ {
			if m := b.Fields().Meta(id); m.Role == grid.RoleGradient {
				t.Fatalf("field %s is a stored gradient: the RHS differentiates into row scratch", m.Name)
			}
		}
	}
	if len(b2.active) != 2 {
		t.Fatalf("2-D block active axes %v", b2.active)
	}
	for v := range b2.flux {
		if b2.flux[v][2] != nil || b2.flux[v][0] == nil || b2.flux[v][1] == nil {
			t.Fatalf("flux[%d]: want x and y components only", v)
		}
	}
}
