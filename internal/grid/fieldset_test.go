package grid

import (
	"math"
	"testing"
)

func buildTestSet(t *testing.T) *FieldSet {
	t.Helper()
	s := NewFieldSet(6, 5, 4, 2)
	s.Register(FieldMeta{Name: "rho", Role: RoleConserved, Species: -1, Group: "conserved", Ckpt: "rho"})
	s.Register(FieldMeta{Name: "rhou", Role: RoleConserved, Species: -1, Group: "conserved", Ckpt: "rhou"})
	s.Register(FieldMeta{Name: "rhoY_H2", Role: RoleConserved, Species: 0, Group: "conserved", Ckpt: "rhoY_H2"})
	s.Register(FieldMeta{Name: "T", Role: RolePrimitive, Species: -1, Ckpt: "T_guess"})
	s.Register(FieldMeta{Name: "mu", Role: RoleTransport, Species: -1})
	s.Build()
	return s
}

func TestFieldSetArenaLayout(t *testing.T) {
	s := buildTestSet(t)
	per := s.FieldLen()
	want := (6 + 4) * (5 + 4) * (4 + 4)
	if per != want {
		t.Fatalf("FieldLen = %d, want %d", per, want)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	// Per-field slices are capacity-limited: appending to one must not
	// be able to scribble on its neighbour via the shared arena.
	if f1 := s.Field(1); cap(f1.Data) != len(f1.Data) {
		t.Fatalf("field Data capacity %d exceeds length %d", cap(f1.Data), len(f1.Data))
	}
}

func TestFieldSetLookup(t *testing.T) {
	s := buildTestSet(t)
	if s.ByName("mu") != s.Field(4) {
		t.Fatal("ByName(mu) did not resolve to field 4")
	}
	if s.ByName("nope") != nil {
		t.Fatal("ByName of unknown name should be nil")
	}
	if s.ID("rhoY_H2") != 2 || s.ID("nope") != -1 {
		t.Fatal("ID lookup wrong")
	}
	g := s.Group("conserved")
	if len(g) != 3 || g[0] != s.Field(0) || g[2] != s.Field(2) {
		t.Fatalf("Group order wrong: %d fields", len(g))
	}
	ck := s.Checkpointed()
	if len(ck) != 4 || ck[3] != 3 {
		t.Fatalf("Checkpointed = %v, want [0 1 2 3]", ck)
	}
	if m := s.Meta(2); m.Species != 0 || m.Ckpt != "rhoY_H2" {
		t.Fatalf("Meta(2) = %+v", m)
	}
	if s.Meta(0).Name != "rho" || s.Meta(4).Name != "mu" {
		t.Fatalf("names %q … %q, want rho … mu", s.Meta(0).Name, s.Meta(4).Name)
	}
}

// TestFieldSetZeroHaloGroup: the empty group name is never a halo group —
// ungrouped fields must not leak into Group("") — and an unknown group is
// empty rather than an error.
func TestFieldSetZeroHaloGroup(t *testing.T) {
	s := buildTestSet(t)
	if g := s.Group(""); len(g) != 0 {
		t.Fatalf("Group(\"\") = %d fields, want 0 (ungrouped fields are not a group)", len(g))
	}
	if g := s.Group("nope"); len(g) != 0 {
		t.Fatalf("unknown group = %d fields, want 0", len(g))
	}
}

// TestFieldSetFieldMatchesNewField3 pins that an arena-carved field is
// indistinguishable from a standalone allocation: same shape, strides,
// zeroed storage, and bitwise-equal results for representative kernels.
func TestFieldSetFieldMatchesNewField3(t *testing.T) {
	s := NewFieldSet(7, 6, 5, 3)
	s.Register(FieldMeta{Name: "a", Species: -1})
	s.Build()
	a := s.Field(0)
	b := NewField3Ghost(7, 6, 5, 3)
	ai, aj, ak := a.Strides()
	bi, bj, bk := b.Strides()
	if ai != bi || aj != bj || ak != bk || len(a.Data) != len(b.Data) {
		t.Fatalf("shape mismatch: strides (%d,%d,%d) vs (%d,%d,%d), len %d vs %d",
			ai, aj, ak, bi, bj, bk, len(a.Data), len(b.Data))
	}
	for p := range a.Data {
		v := math.Sin(float64(p) * 0.7)
		a.Data[p] = v
		b.Data[p] = v
	}
	a.WrapPeriodic(X)
	b.WrapPeriodic(X)
	scale := func(_, _, _ int, v float64) float64 { return -2 * v }
	a.Map(scale)
	b.Map(scale)
	if sa, sb := a.SumInterior(), b.SumInterior(); math.Float64bits(sa) != math.Float64bits(sb) {
		t.Fatalf("SumInterior diverges: %x vs %x", math.Float64bits(sa), math.Float64bits(sb))
	}
	for p := range a.Data {
		if a.Data[p] != b.Data[p] {
			t.Fatalf("storage diverges at %d: %g vs %g", p, a.Data[p], b.Data[p])
		}
	}
}

func TestFieldSetPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	s := NewFieldSet(4, 4, 4, 1)
	s.Register(FieldMeta{Name: "x", Species: -1})
	expectPanic("dup name", func() { s.Register(FieldMeta{Name: "x", Species: -1}) })
	expectPanic("empty name", func() { s.Register(FieldMeta{Species: -1}) })
	expectPanic("use before build", func() { s.Field(0) })
	s.Build()
	expectPanic("register after build", func() { s.Register(FieldMeta{Name: "y", Species: -1}) })
	expectPanic("double build", func() { s.Build() })
}

func TestScratchStandalone(t *testing.T) {
	f := Scratch("stage", 8, 4, 2, 0)
	if f.Nx != 8 || f.Ny != 4 || f.Nz != 2 || f.G != 0 {
		t.Fatalf("Scratch shape wrong: %dx%dx%d g%d", f.Nx, f.Ny, f.Nz, f.G)
	}
	f.Set(7, 3, 1, 9)
	if f.At(7, 3, 1) != 9 {
		t.Fatal("Scratch field not writable")
	}
}
