package grid

import "testing"

// TestLayoutTable pins the one storage rule: ghost layers along the axes of
// more than one point, none along a one-point axis.
func TestLayoutTable(t *testing.T) {
	for _, c := range []struct {
		name       string
		nx, ny, nz int
		ghosts     [3]int
		size       int
	}{
		{"3-D", 6, 5, 4, [3]int{Ghost, Ghost, Ghost}, 16 * 15 * 14},
		{"Nz=1", 96, 72, 1, [3]int{Ghost, Ghost, 0}, 106 * 82},
		{"Ny=Nz=1", 20, 1, 1, [3]int{Ghost, 0, 0}, 30},
		{"Nx=1", 1, 7, 24, [3]int{0, Ghost, Ghost}, 17 * 34},
		{"point", 1, 1, 1, [3]int{}, 1},
	} {
		f := NewField3Ghost(c.nx, c.ny, c.nz, Ghost)
		if f.Ghosts() != c.ghosts || len(f.Data) != c.size {
			t.Errorf("%s: ghosts %v storage %d, want %v and %d", c.name, f.Ghosts(), len(f.Data), c.ghosts, c.size)
		}
		s := NewFieldSet(c.nx, c.ny, c.nz, Ghost)
		s.Register(FieldMeta{Name: "a", Species: -1})
		s.Register(FieldMeta{Name: "b", Species: -1})
		s.Build()
		if s.Ghosts() != c.ghosts || s.FieldLen() != c.size {
			t.Errorf("%s: FieldSet ghosts %v per field %d, want %v and %d", c.name, s.Ghosts(), s.FieldLen(), c.ghosts, c.size)
		}
		if s.Field(1).layout != f.layout || Scratch("s", c.nx, c.ny, c.nz, Ghost).layout != f.layout || f.Clone().layout != f.layout {
			t.Errorf("%s: FieldSet, Scratch, Clone and NewField3Ghost disagree on the layout", c.name)
		}
		// Every storage point — interior and the ghost layers of the active
		// axes — has its own flat index, and together they fill the storage.
		seen := make([]bool, len(f.Data))
		g := f.Ghosts()
		for k := -g[2]; k < c.nz+g[2]; k++ {
			for j := -g[1]; j < c.ny+g[1]; j++ {
				row := f.Row(j, k)
				if len(row) != c.nx || &row[0] != &f.Data[f.Idx(0, j, k)] {
					t.Fatalf("%s: Row(%d,%d) does not alias Idx(0,%d,%d)", c.name, j, k, j, k)
				}
				for i := -g[0]; i < c.nx+g[0]; i++ {
					p := f.Idx(i, j, k)
					if seen[p] {
						t.Fatalf("%s: flat index %d addressed twice, at (%d,%d,%d)", c.name, p, i, j, k)
					}
					seen[p] = true
				}
			}
		}
		for p, ok := range seen {
			if !ok {
				t.Fatalf("%s: storage value %d belongs to no point", c.name, p)
			}
		}
	}
}

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected a panic", what)
		}
	}()
	fn()
}

// TestDegenerateAxisIndexPanics: along a y or z axis of one point the only
// valid index is 0; any other must fault, whatever the other two indices are,
// instead of reading a neighbouring row or plane. Along a one-point x axis
// (unit stride, see layout) the row view gives the same guarantee.
func TestDegenerateAxisIndexPanics(t *testing.T) {
	for _, dims := range [][3]int{{6, 5, 1}, {6, 1, 4}, {1, 5, 4}, {6, 1, 1}, {1, 1, 4}} {
		f := NewField3Ghost(dims[0], dims[1], dims[2], Ghost)
		g := f.Ghosts()
		for a := 1; a < 3; a++ {
			if dims[a] != 1 {
				continue
			}
			for _, off := range []int{-Ghost, -1, 1, Ghost} {
				for k := -g[2]; k < dims[2]+g[2]; k++ {
					for j := -g[1]; j < dims[1]+g[1]; j++ {
						p := [3]int{0, j, k}
						p[a] = off
						expectPanic(t, "Row", func() { f.Row(p[1], p[2]) })
						for p[0] = -g[0]; p[0] < dims[0]+g[0]; p[0]++ {
							expectPanic(t, "At", func() { f.At(p[0], p[1], p[2]) })
							expectPanic(t, "Set", func() { f.Set(p[0], p[1], p[2], 1) })
						}
					}
				}
			}
		}
		if dims[0] == 1 {
			row := f.Row(0, 0)
			expectPanic(t, "Row(0,0)[1]", func() { _ = row[1] })
			expectPanic(t, "Row(0,0)[-1]", func() { _ = row[len(row)-2] })
		}
	}
}

// TestWrapPeriodicDegenerateAxis: the wrap along a one-point axis has no
// ghost layer to fill and touches nothing.
func TestWrapPeriodicDegenerateAxis(t *testing.T) {
	f := NewField3Ghost(6, 5, 1, Ghost)
	for p := range f.Data {
		f.Data[p] = float64(p)
	}
	f.WrapPeriodic(Z)
	for p, v := range f.Data {
		if v != float64(p) {
			t.Fatalf("WrapPeriodic(Z) on a 6x5x1 field wrote storage value %d", p)
		}
	}
	// The active axes still wrap.
	f.WrapPeriodic(Y)
	if f.At(2, -1, 0) != f.At(2, 4, 0) || f.At(2, 5, 0) != f.At(2, 0, 0) {
		t.Fatal("WrapPeriodic(Y) did not fill the y ghost rows")
	}
}

// TestMustMatchRejectsMixedLayout: two fields of equal extents and nominal
// ghost width but different flat-index maps must never share an offset.
func TestMustMatchRejectsMixedLayout(t *testing.T) {
	f := NewField3Ghost(6, 5, 1, Ghost)
	// The same extents in the layout every field had before AxisGhost:
	// ghost planes along z too.
	row, plane := 6+2*Ghost, (6+2*Ghost)*(5+2*Ghost)
	old := &Field3{Nx: 6, Ny: 5, Nz: 1, G: Ghost,
		layout: layout{ghosts: [3]int{Ghost, Ghost, Ghost}, sj: row, sk: plane,
			off: Ghost*plane + Ghost*row + Ghost, size: plane * (1 + 2*Ghost)}}
	old.Data = make([]float64, old.size)
	expectPanic(t, "CopyRange", func() { f.CopyRange(old, [3]int{}, [3]int{6, 5, 1}) })
	f.CopyRange(f.Clone(), [3]int{}, [3]int{6, 5, 1}) // equal layouts pass
}

// TestCopyFromUniformGhost: an all-axes-ghost image lands point for point in
// the per-axis layout; a slice of any other length is refused untouched.
func TestCopyFromUniformGhost(t *testing.T) {
	f := NewField3Ghost(6, 5, 1, Ghost)
	row, rows, planes := 6+2*Ghost, 5+2*Ghost, 1+2*Ghost
	src := make([]float64, row*rows*planes)
	for p := range src {
		src[p] = float64(p)
	}
	if f.CopyFromUniformGhost(src[1:]) || f.CopyFromUniformGhost(f.Data) {
		t.Fatal("accepted an image of the wrong size")
	}
	for _, v := range f.Data {
		if v != 0 {
			t.Fatal("a refused image was copied")
		}
	}
	if !f.CopyFromUniformGhost(src) {
		t.Fatal("refused the all-axes-ghost image")
	}
	for j := -Ghost; j < 5+Ghost; j++ {
		for i := -Ghost; i < 6+Ghost; i++ {
			want := float64((Ghost*rows+j+Ghost)*row + i + Ghost)
			if got := f.At(i, j, 0); got != want {
				t.Fatalf("(%d,%d,0) = %g, want source value %g", i, j, got, want)
			}
		}
	}
	// With no one-point axis the two layouts coincide.
	g := NewField3Ghost(4, 3, 2, 2)
	img := make([]float64, len(g.Data))
	for p := range img {
		img[p] = float64(p) + 0.5
	}
	if !g.CopyFromUniformGhost(img) {
		t.Fatal("refused an image of its own layout")
	}
	for p, v := range g.Data {
		if v != img[p] {
			t.Fatalf("storage value %d = %g, want %g", p, v, img[p])
		}
	}
}
