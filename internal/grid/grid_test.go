package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniformLineSpansDomain(t *testing.T) {
	g := New(Spec{Nx: 11, Ny: 5, Nz: 3, Lx: 2, Ly: 1, Lz: 0.5})
	if g.Xc[0] != 0 || math.Abs(g.Xc[10]-2) > 1e-14 {
		t.Fatalf("x endpoints = %g, %g; want 0, 2", g.Xc[0], g.Xc[10])
	}
	for i := 1; i < len(g.Xc); i++ {
		if d := g.Xc[i] - g.Xc[i-1]; math.Abs(d-0.2) > 1e-14 {
			t.Fatalf("non-uniform spacing %g at %d", d, i)
		}
	}
	if got := g.MetX[3]; math.Abs(got-5) > 1e-12 {
		t.Fatalf("metric = %g, want 5", got)
	}
}

func TestStretchedLineSymmetricAndMonotone(t *testing.T) {
	g := New(Spec{Nx: 3, Ny: 41, Nz: 3, Lx: 1, Ly: 2, Lz: 1, StretchY: true})
	n := len(g.Yc)
	if math.Abs(g.Yc[0]+1) > 1e-12 || math.Abs(g.Yc[n-1]-1) > 1e-12 {
		t.Fatalf("stretched endpoints = %g, %g; want ±1", g.Yc[0], g.Yc[n-1])
	}
	for i := 0; i < n; i++ {
		if math.Abs(g.Yc[i]+g.Yc[n-1-i]) > 1e-12 {
			t.Fatalf("not symmetric at %d: %g vs %g", i, g.Yc[i], g.Yc[n-1-i])
		}
		if i > 0 && g.Yc[i] <= g.Yc[i-1] {
			t.Fatalf("not monotone at %d", i)
		}
	}
	// Clustering: centre spacing smaller than edge spacing.
	mid := n / 2
	dcentre := g.Yc[mid+1] - g.Yc[mid]
	dedge := g.Yc[1] - g.Yc[0]
	if dcentre >= dedge {
		t.Fatalf("no clustering: centre %g >= edge %g", dcentre, dedge)
	}
}

func TestStretchedMetricMatchesFiniteDifference(t *testing.T) {
	g := New(Spec{Nx: 3, Ny: 101, Nz: 3, Lx: 1, Ly: 3, Lz: 1, StretchY: true, Beta: 2.0})
	// dξ/dy ≈ 1/(y[i+1]-y[i-1])·2 for interior points.
	for i := 5; i < len(g.Yc)-5; i++ {
		fd := 2 / (g.Yc[i+1] - g.Yc[i-1])
		if rel := math.Abs(g.MetY[i]-fd) / fd; rel > 2e-2 {
			t.Fatalf("metric mismatch at %d: analytic %g vs FD %g", i, g.MetY[i], fd)
		}
	}
}

func TestMinSpacing(t *testing.T) {
	g := New(Spec{Nx: 11, Ny: 21, Nz: 2, Lx: 1, Ly: 1, Lz: 1})
	// dx = 0.1, dy = 0.05, dz = 1.
	if got := g.MinSpacing(); math.Abs(got-0.05) > 1e-14 {
		t.Fatalf("MinSpacing = %g, want 0.05", got)
	}
}

func TestSubSharesCoordinates(t *testing.T) {
	g := New(Spec{Nx: 16, Ny: 12, Nz: 8, Lx: 1, Ly: 1, Lz: 1})
	s := g.Sub(4, 8, 0, 6, 2, 4)
	if s.Nx != 8 || s.Ny != 6 || s.Nz != 4 {
		t.Fatalf("sub dims = %dx%dx%d", s.Nx, s.Ny, s.Nz)
	}
	if s.Xc[0] != g.Xc[4] || s.Zc[0] != g.Zc[2] {
		t.Fatalf("sub coords not aligned with parent")
	}
	if s.MetY[3] != g.MetY[3] {
		t.Fatalf("sub metric not shared")
	}
}

func TestField3IndexRoundTrip(t *testing.T) {
	f := NewField3Ghost(6, 5, 4, Ghost)
	want := map[[3]int]float64{}
	v := 0.0
	for k := -Ghost; k < 4+Ghost; k++ {
		for j := -Ghost; j < 5+Ghost; j++ {
			for i := -Ghost; i < 6+Ghost; i++ {
				v++
				f.Set(i, j, k, v)
				want[[3]int{i, j, k}] = v
			}
		}
	}
	for key, w := range want {
		if got := f.At(key[0], key[1], key[2]); got != w {
			t.Fatalf("At(%v) = %g, want %g", key, got, w)
		}
	}
}

func TestField3IndexUnique(t *testing.T) {
	f := NewField3Ghost(4, 3, 2, 2)
	seen := map[int]bool{}
	for k := -2; k < 2+2; k++ {
		for j := -2; j < 3+2; j++ {
			for i := -2; i < 4+2; i++ {
				idx := f.Idx(i, j, k)
				if idx < 0 || idx >= len(f.Data) {
					t.Fatalf("Idx(%d,%d,%d) = %d out of range", i, j, k, idx)
				}
				if seen[idx] {
					t.Fatalf("Idx(%d,%d,%d) = %d duplicated", i, j, k, idx)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != len(f.Data) {
		t.Fatalf("index map covers %d of %d slots", len(seen), len(f.Data))
	}
}

func TestWrapPeriodicX(t *testing.T) {
	f := NewField3Ghost(8, 3, 3, Ghost)
	f.Each(func(i, j, k int, _ float64) {
		f.Set(i, j, k, float64(100*i+10*j+k))
	})
	f.WrapPeriodic(X)
	for j := 0; j < 3; j++ {
		for k := 0; k < 3; k++ {
			for l := 1; l <= Ghost; l++ {
				if got, want := f.At(-l, j, k), f.At(8-l, j, k); got != want {
					t.Fatalf("low ghost %d mismatch: %g vs %g", l, got, want)
				}
				if got, want := f.At(7+l, j, k), f.At(l-1, j, k); got != want {
					t.Fatalf("high ghost %d mismatch: %g vs %g", l, got, want)
				}
			}
		}
	}
}

// TestWrapPeriodicFaceOnly: along every axis the wrap fills exactly the
// ghost face slab over the interior cross-section — the cells an axis-aligned
// stencil reads — and leaves every other ghost cell (the other axes' faces,
// edges, corners) untouched.
func TestWrapPeriodicFaceOnly(t *testing.T) {
	const untouched = -1
	for _, a := range []Axis{X, Y, Z} {
		f := NewField3Ghost(7, 6, 8, Ghost)
		f.Fill(untouched)
		f.Map(func(i, j, k int, _ float64) float64 { return float64(100*i + 10*j + k) })
		f.WrapPeriodic(a)
		n := [3]int{f.Nx, f.Ny, f.Nz}
		var p [3]int
		for p[2] = -Ghost; p[2] < f.Nz+Ghost; p[2]++ {
			for p[1] = -Ghost; p[1] < f.Ny+Ghost; p[1]++ {
				for p[0] = -Ghost; p[0] < f.Nx+Ghost; p[0]++ {
					src, outside := p, 0
					for d := 0; d < 3; d++ {
						if p[d] < 0 || p[d] >= n[d] {
							outside++
							src[d] = (p[d] + n[d]) % n[d]
						}
					}
					want := float64(untouched)
					if outside == 0 || (outside == 1 && src[a] != p[a]) {
						want = float64(100*src[0] + 10*src[1] + src[2])
					}
					if got := f.At(p[0], p[1], p[2]); got != want {
						t.Fatalf("axis %d: cell %v = %g, want %g", a, p, got, want)
					}
				}
			}
		}
	}
}

func TestMinMaxAndSum(t *testing.T) {
	f := NewField3Ghost(4, 4, 4, 2)
	f.Fill(999) // ghost garbage must not leak into interior reductions
	f.Each(func(i, j, k int, _ float64) { f.Set(i, j, k, float64(i+j+k)) })
	min, max := f.MinMax()
	if min != 0 || max != 9 {
		t.Fatalf("MinMax = %g, %g; want 0, 9", min, max)
	}
	// Sum of i+j+k over 4³ points: 3·(0+1+2+3)·16 = 288.
	if got := f.SumInterior(); got != 288 {
		t.Fatalf("SumInterior = %g, want 288", got)
	}
}

// Property: WrapPeriodic never changes interior values, for random shapes.
func TestWrapPeriodicPreservesInterior(t *testing.T) {
	prop := func(nx, ny, nz uint8) bool {
		dims := [3]int{int(nx%6) + 1, int(ny%6) + 1, int(nz%6) + 1}
		f := NewField3Ghost(dims[0], dims[1], dims[2], 3)
		v := 0.0
		f.Map(func(i, j, k int, _ float64) float64 { v++; return v })
		before := f.Clone()
		f.WrapPeriodic(X)
		f.WrapPeriodic(Y)
		f.WrapPeriodic(Z)
		ok := true
		f.Each(func(i, j, k int, val float64) {
			if val != before.At(i, j, k) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero dimension")
		}
	}()
	New(Spec{Nx: 0, Ny: 1, Nz: 1, Lx: 1, Ly: 1, Lz: 1})
}

func TestCloneDeepCopies(t *testing.T) {
	f := NewField3Ghost(3, 3, 3, 1)
	f.Fill(5)
	c := f.Clone()
	c.Set(1, 1, 1, 9)
	if f.At(1, 1, 1) != 5 {
		t.Fatal("Clone shares storage")
	}
}

func TestRangeOpsMatchFullOps(t *testing.T) {
	fill := func() *Field3 {
		f := NewField3Ghost(7, 5, 4, 2)
		for i := range f.Data {
			f.Data[i] = float64(i%13) * 0.5
		}
		return f
	}
	fA := fill()

	// CopyRange tiled along k must reproduce the whole interior.
	dst := NewField3Ghost(7, 5, 4, 2)
	for k := 0; k < 4; k++ {
		dst.CopyRange(fA, [3]int{0, 0, k}, [3]int{7, 5, k + 1})
	}
	for k := 0; k < 4; k++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 7; i++ {
				if dst.At(i, j, k) != fA.At(i, j, k) {
					t.Fatalf("CopyRange missed (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
	// CopyRange must not touch ghosts outside the box.
	if dst.At(-1, 0, 0) != 0 {
		t.Fatal("CopyRange wrote outside the box")
	}

	// FillRange writes the box and nothing else.
	dst.FillRange(-3, [3]int{1, 1, 1}, [3]int{6, 4, 3})
	for k := -2; k < 6; k++ {
		for j := -2; j < 7; j++ {
			for i := -2; i < 9; i++ {
				inBox := i >= 1 && i < 6 && j >= 1 && j < 4 && k >= 1 && k < 3
				inside := i >= 0 && i < 7 && j >= 0 && j < 5 && k >= 0 && k < 4
				want := 0.0
				switch {
				case inBox:
					want = -3
				case inside:
					want = fA.At(i, j, k)
				}
				if dst.At(i, j, k) != want {
					t.Fatalf("FillRange: (%d,%d,%d) = %v, want %v", i, j, k, dst.At(i, j, k), want)
				}
			}
		}
	}
}

func TestRowAliasesStorage(t *testing.T) {
	f := NewField3Ghost(6, 3, 3, 2)
	row := f.Row(1, 2)
	if len(row) != 6 {
		t.Fatalf("Row length = %d, want 6", len(row))
	}
	row[4] = 42
	if f.At(4, 1, 2) != 42 {
		t.Fatal("Row does not alias storage")
	}
}
