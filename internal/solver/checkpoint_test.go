package solver

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/s3dgo/s3d/internal/chem"
	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/sdf"
	"github.com/s3dgo/s3d/internal/transport"
)

func checkpointConfig() *Config {
	mech := chem.H2Air()
	return &Config{
		Mech:  mech,
		Trans: transport.MustNew(mech.Set),
		Grid:  grid.New(grid.Spec{Nx: 14, Ny: 10, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01}),
		PInf:  101325,
	}
}

func seedCheckpointState(b *Block) {
	y := make([]float64, b.ns)
	y[b.mech.Set.Index("O2")] = 0.233
	y[b.mech.Set.Index("N2")] = 0.767
	b.SetState(func(x, yy, z float64, s *InflowState) {
		s.U = 6 * math.Sin(2*math.Pi*x/0.01)
		s.T = 900 + 300*math.Exp(-((x-0.005)/(0.002))*((x-0.005)/0.002))
		copy(s.Y, y)
	}, nil)
}

// TestRestartBitExact: a run split by checkpoint/restore must match an
// uninterrupted run exactly — the §9 restart-file contract.
func TestRestartBitExact(t *testing.T) {
	dt := 3e-7
	// Continuous run: 8 steps.
	cont, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedCheckpointState(cont)
	cont.Advance(8, dt)

	// Split run: 4 steps, checkpoint, restore into a fresh block, 4 more.
	first, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedCheckpointState(first)
	first.Advance(4, dt)
	var buf bytes.Buffer
	if err := first.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	second, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := second.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if second.Step != 4 || second.Time != first.Time {
		t.Fatalf("bookkeeping not restored: step %d time %g", second.Step, second.Time)
	}
	second.Advance(4, dt)

	for v := 0; v < cont.nvar; v++ {
		for k := 0; k < cont.G.Nz; k++ {
			for j := 0; j < cont.G.Ny; j++ {
				for i := 0; i < cont.G.Nx; i++ {
					a := cont.Q[v].At(i, j, k)
					b := second.Q[v].At(i, j, k)
					if a != b {
						t.Fatalf("restart diverges: var %d at (%d,%d,%d): %g vs %g",
							v, i, j, k, a, b)
					}
				}
			}
		}
	}
}

func TestCheckpointRejectsMismatchedGrid(t *testing.T) {
	b1, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedCheckpointState(b1)
	var buf bytes.Buffer
	if err := b1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := checkpointConfig()
	cfg.Grid = grid.New(grid.Spec{Nx: 16, Ny: 10, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01})
	b2, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.LoadCheckpoint(&buf); err == nil {
		t.Fatal("expected grid-mismatch error")
	}
}

func TestCheckpointRejectsMismatchedMechanism(t *testing.T) {
	b1, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedCheckpointState(b1)
	var buf bytes.Buffer
	if err := b1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	mech := chem.CH4Skeletal()
	cfg := &Config{
		Mech:  mech,
		Trans: transport.MustNew(mech.Set),
		Grid:  grid.New(grid.Spec{Nx: 14, Ny: 10, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01}),
		PInf:  101325,
	}
	b2, err := NewSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.LoadCheckpoint(&buf); err == nil {
		t.Fatal("expected mechanism-mismatch error")
	}
}

func TestCheckpointTruncatedRejected(t *testing.T) {
	b1, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedCheckpointState(b1)
	var buf bytes.Buffer
	if err := b1.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	b2, _ := NewSerial(checkpointConfig())
	if err := b2.LoadCheckpoint(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestRejectedCheckpointLeavesBlock: a checkpoint that lacks a conserved
// register, or holds a variable of the wrong length, is rejected before any
// field is written — the block re-saves to the bytes it saved before the
// load, although the registers ahead of the bad one are fine.
func TestRejectedCheckpointLeavesBlock(t *testing.T) {
	src, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedCheckpointState(src)
	var valid bytes.Buffer
	if err := src.SaveCheckpoint(&valid); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		edit       func(f *sdf.File)
	}{
		{"missing", `missing variable "rhoY_H2"`, func(f *sdf.File) {
			f.Vars = slices.DeleteFunc(f.Vars, func(v sdf.Variable) bool { return v.Name == "rhoY_H2" })
		}},
		{"short", `variable "T_guess" has 139 values`, func(f *sdf.File) {
			v := f.Var("T_guess")
			v.Data = v.Data[1:]
			v.Dims = []int{len(v.Data)}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := sdf.Decode(bytes.NewReader(valid.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			c.edit(f)
			var bad bytes.Buffer
			if err := f.Encode(&bad); err != nil {
				t.Fatal(err)
			}
			b, err := NewSerial(checkpointConfig())
			if err != nil {
				t.Fatal(err)
			}
			var pre, post bytes.Buffer
			if err := b.SaveCheckpoint(&pre); err != nil {
				t.Fatal(err)
			}
			err = b.LoadCheckpoint(&bad)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadCheckpoint = %v, want an error naming %s", err, c.want)
			}
			if err := b.SaveCheckpoint(&post); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pre.Bytes(), post.Bytes()) {
				t.Fatal("the rejected checkpoint changed the block")
			}
		})
	}
}

// TestLoadUniformGhostCheckpoint: a checkpoint of a 2-D block written when
// one-point axes still carried ghost planes holds T_guess_halo in that wider
// layout. Loading it must restore the same Newton seeds — interior and ghost
// face slabs — and the restarted trajectory must match the uninterrupted one
// bit for bit (only the interior seeds matter to it: no ghost cell runs the
// temperature inversion, see SaveCheckpoint).
func TestLoadUniformGhostCheckpoint(t *testing.T) {
	dt := 3e-7
	cont, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedCheckpointState(cont)
	cont.Advance(8, dt)

	first, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedCheckpointState(first)
	first.Advance(4, dt)
	var buf bytes.Buffer
	if err := first.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Re-home T_guess_halo into the old layout: grid.Ghost layers on every
	// axis, the never-computed cells at the initial fill.
	f, err := sdf.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	T := first.T
	g := T.G
	gh := T.Ghosts()
	row, rows, planes := T.Nx+2*g, T.Ny+2*g, T.Nz+2*g
	old := make([]float64, row*rows*planes)
	for p := range old {
		old[p] = 300
	}
	for k := -gh[2]; k < T.Nz+gh[2]; k++ {
		for j := -gh[1]; j < T.Ny+gh[1]; j++ {
			for i := -gh[0]; i < T.Nx+gh[0]; i++ {
				old[((k+g)*rows+(j+g))*row+i+g] = T.At(i, j, k)
			}
		}
	}
	if len(old) == len(T.Data) {
		t.Fatal("the 2-D block stores ghost planes along z: nothing to convert")
	}
	halo := f.Var("T_guess_halo")
	halo.Dims, halo.Data = []int{len(old)}, old
	buf.Reset()
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}

	second, err := NewSerial(checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := second.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for p, v := range first.T.Data {
		if math.Float64bits(second.T.Data[p]) != math.Float64bits(v) {
			t.Fatalf("T seed %d restored as %g, saved %g", p, second.T.Data[p], v)
		}
	}
	second.Advance(4, dt)
	for v := 0; v < cont.nvar; v++ {
		for p, a := range cont.Q[v].Data {
			if math.Float64bits(a) != math.Float64bits(second.Q[v].Data[p]) {
				t.Fatalf("restart from the old layout diverges: var %d flat %d: %g vs %g",
					v, p, a, second.Q[v].Data[p])
			}
		}
	}
}
