package solver

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/s3dgo/s3d/internal/grid"
)

// sdfSections walks an encoded checkpoint and returns the offset at which
// each section ends — magic and version, the attribute count, every
// attribute, the variable count, every variable's header and every
// variable's data — plus the offset of the first variable's first dim.
func sdfSections(t testing.TB, data []byte) (ends []int, firstDim int) {
	pos := 5
	u32 := func() int {
		v := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		return v
	}
	str := func() { pos += u32() }
	ends = append(ends, pos)
	nAttrs := u32()
	ends = append(ends, pos)
	for i := 0; i < nAttrs; i++ {
		str()
		str()
		ends = append(ends, pos)
	}
	nVars := u32()
	ends = append(ends, pos)
	for i := 0; i < nVars; i++ {
		str()
		size := 1
		for nd := u32(); nd > 0; nd-- {
			if firstDim == 0 {
				firstDim = pos
			}
			size *= u32()
		}
		ends = append(ends, pos)
		pos += 8 * size
		ends = append(ends, pos)
	}
	if pos != len(data) {
		t.Fatalf("checkpoint walk ended at %d of %d bytes", pos, len(data))
	}
	return ends, firstDim
}

// FuzzLoadCheckpoint: LoadCheckpoint is handed whatever is on disk, so for
// any byte stream it must return an error and leave the block as it was —
// it re-saves to the bytes it saved before the load — or leave a state that
// round-trips — the block re-saves, a fresh block loads those bytes and
// re-saves the same bytes — without a panic and without allocating more than
// 64 MB for a block whose checkpoint is 3 KB. For a stream SaveCheckpoint wrote, the re-saved
// bytes are the stream itself. (Equality with the input cannot be asked of
// every accepted stream: the loader matches variables by name so that the
// on-disk order may evolve, tolerates a missing or pre-PR-17 T_guess_halo and
// ignores attributes it does not know, and testdata/checkpoint_prereg.sdf
// pins that tolerance.)
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := checkpointConfig() // the H2 case of the restart tests, on a 4×4×1 grid
	cfg.Grid = grid.New(grid.Spec{Nx: 4, Ny: 4, Nz: 1, Lx: 0.01, Ly: 0.01, Lz: 0.01})
	block := func(t testing.TB) *Block {
		b, err := NewSerial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	src := block(f)
	seedCheckpointState(src)
	src.Step, src.Time = 12, 3.5e-6
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	ends, firstDim := sdfSections(f, valid)
	for _, n := range ends {
		f.Add(valid[:n])
	}
	f.Add(valid[:len(valid)-3])
	// A header that claims more than the file holds: the first variable's
	// first dim bumped to 5 and to 2^28.
	for _, dim := range []uint32{5, 1 << 28} {
		bumped := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(bumped[firstDim:], dim)
		f.Add(bumped)
	}
	f.Add(bytes.Replace(valid, []byte("nx\x01\x00\x00\x004"), []byte("nx\x01\x00\x00\x005"), 1))
	// A conserved register under another name: missing, found after the
	// registers before it in registry order.
	f.Add(bytes.Replace(valid, []byte("rhoY_H2"), []byte("rhoY_XX"), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		b := block(t)
		var pre bytes.Buffer
		if err := b.SaveCheckpoint(&pre); err != nil {
			t.Fatal(err)
		}
		before := heapAllocated()
		err := b.LoadCheckpoint(bytes.NewReader(data))
		if got := heapAllocated() - before; got > 64<<20 {
			t.Fatalf("LoadCheckpoint of %d bytes allocated %d MB", len(data), got>>20)
		}
		if err != nil {
			var post bytes.Buffer
			if err := b.SaveCheckpoint(&post); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pre.Bytes(), post.Bytes()) {
				t.Fatalf("a rejected checkpoint (%v) changed the block", err)
			}
			return
		}
		var first bytes.Buffer
		if err := b.SaveCheckpoint(&first); err != nil {
			t.Fatalf("accepted checkpoint does not re-save: %v", err)
		}
		if bytes.Equal(data, valid) && !bytes.Equal(first.Bytes(), valid) {
			t.Fatal("a checkpoint SaveCheckpoint wrote does not re-save to itself")
		}
		again := block(t)
		if err := again.LoadCheckpoint(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("re-saved checkpoint does not load: %v", err)
		}
		var second bytes.Buffer
		if err := again.SaveCheckpoint(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-saved checkpoint is not a fixed point of load and save")
		}
	})
}
