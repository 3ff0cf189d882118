package solver

import (
	"fmt"
	"io"
	"strconv"

	"github.com/s3dgo/s3d/internal/grid"
	"github.com/s3dgo/s3d/internal/sdf"
)

// Checkpointing: S3D "restart files contain the bulk of the analysis data"
// (paper §9) — the full conserved state, sufficient to continue the run
// bit-exactly. Each rank writes its own block (the N-files layout the
// workflow later morphs); a serial run writes one file.
//
// The variable set and on-disk order come from the field registry: every
// field registered with a Ckpt name is written, in registration order —
// the conserved bank (rho, rhou, rhov, rhow, rhoE, rhoY_*) followed by
// T_guess, the Newton seed that keeps a restarted trajectory bit-identical.

// interiorRows streams a field's interior as contiguous per-row slices in
// k-then-j order: views straight into the arena (one copy, field row →
// encoder buffer).
func interiorRows(q *grid.Field3) sdf.RowSource {
	return func(emit func(chunk []float64) error) error {
		for k := 0; k < q.Nz; k++ {
			for j := 0; j < q.Ny; j++ {
				if err := emit(q.Row(j, k)); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// SaveCheckpoint writes the block's conserved state and time bookkeeping.
func (b *Block) SaveCheckpoint(w io.Writer) error {
	f := sdf.New()
	f.Attrs["step"] = strconv.Itoa(b.Step)
	f.Attrs["time"] = strconv.FormatFloat(b.Time, 'x', -1, 64) // hex: exact
	f.Attrs["nx"] = strconv.Itoa(b.G.Nx)
	f.Attrs["ny"] = strconv.Itoa(b.G.Ny)
	f.Attrs["nz"] = strconv.Itoa(b.G.Nz)
	f.Attrs["mechanism"] = b.mech.Name
	i0, j0, k0 := b.GlobalOffset()
	f.Attrs["offset"] = fmt.Sprintf("%d %d %d", i0, j0, k0)

	dims := []int{b.G.Nx, b.G.Ny, b.G.Nz}
	for _, id := range b.fs.Checkpointed() {
		m := b.fs.Meta(id)
		if err := f.AddVarFunc(m.Ckpt, dims, interiorRows(b.fs.Field(id))); err != nil {
			return err
		}
	}
	// T_guess_halo: one auxiliary flat variable of the full T storage (ghost
	// layers along the axes of more than one point, grid.AxisGhost) after
	// the registry entries. No restored trajectory depends on its ghost
	// entries: no ghost cell runs the temperature inversion, the first
	// primitive exchange after a load overwrites the face slabs, and edges
	// and corners are never read (halo.go), so a restart is bit-exact
	// through T_guess alone. It is written only to keep the file format,
	// and the bytes of every checkpoint, stable.
	td := b.T.Data
	if err := f.AddVarFunc("T_guess_halo", []int{len(td)},
		func(emit func(chunk []float64) error) error { return emit(td) }); err != nil {
		return err
	}
	return f.Encode(w)
}

// LoadCheckpoint restores a state written by SaveCheckpoint into a block
// built with a matching configuration. Variables are matched by their
// registry checkpoint names, so the on-disk order is free to evolve;
// conserved registers are required, auxiliary entries (the T_guess Newton
// seed, the T_guess_halo image) are restored when present.
func (b *Block) LoadCheckpoint(r io.Reader) error {
	f, err := sdf.Decode(r)
	if err != nil {
		return err
	}
	for _, dim := range []struct {
		key  string
		want int
	}{{"nx", b.G.Nx}, {"ny", b.G.Ny}, {"nz", b.G.Nz}} {
		got, err := strconv.Atoi(f.Attrs[dim.key])
		if err != nil || got != dim.want {
			return fmt.Errorf("solver: checkpoint %s = %q, block has %d", dim.key, f.Attrs[dim.key], dim.want)
		}
	}
	if m := f.Attrs["mechanism"]; m != b.mech.Name {
		return fmt.Errorf("solver: checkpoint mechanism %q, block uses %q", m, b.mech.Name)
	}
	step, err := strconv.Atoi(f.Attrs["step"])
	if err != nil {
		return fmt.Errorf("solver: bad checkpoint step: %v", err)
	}
	tme, err := strconv.ParseFloat(f.Attrs["time"], 64)
	if err != nil {
		return fmt.Errorf("solver: bad checkpoint time: %v", err)
	}

	// Every variable is checked before any field is written, so a rejected
	// file leaves the block as it was.
	ids := b.fs.Checkpointed()
	vars := make([]*sdf.Variable, len(ids))
	for i, id := range ids {
		m := b.fs.Meta(id)
		vr := f.Var(m.Ckpt)
		if vr == nil {
			if m.Role != grid.RoleConserved {
				continue // optional auxiliary entry (e.g. T_guess)
			}
			return fmt.Errorf("solver: checkpoint missing variable %q", m.Ckpt)
		}
		if len(vr.Data) != b.G.Nx*b.G.Ny*b.G.Nz {
			return fmt.Errorf("solver: checkpoint variable %q has %d values", m.Ckpt, len(vr.Data))
		}
		vars[i] = vr
	}
	for i, vr := range vars {
		if vr == nil {
			continue
		}
		q := b.fs.Field(ids[i])
		idx := 0
		for k := 0; k < b.G.Nz; k++ {
			for j := 0; j < b.G.Ny; j++ {
				copy(q.Row(j, k), vr.Data[idx:idx+b.G.Nx])
				idx += b.G.Nx
			}
		}
	}
	if vr := f.Var("T_guess_halo"); vr != nil {
		if len(vr.Data) == len(b.T.Data) {
			copy(b.T.Data, vr.Data)
		} else {
			// A file written when one-point axes still carried ghost planes:
			// the same seeds in the wider layout. Any other length is not a
			// T image of this block and is ignored, as a missing one is.
			b.T.CopyFromUniformGhost(vr.Data)
		}
	}
	b.Step = step
	b.Time = tme
	return nil
}
