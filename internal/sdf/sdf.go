// Package sdf is a minimal self-describing data format standing in for the
// netCDF files of the S3D workflow (paper §9): named multi-dimensional
// float64 variables with string attributes in a single binary container.
// The workflow's "netcdf analysis files" pipeline morphs, plots and
// archives these.
package sdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// magic identifies an SDF stream; the version byte follows.
var magic = [4]byte{'S', '3', 'D', 'F'}

const version = 1

// maxValues caps the element count Decode accepts for one variable.
const maxValues = 1 << 28

// Variable is one named array with its dimensions. Data holds the values
// for materialised variables; a streamed variable (AddVarFunc) carries a
// Rows source instead and produces its values only at Encode time.
type Variable struct {
	Name string
	Dims []int
	Data []float64
	Rows RowSource
}

// RowSource streams a variable's values as consecutive chunks at Encode
// time: the source calls emit once per chunk, in order, and the chunks'
// total length must equal the variable's Size. Emitted slices may alias
// live field storage — Encode copies them into its write buffer
// immediately — so large fields are written without being materialised in
// a contiguous temporary first.
type RowSource func(emit func(chunk []float64) error) error

// Size returns the expected element count of the dims.
func (v *Variable) Size() int {
	n := 1
	for _, d := range v.Dims {
		n *= d
	}
	return n
}

// File is an in-memory SDF dataset.
type File struct {
	Attrs map[string]string
	Vars  []Variable
}

// New creates an empty dataset.
func New() *File { return &File{Attrs: map[string]string{}} }

// AddVar appends a variable after validating its shape.
func (f *File) AddVar(name string, dims []int, data []float64) error {
	v := Variable{Name: name, Dims: append([]int(nil), dims...), Data: data}
	if v.Size() != len(data) {
		return fmt.Errorf("sdf: variable %q dims %v need %d values, got %d",
			name, dims, v.Size(), len(data))
	}
	f.Vars = append(f.Vars, v)
	return nil
}

// AddVarFunc appends a streamed variable: rows supplies the values at
// Encode time (see RowSource). Encode fails if the streamed element count
// does not match the dims.
func (f *File) AddVarFunc(name string, dims []int, rows RowSource) error {
	if rows == nil {
		return fmt.Errorf("sdf: variable %q has a nil row source", name)
	}
	f.Vars = append(f.Vars, Variable{Name: name, Dims: append([]int(nil), dims...), Rows: rows})
	return nil
}

// Var returns the named variable or nil.
func (f *File) Var(name string) *Variable {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return &f.Vars[i]
		}
	}
	return nil
}

// Encode writes the dataset.
func (f *File) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	writeU32 := func(v uint32) error { return binary.Write(bw, binary.LittleEndian, v) }
	writeStr := func(s string) error {
		if err := writeU32(uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeU32(uint32(len(f.Attrs))); err != nil {
		return err
	}
	// Deterministic attribute order.
	keys := make([]string, 0, len(f.Attrs))
	for k := range f.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := writeStr(k); err != nil {
			return err
		}
		if err := writeStr(f.Attrs[k]); err != nil {
			return err
		}
	}
	if err := writeU32(uint32(len(f.Vars))); err != nil {
		return err
	}
	// One scratch byte buffer encodes every chunk of every streamed
	// variable, so writing N fields costs zero per-field allocations.
	var scratch []byte
	writeChunk := func(chunk []float64) error {
		need := 8 * len(chunk)
		if cap(scratch) < need {
			scratch = make([]byte, need)
		}
		buf := scratch[:need]
		for i, x := range chunk {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		_, err := bw.Write(buf)
		return err
	}
	for i := range f.Vars {
		v := &f.Vars[i]
		if err := writeStr(v.Name); err != nil {
			return err
		}
		if err := writeU32(uint32(len(v.Dims))); err != nil {
			return err
		}
		for _, d := range v.Dims {
			if err := writeU32(uint32(d)); err != nil {
				return err
			}
		}
		if v.Rows != nil {
			n := 0
			if err := v.Rows(func(chunk []float64) error {
				n += len(chunk)
				return writeChunk(chunk)
			}); err != nil {
				return err
			}
			if n != v.Size() {
				return fmt.Errorf("sdf: variable %q dims %v need %d values, streamed %d",
					v.Name, v.Dims, v.Size(), n)
			}
			continue
		}
		if err := binary.Write(bw, binary.LittleEndian, v.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a dataset.
func Decode(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("sdf: bad magic %q", m)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("sdf: unsupported version %d", ver)
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("sdf: implausible string length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	f := New()
	chunk := make([]byte, 1<<16)
	nAttrs, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nAttrs; i++ {
		k, err := readStr()
		if err != nil {
			return nil, err
		}
		v, err := readStr()
		if err != nil {
			return nil, err
		}
		f.Attrs[k] = v
	}
	nVars, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nVars; i++ {
		name, err := readStr()
		if err != nil {
			return nil, err
		}
		nd, err := readU32()
		if err != nil {
			return nil, err
		}
		if nd > 8 {
			return nil, fmt.Errorf("sdf: variable %q has %d dims", name, nd)
		}
		dims := make([]int, nd)
		size := 1
		for d := range dims {
			v, err := readU32()
			if err != nil {
				return nil, err
			}
			// Checked before multiplying: up to eight uint32 dims overflow
			// an int, and a wrapped product can pass any check made after.
			if v > maxValues || (v != 0 && size > maxValues/int(v)) {
				return nil, fmt.Errorf("sdf: variable %q implausibly large (dim %d = %d)", name, d, v)
			}
			dims[d] = int(v)
			size *= int(v)
		}
		// Data grows as values arrive, so a truncated or hostile stream has
		// allocated what it delivered, not what its header declared.
		data := make([]float64, 0, min(size, 1<<20))
		for len(data) < size {
			n := min(size-len(data), len(chunk)/8)
			if _, err := io.ReadFull(br, chunk[:8*n]); err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*i:])))
			}
		}
		f.Vars = append(f.Vars, Variable{Name: name, Dims: dims, Data: data})
	}
	return f, nil
}

// WriteFile encodes to a path; the file appears there whole or not at all
// (WriteAtomic).
func (f *File) WriteFile(path string) error { return WriteAtomic(path, f.Encode) }

// WriteAtomic lands what write produces under path, complete or not at all:
// write fills a temporary file in path's directory, which is closed and then
// renamed onto path. On any error the temporary is removed and whatever path
// named before is left as it was, and a process that dies mid-write leaves a
// stray dot-file, never a truncated path — a restart file a reader finds is
// one a writer finished. The rename is not followed by an fsync: the
// guarantee is about visibility, not about surviving power loss.
func WriteAtomic(path string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close() // a second Close after a failed one is harmless
			os.Remove(tmp.Name())
		}
	}()
	if err = tmp.Chmod(0o644); err != nil { // CreateTemp's 0600 is for secrets
		return err
	}
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile decodes from a path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Decode(in)
}
