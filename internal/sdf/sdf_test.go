package sdf

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	f := New()
	f.Attrs["step"] = "42"
	f.Attrs["code"] = "s3d"
	if err := f.AddVar("T", []int{2, 3}, []float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddVar("p", []int{1}, []float64{101325}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs["step"] != "42" || got.Attrs["code"] != "s3d" {
		t.Fatalf("attrs lost: %v", got.Attrs)
	}
	v := got.Var("T")
	if v == nil || len(v.Dims) != 2 || v.Dims[0] != 2 || v.Dims[1] != 3 {
		t.Fatalf("dims lost: %+v", v)
	}
	for i, want := range []float64{1, 2, 3, 4, 5, 6} {
		if v.Data[i] != want {
			t.Fatalf("data[%d] = %g", i, v.Data[i])
		}
	}
	if got.Var("missing") != nil {
		t.Fatal("phantom variable")
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(vals []float64, key, val string) bool {
		f := New()
		if key != "" {
			f.Attrs[key] = val
		}
		if err := f.AddVar("x", []int{len(vals)}, vals); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := f.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		v := got.Var("x")
		if v == nil || len(v.Data) != len(vals) {
			return false
		}
		for i := range vals {
			same := v.Data[i] == vals[i] ||
				(math.IsNaN(v.Data[i]) && math.IsNaN(vals[i]))
			if !same {
				return false
			}
		}
		return key == "" || got.Attrs[key] == val
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShapeMismatchRejected(t *testing.T) {
	f := New()
	if err := f.AddVar("bad", []int{4}, []float64{1, 2}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOPEx"))); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestTruncatedStreamRejected(t *testing.T) {
	f := New()
	_ = f.AddVar("x", []int{3}, []float64{1, 2, 3})
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Decode(bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestWriteAtomic: a writer that fails halfway leaves nothing under the final
// name — and a file already there untouched — and no temporary behind; a
// writer that finishes replaces the file whole.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "restart-000005.sdf")
	boom := errors.New("disk went away")
	halfway := func(w io.Writer) error {
		if _, err := w.Write([]byte("half a rest")); err != nil {
			return err
		}
		return boom
	}
	onlyFile := func(want string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want == "" && len(names) != 0 || want != "" && (len(names) != 1 || names[0] != want) {
			t.Fatalf("directory holds %v, want only %q", names, want)
		}
	}

	if err := WriteAtomic(path, halfway); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the writer's error", err)
	}
	onlyFile("")

	whole := func(w io.Writer) error { _, err := w.Write([]byte("a whole restart file")); return err }
	if err := WriteAtomic(path, whole); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(path, halfway); !errors.Is(err, boom) {
		t.Fatalf("failed overwrite returned %v, want the writer's error", err)
	}
	onlyFile(filepath.Base(path))
	if got, err := os.ReadFile(path); err != nil || string(got) != "a whole restart file" {
		t.Fatalf("pre-existing file after a failed overwrite: %q, %v", got, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, %v; want 0644", fi.Mode(), err)
	}
	if err := WriteAtomic(filepath.Join(dir, "missing", "x.sdf"), whole); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.sdf")
	f := New()
	_ = f.AddVar("u", []int{2}, []float64{3.5, -1})
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Var("u").Data[0] != 3.5 {
		t.Fatal("file round trip corrupt")
	}
}
