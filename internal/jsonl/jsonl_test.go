package jsonl

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	Step int    `json:"step"`
	Name string `json:"name"`
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jsonl")
	st, err := Create[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []rec{{Step: 1, Name: "a"}, {Step: 2, Name: "b"}} {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read[rec]("test", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Step != 1 || recs[1].Name != "b" {
		t.Fatalf("round trip lost data: %+v", recs)
	}
}

// TestReadCorruptTail pins the obs.ReadTrace-style recovery contract: a
// truncated final line (run killed mid-append) is dropped silently; damage
// followed by valid records is a real error naming the line.
func TestReadCorruptTail(t *testing.T) {
	dir := t.TempDir()

	tail := filepath.Join(dir, "tail.jsonl")
	if err := os.WriteFile(tail, []byte("{\"step\":1}\n{\"step\":2}\n{\"ste"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Read[rec]("test", tail)
	if err != nil {
		t.Fatalf("truncated tail must be tolerated, got %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want the 2-record prefix", len(recs))
	}

	mid := filepath.Join(dir, "mid.jsonl")
	if err := os.WriteFile(mid, []byte("{\"step\":1}\n{garbage\n{\"step\":3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = Read[rec]("test", mid)
	if err == nil {
		t.Fatal("mid-stream corruption must report an error")
	}
	if !strings.Contains(err.Error(), "test: ") || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("error must name the package and line: %v", err)
	}
	if len(recs) != 1 || recs[0].Step != 1 {
		t.Fatalf("got %+v, want the pre-damage prefix", recs)
	}

	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = Read[rec]("test", empty)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty store: recs=%v err=%v", recs, err)
	}

	if _, err := Read[rec]("test", filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("missing file must error")
	}
}

// FuzzRead feeds the reader arbitrary byte streams: it must return records
// plus an error or records plus nil, never panic, and never lose a valid
// prefix — three good records written ahead of the fuzzed bytes always come
// back first, with exactly the records and the verdict the fuzzed bytes get
// on their own behind them. The line limit is lowered to 256 bytes so an
// over-long line fits a small input.
func FuzzRead(f *testing.F) {
	const limit = 256
	valid := "{\"step\":1,\"name\":\"a\"}\n{\"step\":2,\"name\":\"b\"}\n{\"step\":3,\"name\":\"c\"}\n"
	want := []rec{{1, "a"}, {2, "b"}, {3, "c"}}
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-9]))                                       // truncated tail
	f.Add([]byte("{\"step\":1}\n{garbage\n{\"step\":3}\n"))                   // mid-stream corruption
	f.Add([]byte("{\"step\":1}\n" + strings.Repeat("x", 2*limit) + "\n{}\n")) // over-long line
	f.Add([]byte("\n \nnull\n[]\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		alone, aloneErr := read[rec]("fuzz: alone:", bytes.NewReader(data), limit)
		got, gotErr := read[rec]("fuzz: prefixed:", io.MultiReader(strings.NewReader(valid), bytes.NewReader(data)), limit)
		if len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
			t.Fatalf("valid prefix lost: got %+v (err %v)", got, gotErr)
		}
		if rest := got[len(want):]; len(rest)+len(alone) > 0 && !reflect.DeepEqual(rest, alone) {
			t.Fatalf("records after the prefix %+v differ from the stream on its own %+v", rest, alone)
		}
		if (gotErr == nil) != (aloneErr == nil) {
			t.Fatalf("verdict changed behind a valid prefix: %v vs %v", gotErr, aloneErr)
		}
	})
}
