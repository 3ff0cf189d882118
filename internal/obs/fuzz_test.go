package obs

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"
)

// FuzzReadTrace feeds ReadTrace arbitrary byte streams: it must return
// records plus an error or records plus nil, never panic, and never lose a
// valid prefix — the records of a real trace written ahead of the fuzzed
// bytes always come back first, followed by exactly the records, and the
// verdict, the fuzzed bytes get on their own. The corpus is that trace
// (cmd/s3d -problem box -steps 3 -checkpoint 3: run_start, three steps,
// checkpoints, run_done) whole, cut at every line end and cut mid-record.
func FuzzReadTrace(f *testing.F) {
	valid, err := os.ReadFile("testdata/trace_3step.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	want, err := ReadTrace(bytes.NewReader(valid))
	if err != nil || len(want) < 6 || want[0].Kind != KindRunStart || want[len(want)-1].Kind != KindRunDone {
		f.Fatalf("seed trace does not read back whole: %d records, %v", len(want), err)
	}
	f.Add(valid)
	for i, c := range valid {
		if c == '\n' {
			f.Add(valid[:i+1])  // a run killed between records
			f.Add(valid[:i/2])  // ... and inside one
			f.Add(valid[i+1:])  // a stream that starts mid-run
			f.Add(valid[i-10:]) // ... and mid-record: damage ahead of valid lines
		}
	}
	f.Add([]byte("\n \nnull\n[]\n{\"kind\":7}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		alone, aloneErr := ReadTrace(bytes.NewReader(data))
		got, gotErr := ReadTrace(io.MultiReader(bytes.NewReader(valid), bytes.NewReader(data)))
		if len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
			t.Fatalf("valid prefix lost: %d records back, err %v", len(got), gotErr)
		}
		if rest := got[len(want):]; len(rest)+len(alone) > 0 && !reflect.DeepEqual(rest, alone) {
			t.Fatalf("records after the prefix %+v differ from the stream on its own %+v", rest, alone)
		}
		if (gotErr == nil) != (aloneErr == nil) {
			t.Fatalf("verdict changed behind a valid prefix: %v vs %v", gotErr, aloneErr)
		}
	})
}
