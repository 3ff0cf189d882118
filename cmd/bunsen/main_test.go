package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/obs"
)

// TestBunsenSmoke drives the real CLI over the three cases on a tiny grid
// with every shared flag set and checks that each promised artifact exists
// under its per-case name and parses: trace.<case>.jsonl for the trace and
// the three layers' records in it, <out>/critpath_trace.<case>.json,
// <profile>/case<case>/ for the profile artifacts, and the figure-12
// rendering.
func TestBunsenSmoke(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	os.Args = []string{"bunsen", "-surface",
		"-nx", "24", "-ny", "18", "-steps", "4", "-workers", "2",
		"-out", at("out"),
		"-trace", at("trace.jsonl"), "-monitor", "127.0.0.1:0",
		"-profile", at("prof"),
		"-health", "-flightrec", at("bundles"),
		"-analysis", "2", "-cost", "2", "-critpath", "2",
	}
	main()

	if jsonl, _ := filepath.Glob(at("*.jsonl")); len(jsonl) != 3 {
		t.Fatalf("the run wrote %v, want the three case traces alone", jsonl)
	}
	for _, id := range []string{"A", "B", "C"} {
		f, err := os.Open(at("trace." + id + ".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		// run_start + 4 steps + 2 × (analysis, cost, critpath) + run_done
		if len(recs) != 12 || recs[0].Kind != obs.KindRunStart || recs[11].Kind != obs.KindRunDone {
			t.Fatalf("case %s: trace has %d records", id, len(recs))
		}
		if got := recs[0].Run.Case; got != "bunsen-"+id {
			t.Fatalf("case %s: run_start names case %q", id, got)
		}
		if cfg := recs[0].Run.Config; cfg["health"] != "on" || cfg["critpath_every"] != "2" {
			t.Fatalf("case %s: run_start manifest does not name what was armed: %v", id, cfg)
		}

		trace := at("trace." + id + ".jsonl")
		if a, err := s3d.ReadAnalysis(trace); err != nil || len(a) != 2 || a[1].Step != 4 {
			t.Fatalf("case %s analysis records: %d, err %v", id, len(a), err)
		}
		if c, err := s3d.ReadCost(trace); err != nil || len(c) != 2 || c[1].Step != 4 {
			t.Fatalf("case %s cost records: %d, err %v", id, len(c), err)
		}
		if c, err := s3d.ReadCritPath(trace); err != nil || len(c) != 2 || c[1].Step != 4 {
			t.Fatalf("case %s critpath records: %d, err %v", id, len(c), err)
		}
		for _, name := range []string{"out/critpath_trace." + id + ".json", "prof/case" + id + "/trace.json"} {
			raw, err := os.ReadFile(at(name))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Fatalf("%s: %d events, err %v", name, len(doc.TraceEvents), err)
			}
		}
		for _, name := range []string{"callpath.txt", "callpath.csv", "roofline.txt"} {
			if fi, err := os.Stat(at("prof/case" + id + "/" + name)); err != nil || fi.Size() == 0 {
				t.Fatalf("case %s %s missing or empty: %v", id, name, err)
			}
		}
		if fi, err := os.Stat(at("out/fig12_case" + id + ".png")); err != nil || fi.Size() == 0 {
			t.Fatalf("case %s figure 12 missing or empty: %v", id, err)
		}
	}
}
