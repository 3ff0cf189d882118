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
// under its per-case name and parses: <name>.<case>.jsonl for the trace and
// the three record stores, critpath_trace.<case>.json next to the critpath
// store, <profile>/case<case>/ for the profile artifacts, and the figure-12
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
		"-analysis", at("analysis.jsonl"), "-analysis-every", "2",
		"-cost", at("cost.jsonl"), "-cost-every", "2",
		"-critpath", at("critpath.jsonl"), "-critpath-every", "2",
	}
	main()

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
		if len(recs) != 6 || recs[0].Kind != obs.KindRunStart || recs[5].Kind != obs.KindRunDone { // run_start + 4 steps + run_done
			t.Fatalf("case %s: trace has %d records", id, len(recs))
		}
		if got := recs[0].Run.Case; got != "bunsen-"+id {
			t.Fatalf("case %s: run_start names case %q", id, got)
		}
		if cfg := recs[0].Run.Config; cfg["health"] != "on" || cfg["critpath_every"] != "2" {
			t.Fatalf("case %s: run_start manifest does not name what was armed: %v", id, cfg)
		}

		if a, err := s3d.ReadAnalysis(at("analysis." + id + ".jsonl")); err != nil || len(a) != 2 || a[1].Step != 4 {
			t.Fatalf("case %s analysis store: %d records, err %v", id, len(a), err)
		}
		if c, err := s3d.ReadCost(at("cost." + id + ".jsonl")); err != nil || len(c) != 2 || c[1].Step != 4 {
			t.Fatalf("case %s cost store: %d records, err %v", id, len(c), err)
		}
		if c, err := s3d.ReadCritPath(at("critpath." + id + ".jsonl")); err != nil || len(c) != 2 || c[1].Step != 4 {
			t.Fatalf("case %s critpath store: %d records, err %v", id, len(c), err)
		}
		for _, name := range []string{"critpath_trace." + id + ".json", "prof/case" + id + "/trace.json"} {
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
