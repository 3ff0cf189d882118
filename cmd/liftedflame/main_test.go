package main

import (
	"encoding/json"
	"image/png"
	"os"
	"path/filepath"
	"testing"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/vexp"
)

// TestLiftedFlameSmoke drives the real CLI on a tiny jet with every shared
// flag set and checks that each promised artifact exists and parses: the
// run trace (whose run_start manifest must name what was armed, and which
// holds the three layers' records at their cadence), the critical-path
// overlay in the output directory, the profile artifacts, the figure-10
// rendering and the figure-14 and -15 PNGs.
func TestLiftedFlameSmoke(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	os.Args = []string{"liftedflame",
		"-nx", "32", "-ny", "24", "-steps", "4", "-workers", "2",
		"-out", at("out"),
		"-trace", at("trace.jsonl"), "-monitor", "127.0.0.1:0",
		"-profile", at("prof"),
		"-health", "-flightrec", at("bundles"),
		"-analysis", "2", "-cost", "2", "-critpath", "2",
	}
	main()

	f, err := os.Open(at("trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	// run_start + 4 steps + 2 × (analysis, cost, critpath) + run_done
	if len(recs) != 12 || recs[0].Kind != obs.KindRunStart || recs[11].Kind != obs.KindRunDone {
		t.Fatalf("trace has %d records", len(recs))
	}
	cfg := recs[0].Run.Config
	for k, want := range map[string]string{
		"health": "on", "profile": "on", "steps": "4",
		"analysis_every": "2", "cost_every": "2", "critpath_every": "2",
		"vexp": vexp.Kernel(),
	} {
		if cfg[k] != want {
			t.Fatalf("run_start manifest %q = %q, want %q (manifest %v)", k, cfg[k], want, cfg)
		}
	}
	if recs[11].Done.ExitMessage != "completed" {
		t.Fatalf("run_done exit %q", recs[11].Done.ExitMessage)
	}

	if a, err := s3d.ReadAnalysis(at("trace.jsonl")); err != nil || len(a) != 2 || a[1].Step != 4 {
		t.Fatalf("analysis records: %d, err %v", len(a), err)
	}
	if c, err := s3d.ReadCost(at("trace.jsonl")); err != nil || len(c) != 2 || c[1].Step != 4 {
		t.Fatalf("cost records: %d, err %v", len(c), err)
	}
	if c, err := s3d.ReadCritPath(at("trace.jsonl")); err != nil || len(c) != 2 || c[1].Step != 4 {
		t.Fatalf("critpath records: %d, err %v", len(c), err)
	}
	if jsonl, _ := filepath.Glob(at("*.jsonl")); len(jsonl) != 1 {
		t.Fatalf("the run wrote %v, want the trace alone", jsonl)
	}
	for _, name := range []string{"out/critpath_trace.json", "prof/trace.json"} {
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
	for _, name := range []string{"prof/callpath.txt", "prof/callpath.csv", "prof/roofline.txt", "out/fig10_oh_ho2.png"} {
		if fi, err := os.Stat(at(name)); err != nil || fi.Size() == 0 {
			t.Fatalf("%s missing or empty: %v", name, err)
		}
	}
	// The §8 renderings come from the same run.
	for _, name := range []string{"fig14_iso_ho2.png", "fig14_iso_oh.png", "fig14_oh_ho2.png",
		"fig15_parallel_coords.png", "fig15_time_histogram.png"} {
		f, err := os.Open(at("out/" + name))
		if err != nil {
			t.Fatal(err)
		}
		_, err = png.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// A healthy run leaves no post-mortem bundle.
	if _, err := os.Stat(at("bundles")); !os.IsNotExist(err) {
		t.Fatalf("healthy run wrote a bundle directory: %v", err)
	}
}
