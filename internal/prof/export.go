package prof

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/sdf"
)

// Export writes the complete profile artifact set into dir (created if
// missing):
//
//	trace.json    Chrome trace_event timeline (chrome://tracing, Perfetto)
//	callpath.txt  inclusive/exclusive call-path tree + cross-rank imbalance
//	callpath.csv  the same tree in CSV
//	roofline.txt  measured-vs-modelled roofline per kernel
//
// A zero shape skips the roofline report (no grid information available).
// Each file appears whole or not at all (sdf.WriteAtomic).
func Export(dir string, p *Profiler, shape RunShape, machines []perf.Machine) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("prof: export dir: %w", err)
	}
	snaps := p.Snapshot()
	err := sdf.WriteAtomic(filepath.Join(dir, "trace.json"), func(w io.Writer) error {
		return WriteChromeTraceFrom(w, snaps)
	})
	if err != nil {
		return fmt.Errorf("prof: trace export: %w", err)
	}
	writeText := func(name, text string) error {
		return sdf.WriteAtomic(filepath.Join(dir, name), func(w io.Writer) error {
			_, err := io.WriteString(w, text)
			return err
		})
	}
	rep := BuildFrom(snaps)
	if err := writeText("callpath.txt", rep.Text()); err != nil {
		return err
	}
	if err := writeText("callpath.csv", rep.CSV()); err != nil {
		return err
	}
	if shape.PointsPerRank > 0 {
		rows := Roofline(rep, shape, machines)
		if err := writeText("roofline.txt", FormatRoofline(rows, machines)); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the live profile of a running simulation:
//
//	<prefix>/trace.json    Chrome trace_event timeline so far
//	<prefix>/callpath.txt  call-path report so far
//	<prefix>/callpath.csv  CSV call-path report
//	<prefix>/roofline.txt  roofline report (when shape is known)
//
// Mount it on the obs monitor under a stripped prefix.
func Handler(p *Profiler, shape RunShape, machines []perf.Machine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, p)
	})
	mux.HandleFunc("/callpath.txt", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(Build(p).Text()))
	})
	mux.HandleFunc("/callpath.csv", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		_, _ = w.Write([]byte(Build(p).CSV()))
	})
	mux.HandleFunc("/roofline.txt", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if shape.PointsPerRank <= 0 {
			http.Error(w, "roofline unavailable: run shape unknown", http.StatusNotFound)
			return
		}
		rows := Roofline(Build(p), shape, machines)
		_, _ = w.Write([]byte(FormatRoofline(rows, machines)))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "profile endpoints: trace.json callpath.txt callpath.csv roofline.txt")
	})
	return mux
}
