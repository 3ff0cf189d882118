package workflow

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/s3dgo/s3d/internal/sdf"
)

// writeRestart fabricates a per-rank restart SDF on jaguar plus its .done
// sentinel.
func writeRestart(t *testing.T, dir string, step int) string {
	t.Helper()
	f := sdf.New()
	f.Attrs["step"] = fmt.Sprintf("%d", step)
	for rank := 0; rank < 3; rank++ {
		name := fmt.Sprintf("T.%d", rank)
		if err := f.AddVar(name, []int{4}, []float64{1, 2, 3, float64(rank)}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("restart-%04d.sdf", step))
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".done", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeAnalysis(t *testing.T, dir string, step int, val float64) {
	t.Helper()
	f := sdf.New()
	f.Attrs["step"] = fmt.Sprintf("%d", step)
	if err := f.AddVar("temp", []int{3}, []float64{val, val + 1, val + 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile(filepath.Join(dir, fmt.Sprintf("analysis-%04d.sdf", step))); err != nil {
		t.Fatal(err)
	}
}

func TestS3DMonitorEndToEnd(t *testing.T) {
	root := t.TempDir()
	c, err := NewCluster(root)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated run: three restart dumps, two analysis files, one minmax log.
	for s := 1; s <= 3; s++ {
		writeRestart(t, c.JaguarRestart, s)
	}
	writeAnalysis(t, c.JaguarNetcdf, 1, 300)
	writeAnalysis(t, c.JaguarNetcdf, 2, 800)
	if err := os.WriteFile(filepath.Join(c.JaguarMinMax, "minmax-1.txt"), []byte("T 300 2100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.StopAll(); err != nil {
		t.Fatal(err)
	}
	wf, err := S3DMonitor(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := wf.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// Archived and shipped morphed restarts.
	for s := 1; s <= 3; s++ {
		base := fmt.Sprintf("restart-%04d.morphed.sdf", s)
		for _, dir := range []string{c.HPSS, c.Sandia} {
			if _, err := os.Stat(filepath.Join(dir, base)); err != nil {
				t.Fatalf("missing %s in %s: %v", base, dir, err)
			}
		}
		// Morphing merged the three per-rank variables into one.
		m, err := sdf.ReadFile(filepath.Join(c.HPSS, base))
		if err != nil {
			t.Fatal(err)
		}
		if v := m.Var("T"); v == nil || len(v.Data) != 12 {
			t.Fatalf("morphed variable wrong: %+v", m.Vars)
		}
	}
	// Dashboard has min/max rows for both analysis steps.
	rows, err := os.ReadFile(filepath.Join(c.Dashboard, "minmax.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rows), "1,temp,300") || !strings.Contains(string(rows), "2,temp,800") {
		t.Fatalf("dashboard rows wrong:\n%s", rows)
	}
	// ASCII minmax file staged.
	if _, err := os.Stat(filepath.Join(c.Dashboard, "minmax-1.txt")); err != nil {
		t.Fatal(err)
	}
	if c.TransferredBytes.Load() == 0 {
		t.Fatal("no transfer accounting")
	}
}

func TestWorkflowRestartSkipsCheckpointed(t *testing.T) {
	root := t.TempDir()
	c, err := NewCluster(root)
	if err != nil {
		t.Fatal(err)
	}
	writeRestart(t, c.JaguarRestart, 1)
	if err := c.StopAll(); err != nil {
		t.Fatal(err)
	}
	wf1, err := S3DMonitor(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := wf1.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// Second run over the same tree: every stage must be skipped.
	wf2, err := S3DMonitor(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := wf2.Run(ctx); err != nil {
		t.Fatal(err)
	}
	skips := 0
	for _, e := range wf2.Events() {
		if strings.Contains(e, "skip (checkpointed)") {
			skips++
		}
	}
	if skips < 4 { // stage, morph, archive, sandia
		t.Fatalf("expected ≥4 checkpointed skips, got %d: %v", skips, wf2.Events())
	}
}

func TestProcessFileRetriesThenSucceeds(t *testing.T) {
	root := t.TempDir()
	in := NewPort()
	out := NewPort()
	attempts := 0
	p := &ProcessFile{
		ActorName: "flaky",
		In:        in, Out: out,
		ErrLog: filepath.Join(root, "err.log"),
		Op: func(path string) (string, error) {
			attempts++
			if attempts < 3 {
				return "", errors.New("transient")
			}
			return path + ".out", nil
		},
	}
	sink := &Collect{ActorName: "sink", In: out}
	wf := New("retry-test")
	wf.Add(p, sink)
	in <- Token{Path: "/data/file1"}
	close(in)
	if err := wf.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	toks := sink.Tokens()
	if len(toks) != 1 || toks[0].Path != "/data/file1.out" {
		t.Fatalf("bad output tokens: %+v", toks)
	}
	// Error log recorded the transient failures.
	log, err := os.ReadFile(p.ErrLog)
	if err != nil || strings.Count(string(log), "transient") != 2 {
		t.Fatalf("error log wrong: %s (%v)", log, err)
	}
}

func TestProcessFileGivesUpButContinues(t *testing.T) {
	in := NewPort()
	out := NewPort()
	p := &ProcessFile{
		ActorName: "dead", In: in, Out: out,
		Op: func(path string) (string, error) {
			if strings.Contains(path, "bad") {
				return "", errors.New("permanent")
			}
			return path, nil
		},
	}
	sink := &Collect{ActorName: "sink", In: out}
	wf := New("failure-test")
	wf.Add(p, sink)
	in <- Token{Path: "/bad"}
	in <- Token{Path: "/good"}
	close(in)
	if err := wf.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	toks := sink.Tokens()
	if len(toks) != 1 || toks[0].Path != "/good" {
		t.Fatalf("failure not isolated: %+v", toks)
	}
}

func TestFileWatcherWaitsForDoneSentinel(t *testing.T) {
	dir := t.TempDir()
	out := NewPort()
	w := &FileWatcher{ActorName: "w", Dir: dir, Glob: "*.sdf", Out: out,
		RequireDone: true, Interval: time.Millisecond}
	sink := &Collect{ActorName: "sink", In: out}
	wf := New("watch-test")
	wf.Add(w, sink)

	path := filepath.Join(dir, "a.sdf")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- wf.Run(context.Background()) }()
	// Without the sentinel nothing must be emitted.
	time.Sleep(20 * time.Millisecond)
	if n := len(sink.Tokens()); n != 0 {
		t.Fatalf("premature emission: %d", n)
	}
	if err := os.WriteFile(path+".done", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := os.WriteFile(filepath.Join(dir, "STOP"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := len(sink.Tokens()); n != 1 {
		t.Fatalf("tokens = %d, want 1", n)
	}
}

func TestTokenProvenanceAccumulates(t *testing.T) {
	tok := Token{Path: "/a", Meta: map[string]string{"source": "sim"}}
	tok2 := tok.WithMeta("stage", "ewok")
	if tok2.Meta["source"] != "sim" || tok2.Meta["stage"] != "ewok" {
		t.Fatalf("provenance lost: %+v", tok2)
	}
	if _, ok := tok.Meta["stage"]; ok {
		t.Fatal("WithMeta mutated the original")
	}
}

func TestCheckpointPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	c1, err := NewCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Mark("stage fileA"); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Done("stage fileA") || c2.Done("stage fileB") {
		t.Fatal("checkpoint not persisted correctly")
	}
}
