package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/s3dgo/s3d"
	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/obs"
)

// TestProfileSmoke drives the real CLI end-to-end on a tiny decomposed
// inert box with -profile and validates the emitted artifacts: the
// trace_event JSON must parse, carry a track per rank and per pool worker,
// and show at least one complete span on every rank including the comm
// wait and figure-2 kernel regions; the call-path and roofline reports
// must render.
func TestProfileSmoke(t *testing.T) {
	dir := t.TempDir()
	profDir := filepath.Join(dir, "prof")
	os.Args = []string{"s3d",
		"-problem", "box", "-nx", "24", "-ny", "16", "-nz", "1",
		"-steps", "2", "-ranks", "2x1x1", "-workers", "2",
		"-out", filepath.Join(dir, "out"),
		"-profile", profDir,
	}
	main()

	raw, err := os.ReadFile(filepath.Join(profDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}

	type track struct{ pid, tid int }
	trackName := map[track]string{}
	spansPerTrack := map[track]int{}
	regions := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		key := track{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				trackName[key], _ = ev.Args["name"].(string)
			}
		case "X":
			spansPerTrack[key]++
			regions[ev.Name] = true
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}

	byName := map[string]int{}
	for key, name := range trackName {
		byName[name] = spansPerTrack[key]
	}
	for _, want := range []string{"rank0", "rank1", "worker0", "worker1"} {
		n, ok := byName[want]
		if !ok {
			t.Fatalf("trace has no %s track (tracks: %v)", want, trackName)
		}
		if n < 1 {
			t.Fatalf("track %s has no spans", want)
		}
	}
	for _, want := range []string{"STEP", "RHS", "GHOST_EXCHANGE", "MPI_WAIT", "COMPUTE_PRIMITIVES", "RK_UPDATE"} {
		if !regions[want] {
			t.Fatalf("trace missing region %q (got %v)", want, regions)
		}
	}

	callpath, err := os.ReadFile(filepath.Join(profDir, "callpath.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"RHS", "imb%", "rank0"} {
		if !strings.Contains(string(callpath), want) {
			t.Fatalf("callpath.txt missing %q:\n%s", want, callpath)
		}
	}
	if _, err := os.ReadFile(filepath.Join(profDir, "callpath.csv")); err != nil {
		t.Fatal(err)
	}
	roofline, err := os.ReadFile(filepath.Join(profDir, "roofline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"COMPUTE_PRIMITIVES", "XT3", "host"} {
		if !strings.Contains(string(roofline), want) {
			t.Fatalf("roofline.txt missing %q:\n%s", want, roofline)
		}
	}
}

// TestHealthSmoke drives the real CLI on a 2-rank reacting lifted-jet case
// with the NaN-injection test hook and validates the structured abort: main
// must return (not panic), every rank must leave a parseable flight.jsonl
// in its bundle subdirectory, and the injected rank's violation.json must
// name a real check plus carry the emergency checkpoint alongside.
//
// The NaN lands on the last rank (rank 1 here); on these narrow 16-wide
// slabs the contamination crosses the halo within the trip step, so both
// ranks may report a local fault — the test does not assume rank 0 sees a
// "remote" violation, only that both terminate cleanly with bundles.
//
// check.sh's race pass (go test -race ./...) makes this the health gate: a
// forced mid-run NaN must end in a structured violation and a clean exit on
// every rank — no panic, no deadlocked neighbour, no leaked goroutine.
func TestHealthSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	os.Args = []string{"s3d",
		"-problem", "liftedjet", "-nx", "32", "-ny", "24", "-nz", "1",
		"-steps", "8", "-ranks", "2x1x1", "-workers", "2",
		"-out", out,
		"-inject-nan", "3",
	}
	main() // a panic here means the watchdog failed to absorb the fault

	bundle := filepath.Join(out, "health")
	for _, rank := range []string{"rank0", "rank1"} {
		frames, err := health.ReadFlight(filepath.Join(bundle, rank, "flight.jsonl"))
		if err != nil {
			t.Fatalf("%s flight recorder: %v", rank, err)
		}
		if len(frames) == 0 {
			t.Fatalf("%s flight recorder is empty", rank)
		}
		for i := 1; i < len(frames); i++ {
			if frames[i].Step != frames[i-1].Step+1 {
				t.Fatalf("%s flight frames not consecutive: step %d follows %d",
					rank, frames[i].Step, frames[i-1].Step)
			}
		}
	}

	// The injected rank's post-mortem names the trip.
	raw, err := os.ReadFile(filepath.Join(bundle, "rank1", "violation.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st health.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("violation.json does not parse: %v", err)
	}
	if st.Level != "fatal" {
		t.Fatalf("rank1 status level = %q, want fatal", st.Level)
	}
	if st.Violation == nil {
		t.Fatal("rank1 violation.json has no violation record")
	}
	if st.Violation.Check == "" || st.Violation.Check == "remote" {
		t.Fatalf("rank1 violation check = %q, want a local physics check", st.Violation.Check)
	}
	if st.Violation.Rank != 1 {
		t.Fatalf("rank1 violation rank = %d, want 1", st.Violation.Rank)
	}
	if st.Violation.Step < 3 {
		t.Fatalf("violation step = %d, want ≥ 3 (injection step)", st.Violation.Step)
	}

	matches, err := filepath.Glob(filepath.Join(bundle, "rank1", "emergency-*.sdf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no emergency checkpoint written in rank1 bundle")
	}
	if fi, err := os.Stat(matches[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("emergency checkpoint unreadable or empty: %v", err)
	}
}

// TestRankErrorLandsArtifacts: a rank that panics (a NaN with no watchdog to
// absorb it) fails the run, and the run still lands what it recorded — the
// trace holds every step completed before the fault and the profile export
// exists — because those are the files that say why it died.
func TestRankErrorLandsArtifacts(t *testing.T) {
	dir := t.TempDir()
	trace, profDir := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "prof")
	fs := flag.NewFlagSet("s3d", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse([]string{
		"-problem", "liftedjet", "-nx", "32", "-ny", "24", "-nz", "1",
		"-steps", "6", "-ranks", "2x1x1", "-workers", "1",
		"-out", filepath.Join(dir, "out"), "-trace", trace, "-profile", profDir,
		"-inject-nan", "3", // main() would arm -health; run() is called without it
	}); err != nil {
		t.Fatal(err)
	}
	session, err := o.Open(o.outDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(buildProblem(o.problem, o.nx, o.ny, o.nz), o, [3]int{2, 1, 1}, session); err == nil {
		t.Fatal("a NaN without the watchdog must fail the run")
	}
	recs, err := obs.ReadTraceFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if sum := obs.Summarize(recs); sum.Steps < 2 || sum.Done {
		t.Fatalf("trace after a rank panic: %d steps, done=%v; want the steps before the fault and no run_done", sum.Steps, sum.Done)
	}
	if _, err := os.Stat(filepath.Join(profDir, "trace.json")); err != nil {
		t.Fatalf("profile export missing after a rank panic: %v", err)
	}
}

// TestCritPathSmoke drives the real CLI on a 2-rank reacting lifted jet
// with the wait-state analyzer armed and the last rank's chemistry slowed
// via -straggle, then validates the artifacts: the trace's critpath records
// must show the critical path running through the slowed rank with the other
// rank in late-sender waits, and the Chrome-trace overlay must be written to
// the output directory. The
// straggle is large (25 ms × 6 stages per step) so it dominates real
// compute even on a single-CPU box where the rank goroutines time-slice.
// check.sh's race pass runs it too: the injected straggler must be blamed
// end to end with the detector on.
func TestCritPathSmoke(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	os.Args = []string{"s3d",
		"-problem", "liftedjet", "-nx", "32", "-ny", "24", "-nz", "1",
		"-steps", "4", "-ranks", "2x1x1", "-workers", "1",
		"-out", filepath.Join(dir, "out"), "-trace", trace,
		"-critpath", "2",
		"-straggle", "25ms",
	}
	main()

	recs, err := s3d.ReadCritPath(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 { // steps 2 and 4 at cadence 2
		t.Fatalf("got %d critpath records, want 2", len(recs))
	}
	for i, want := range []int{2, 4} {
		rec := recs[i]
		if rec.Step != want || rec.Ranks != 2 {
			t.Fatalf("record %d: step %d ranks %d, want step %d on 2 ranks", i, rec.Step, rec.Ranks, want)
		}
		if rec.CritRank != 1 { // -straggle slows the last rank
			t.Fatalf("record %d: critical path through rank %d, want 1\n%s", i, rec.CritRank, rec.Verdict)
		}
		if rec.DominantWait != "late_sender" {
			t.Fatalf("record %d: dominant wait %q, want late_sender", i, rec.DominantWait)
		}
		if rec.MatchCompleteness != 1 {
			t.Fatalf("record %d: match completeness %v, want 1", i, rec.MatchCompleteness)
		}
		if !strings.Contains(rec.Verdict, "rank 1") {
			t.Fatalf("record %d verdict does not name the straggler: %q", i, rec.Verdict)
		}
	}

	overlay, err := os.ReadFile(filepath.Join(dir, "out", "critpath_trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical-path", "crit:rank1"} {
		if !strings.Contains(string(overlay), want) {
			t.Fatalf("critpath_trace.json missing %q", want)
		}
	}
}

// TestAnalysisSmoke drives the real CLI on a 2-rank decomposed inert box
// with the in-situ reduction pipeline enabled and validates the artifact:
// the trace's analysis records must load, respect the cadence, and carry
// finite science products on every record.
func TestAnalysisSmoke(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	os.Args = []string{"s3d",
		"-problem", "box", "-nx", "24", "-ny", "16", "-nz", "1",
		"-steps", "4", "-ranks", "2x1x1", "-workers", "2",
		"-out", filepath.Join(dir, "out"), "-trace", trace,
		"-analysis", "2",
	}
	main()

	recs, err := s3d.ReadAnalysis(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 { // steps 2 and 4 at cadence 2
		t.Fatalf("got %d analysis records, want 2", len(recs))
	}
	for i, want := range []int{2, 4} {
		rec := recs[i]
		if rec.Step != want || rec.Time <= 0 {
			t.Fatalf("record %d: step %d time %g, want step %d", i, rec.Step, rec.Time, want)
		}
		if len(rec.Products) == 0 {
			t.Fatalf("record %d has no products", i)
		}
		seen := map[string]bool{}
		for _, pr := range rec.Products {
			seen[pr.Name] = true
			for k, v := range pr.Scalars {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("record %d %s.%s is not finite", i, pr.Name, k)
				}
			}
		}
		// The inert box's standard spec: Favre temperature moments and the
		// temperature histogram at minimum.
		for _, want := range []string{"T_favre", "T"} {
			if !seen[want] {
				t.Fatalf("record %d missing product %q (have %v)", i, want, seen)
			}
		}
	}
}

// TestOneRankIsSerial: a serial run is the 1x1x1 decomposition, so the CLI
// with no -ranks and with -ranks 1x1x1 — the reacting NSCBC jet, periodic
// checkpoints, the watchdog and the analysis and cost layers armed — must
// print the same lines, write byte-identical restart and analysis files and
// trace byte-identical analysis records; the cost records (wall-clock) must
// fall on the same steps.
func TestOneRankIsSerial(t *testing.T) {
	run := func(ranks ...string) (stdout string, files map[string]string) {
		dir := t.TempDir()
		out, err := os.Create(filepath.Join(dir, "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		saved := os.Stdout
		os.Stdout = out
		defer func() { os.Stdout = saved }()
		trace := filepath.Join(dir, "trace.jsonl")
		os.Args = append([]string{"s3d",
			"-problem", "liftedjet", "-nx", "24", "-ny", "16", "-nz", "1",
			"-steps", "6", "-checkpoint", "3", "-workers", "2", "-health",
			"-trace", trace, "-analysis", "1", "-cost", "1",
			"-out", dir,
		}, ranks...)
		main()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		files = map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || e.Name() == "trace.jsonl" {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = strings.ReplaceAll(string(raw), dir, "OUT")
		}
		recs, err := obs.ReadTraceFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			switch r.Kind {
			case obs.KindAnalysis:
				files["analysis records"] += string(r.Payload) + "\n"
			case obs.KindCost:
				var c s3d.CostRecord
				if err := json.Unmarshal(r.Payload, &c); err != nil {
					t.Fatal(err)
				}
				files["cost steps"] += fmt.Sprint(" ", c.Step)
			}
		}
		stdout = files["stdout"]
		delete(files, "stdout")
		return stdout, files
	}
	serialOut, serial := run()
	oneRankOut, oneRank := run("-ranks", "1x1x1")
	if serialOut != oneRankOut {
		t.Errorf("stdout differs:\n--- no -ranks\n%s--- -ranks 1x1x1\n%s", serialOut, oneRankOut)
	}
	for _, want := range []string{"restart-000003.sdf", "restart-000006.sdf", "analysis-000006.sdf", "analysis records", "cost steps"} {
		if serial[want] == "" {
			t.Errorf("serial run wrote no %s (have %d files)", want, len(serial))
		}
	}
	if len(serial) != len(oneRank) {
		t.Errorf("serial run wrote %d files, -ranks 1x1x1 %d", len(serial), len(oneRank))
	}
	for name, data := range serial {
		if oneRank[name] != data {
			t.Errorf("%s differs between no -ranks and -ranks 1x1x1", name)
		}
	}
	if serial["cost steps"] != " 1 2 3 4 5 6" {
		t.Errorf("the trace holds cost records at steps%s, want one per step", serial["cost steps"])
	}
	if !strings.Contains(serialOut, "step     6 ") || !strings.Contains(serialOut, "ranks=1x1x1") {
		t.Errorf("progress lines missing:\n%s", serialOut)
	}
}

// TestCheckpointsObserverIndependent: an observed run writes its checkpoints
// the way an unobserved one does — one streaming path to disk — so -trace and
// -profile change no byte of any restart or analysis file, and the trace
// names every file written, once.
func TestCheckpointsObserverIndependent(t *testing.T) {
	run := func(observe bool) (sdfs map[string]string, trace string) {
		dir := t.TempDir()
		os.Args = []string{"s3d",
			"-problem", "box", "-nx", "24", "-ny", "16", "-nz", "1",
			"-steps", "12", "-checkpoint", "6", "-out", dir,
		}
		if observe {
			trace = filepath.Join(dir, "trace.jsonl")
			os.Args = append(os.Args, "-trace", trace, "-profile", filepath.Join(dir, "prof"))
		}
		main()
		paths, err := filepath.Glob(filepath.Join(dir, "*.sdf"))
		if err != nil {
			t.Fatal(err)
		}
		sdfs = map[string]string{}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			sdfs[filepath.Base(p)] = string(raw)
		}
		return sdfs, trace
	}
	plain, _ := run(false)
	observed, trace := run(true)
	for _, want := range []string{"restart-000006.sdf", "analysis-000006.sdf", "restart-000012.sdf", "analysis-000012.sdf"} {
		if plain[want] == "" {
			t.Errorf("unobserved run wrote no %s", want)
		}
	}
	if len(observed) != len(plain) {
		t.Errorf("unobserved run wrote %d .sdf files, observed run %d", len(plain), len(observed))
	}
	for name, data := range plain {
		if observed[name] != data {
			t.Errorf("%s differs with -trace -profile", name)
		}
	}
	recs, err := obs.ReadTraceFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	// Step 12 is both a periodic and the final checkpoint, written once:
	// 2 × 2 files.
	if sum := obs.Summarize(recs); sum.Steps != 12 || sum.Checkpoints != 4 || !sum.Done {
		t.Errorf("trace summary: %+v", sum)
	}
	named := map[string]int{}
	for _, r := range recs {
		if r.Kind == obs.KindCheckpoint {
			named[filepath.Base(r.Checkpoint.Path)]++
		}
	}
	if len(named) != len(plain) {
		t.Errorf("trace names %v, the run wrote %d files", named, len(plain))
	}
	for name, n := range named {
		if n != 1 || plain[name] == "" {
			t.Errorf("trace names %s %d times (written: %v)", name, n, plain[name] != "")
		}
	}
}

// TestRanksRejectsCheckpointAndResume: a decomposed run writes no restart
// files and cannot resume from one, so -ranks with -checkpoint or -resume is
// refused at flag-parse time — before the output directory exists — with an
// error naming both flags, instead of being silently ignored. The test
// re-executes itself as the CLI to see the exit status.
func TestRanksRejectsCheckpointAndResume(t *testing.T) {
	if args := os.Getenv("S3D_TEST_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"s3d"}, strings.Fields(args)...)
		main()
		return
	}
	self, err := os.Executable() // os.Args[0] is rewritten by the tests above
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []string{"-checkpoint 5", "-resume x.sdf"} {
		out := filepath.Join(t.TempDir(), "out")
		cmd := exec.Command(self, "-test.run", "^TestRanksRejectsCheckpointAndResume$")
		cmd.Env = append(os.Environ(), "S3D_TEST_MAIN_ARGS=-problem box -nx 24 -ny 16 -steps 2 -ranks 2x1x1 "+extra+" -out "+out)
		msg, err := cmd.CombinedOutput()
		if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) {
			t.Fatalf("-ranks 2x1x1 %s: err %v, want a non-zero exit\n%s", extra, err, msg)
		}
		flagName := strings.Fields(extra)[0]
		if !strings.Contains(string(msg), flagName+" is not supported with -ranks") {
			t.Fatalf("-ranks 2x1x1 %s: message does not name the combination:\n%s", extra, msg)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("-ranks 2x1x1 %s: output directory was created before the refusal (stat err %v)", extra, err)
		}
	}
	// The same flags stay legal on their own.
	for _, args := range [][]string{{"-ranks", "2x1x1"}, {"-checkpoint", "5", "-resume", "x.sdf"}, {"-ranks", "1x1x1", "-checkpoint", "5", "-resume", "x.sdf"}} {
		fs := flag.NewFlagSet("s3d", flag.ContinueOnError)
		o := bindFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := o.decomposition(); err != nil {
			t.Fatalf("%v refused: %v", args, err)
		}
	}
}
