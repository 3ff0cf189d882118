package s3d

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3dgo/s3d/internal/health"
	"github.com/s3dgo/s3d/internal/obs"
)

// runCase drives body over problem p, serially or over a rank grid; body runs once per rank on a simulation holding its initial
// state. A body panic fails the test.
func runCase(t *testing.T, p *Problem, dims [3]int, body func(sim *Simulation, rank, nRanks int)) {
	t.Helper()
	if dims == [3]int{} {
		sim, err := p.NewSimulation()
		if err != nil {
			t.Fatal(err)
		}
		body(sim, 0, 1)
		return
	}
	n := dims[0] * dims[1] * dims[2]
	err := RunDecomposed(p.Config, dims, func(r *RankSim) {
		r.SetInitial(p.Initial, p.InitPressure)
		body(r.Simulation, r.Rank, n)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// layerSteps returns the step ids of a trace's records of one kind.
func layerSteps(t *testing.T, recs []obs.Record, kind string) []int {
	t.Helper()
	var steps []int
	for _, r := range recs {
		if r.Kind != kind {
			continue
		}
		var key struct{ Step int }
		if err := json.Unmarshal(r.Payload, &key); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, key.Step)
	}
	return steps
}

// handWired is the reference for TestRunOptions: the enable sequence the
// drivers spelled out by hand before Session.Arm, kept here so the session
// is held to its records byte for byte. Rank 0 returns its probe.
func handWired(sim *Simulation, p *Problem, rank int, critA *CritPathAnalyzer, dir string, tr *obs.Trace) *Probe {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	sim.EnableHealth(HealthOptions{BundleDir: filepath.Join(dir, "health"), EmergencyCheckpoint: true})
	spec := p.StandardAnalysis()
	spec.Every = 1
	_, err := sim.EnableAnalysis(spec)
	must(err)
	_, err = sim.EnableCostMaps(CostSpec{Every: 2})
	must(err)
	must(sim.EnableCritPath(critA))
	if rank != 0 {
		return nil
	}
	probe, err := sim.StartTelemetry(TelemetryOptions{Case: "hand", Trace: tr})
	must(err)
	return probe
}

// TestRunOptions drives the session through {serial, 2×1×1} × {every layer,
// none, health + injected NaN}. With every layer on, the trace's analysis
// records must equal the hand-wired reference's byte for byte and its cost
// and critpath records (wall-clock) fall on the same steps; with none, the
// run must be the plain Advance; on a health abort the trace is closed and
// a bundle, the overlay and the profile artifacts are left behind. No mode
// may leak a goroutine.
func TestRunOptions(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0) // restore the NumCPU default for other tests
	const steps = 4
	prob, err := LiftedJetProblem(LiftedJetOptions{Nx: 32, Ny: 24, Nz: 1, IgnitionKernel: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Start the worker pool before any baseline goroutine count is taken.
	runCase(t, prob, [3]int{}, func(sim *Simulation, _, _ int) { sim.Advance(1, 0.4*sim.StableDt()) })
	for _, layout := range []struct {
		name string
		dims [3]int
	}{{"serial", [3]int{}}, {"2x1x1", [3]int{2, 1, 1}}} {
		t.Run(layout.name+"/all", func(t *testing.T) {
			base := runtime.NumGoroutine()
			ref, got := t.TempDir(), t.TempDir()

			var refTrace bytes.Buffer
			critA := NewCritPathAnalyzer(CritPathSpec{Every: 2})
			runCase(t, prob, layout.dims, func(sim *Simulation, rank, _ int) {
				probe := handWired(sim, prob, rank, critA, ref, obs.NewTrace(&refTrace))
				if err := sim.TryAdvance(steps, 0.4*sim.StableDtGlobal()); err != nil {
					panic(err)
				}
				if probe != nil {
					if err := probe.Close("completed"); err != nil {
						panic(err)
					}
				}
			})

			opts := RunOptions{
				Trace: filepath.Join(got, "trace.jsonl"), Monitor: "127.0.0.1:0",
				Profile: filepath.Join(got, "prof"), Health: true,
				Analysis: 1, Cost: 2, CritPath: 2,
				Workers: 2,
			}
			sess, err := opts.Open(got, "")
			if err != nil {
				t.Fatal(err)
			}
			runCase(t, prob, layout.dims, func(sim *Simulation, _, _ int) {
				h, err := sess.Arm(sim, prob, TelemetryOptions{Case: "session"})
				if err != nil {
					panic(err)
				}
				if err := h.Advance(steps, 0.4*sim.StableDtGlobal()); err != nil {
					panic(err)
				}
				if err := h.Close("completed"); err != nil {
					panic(err)
				}
			})
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}

			want, err := obs.ReadTrace(&refTrace)
			if err != nil {
				t.Fatal(err)
			}
			have := readTraceFile(t, opts.Trace)
			if w, h := layerPayloads(t, want, obs.KindAnalysis), layerPayloads(t, have, obs.KindAnalysis); len(w) == 0 || !bytes.Equal(w, h) {
				t.Fatalf("analysis records: the session wrote %d bytes, the hand-wired sequence %d, and they differ", len(h), len(w))
			}
			// Cost and critpath records carry wall-clock: the traces agree on
			// which steps were recorded.
			for _, kind := range []string{obs.KindCost, obs.KindCritPath} {
				if w, h := layerSteps(t, want, kind), layerSteps(t, have, kind); len(w) != steps/2 || !reflect.DeepEqual(w, h) {
					t.Fatalf("%s records: the session recorded steps %v, the hand-wired sequence %v", kind, h, w)
				}
			}
			if sess.BundleDir() != filepath.Join(got, "health") {
				t.Fatalf("bundle directory %q, want the <out>/health default", sess.BundleDir())
			}
			if sum := obs.Summarize(have); sum.Steps != steps || have[len(have)-1].Done.ExitMessage != "completed" {
				t.Fatalf("session trace has %d records, %d steps", len(have), sum.Steps)
			}
			for _, name := range []string{"critpath_trace.json", "prof/trace.json", "prof/callpath.txt", "prof/roofline.txt"} {
				if fi, err := os.Stat(filepath.Join(got, name)); err != nil || fi.Size() == 0 {
					t.Fatalf("%s missing or empty: %v", name, err)
				}
			}
			waitGoroutines(t, base)
		})

		t.Run(layout.name+"/none", func(t *testing.T) {
			base := runtime.NumGoroutine()
			var mu sync.Mutex
			final := func(arm bool) []byte {
				var out bytes.Buffer
				dir := t.TempDir()
				sess, err := RunOptions{Workers: 2}.Open(dir, "")
				if err != nil {
					t.Fatal(err)
				}
				runCase(t, prob, layout.dims, func(sim *Simulation, rank, _ int) {
					dt := 0.4 * sim.StableDtGlobal()
					if arm {
						h, err := sess.Arm(sim, prob, TelemetryOptions{})
						if err != nil {
							panic(err)
						}
						if err := h.Advance(steps, dt); err != nil {
							panic(err)
						}
						if len(sim.installedLayers()) != 0 || sim.probe != nil {
							panic("zero RunOptions armed a layer")
						}
						h.Checkpoint("ignored.sdf")
						if err := h.Close("completed"); err != nil {
							panic(err)
						}
					} else {
						sim.Advance(steps, dt)
					}
					if rank == 0 {
						mu.Lock()
						defer mu.Unlock()
						if err := sim.SaveCheckpoint(&out); err != nil {
							panic(err)
						}
					}
				})
				if err := sess.Close(); err != nil {
					t.Fatal(err)
				}
				if left, _ := os.ReadDir(dir); len(left) != 0 {
					t.Fatalf("a session with nothing on wrote %v", left)
				}
				return out.Bytes()
			}
			if plain, armed := final(false), final(true); len(plain) == 0 || !bytes.Equal(plain, armed) {
				t.Fatal("a session with nothing on changed the solution")
			}
			waitGoroutines(t, base)
		})

		t.Run(layout.name+"/abort", func(t *testing.T) {
			base := runtime.NumGoroutine()
			dir := t.TempDir()
			opts := RunOptions{
				Trace: filepath.Join(dir, "trace.jsonl"), Monitor: "127.0.0.1:0",
				Profile: filepath.Join(dir, "prof"),
				Health:  true, FlightRec: filepath.Join(dir, "bundle"),
				Analysis: 1, Cost: 1, CritPath: 1,
				Workers: 2,
			}
			sess, err := opts.Open(dir, "")
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			aborted := 0
			runCase(t, prob, layout.dims, func(sim *Simulation, rank, nRanks int) {
				h, err := sess.Arm(sim, prob, TelemetryOptions{Case: "abort"})
				if err != nil {
					panic(err)
				}
				if rank == nRanks-1 {
					sim.InjectNaN(3)
				}
				stepErr := h.Advance(steps, 0.4*sim.StableDtGlobal())
				if _, ok := stepErr.(*health.Violation); !ok {
					panic(fmt.Sprintf("rank %d: Advance returned %v, want a *health.Violation", rank, stepErr))
				}
				if err := h.Close(fmt.Sprintf("health abort: %v", stepErr)); err != nil {
					panic(err)
				}
				mu.Lock()
				aborted++
				mu.Unlock()
			})
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if want := max(1, layout.dims[0]); aborted != want {
				t.Fatalf("%d ranks returned the violation, want %d", aborted, want)
			}

			// The trace holds the healthy steps' records and is closed.
			if recs, err := ReadAnalysis(opts.Trace); err != nil || len(recs) != 2 {
				t.Fatalf("analysis records after abort: %d, err %v", len(recs), err)
			}
			if recs, err := ReadCost(opts.Trace); err != nil || len(recs) != 2 {
				t.Fatalf("cost records after abort: %d, err %v", len(recs), err)
			}
			if sess.trace.Layer(obs.KindAnalysis, AnalysisRecord{}); sess.trace.Flush() == nil {
				t.Fatal("trace still open after Session.Close")
			}
			tr := readTraceFile(t, opts.Trace)
			if last := tr[len(tr)-1]; last.Kind != obs.KindRunDone || !strings.HasPrefix(last.Done.ExitMessage, "health abort: ") {
				t.Fatalf("trace does not end in the abort's run_done: %+v", last)
			}
			// A bundle per rank, the overlay and the profile artifacts.
			bundle := opts.FlightRec
			if layout.dims[0] > 1 {
				bundle = filepath.Join(bundle, "rank1")
			}
			if frames, err := health.ReadFlight(filepath.Join(bundle, "flight.jsonl")); err != nil || len(frames) == 0 {
				t.Fatalf("flight recorder in %s: %d frames, err %v", bundle, len(frames), err)
			}
			for _, name := range []string{"critpath_trace.json", "prof/trace.json", "prof/callpath.txt", "prof/roofline.txt"} {
				if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
					t.Fatalf("%s missing or empty after abort: %v", name, err)
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// TestTraceOrdersLayerRecords: with the session arming every layer and a
// trace, serially and over 2×1×1, the trace is the one record stream — each
// due step's analysis, cost and critpath records, in that order and keyed by
// the step's id, come right before the step's record, and an analysis
// payload is byte for byte the json.Marshal of the record a direct
// subscriber received.
func TestTraceOrdersLayerRecords(t *testing.T) {
	prob, err := LiftedJetProblem(LiftedJetOptions{Nx: 24, Ny: 16, Nz: 1, IgnitionKernel: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []struct {
		name string
		dims [3]int
	}{{"serial", [3]int{}}, {"2x1x1", [3]int{2, 1, 1}}} {
		t.Run(layout.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := RunOptions{Trace: filepath.Join(dir, "trace.jsonl"), Analysis: 1, Cost: 2, CritPath: 2, Workers: 2}
			sess, err := opts.Open(dir, "")
			if err != nil {
				t.Fatal(err)
			}
			defer SetWorkers(0)
			var direct [][]byte
			runCase(t, prob, layout.dims, func(sim *Simulation, rank, _ int) {
				h, err := sess.Arm(sim, prob, TelemetryOptions{})
				if err != nil {
					panic(err)
				}
				if rank == 0 {
					if err := sim.Subscribe(func(r AnalysisRecord) {
						b, err := json.Marshal(r)
						if err != nil {
							panic(err)
						}
						direct = append(direct, b)
					}); err != nil {
						panic(err)
					}
				}
				if err := h.Advance(4, 0.4*sim.StableDtGlobal()); err != nil {
					panic(err)
				}
				if err := h.Close("completed"); err != nil {
					panic(err)
				}
			})
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}

			var pending []string // layer records since the last step record
			analysis := 0
			for _, r := range readTraceFile(t, opts.Trace) {
				switch r.Kind {
				case obs.KindAnalysis, obs.KindCost, obs.KindCritPath:
					var key struct{ Step int }
					if err := json.Unmarshal(r.Payload, &key); err != nil {
						t.Fatal(err)
					}
					pending = append(pending, fmt.Sprintf("%s@%d", r.Kind, key.Step))
					if r.Kind == obs.KindAnalysis {
						if analysis >= len(direct) || !bytes.Equal(r.Payload, direct[analysis]) {
							t.Fatalf("analysis payload %d is not the subscriber's record:\n%s", analysis, r.Payload)
						}
						analysis++
					}
				case obs.KindStep:
					n := r.StepData.Step
					want := []string{fmt.Sprintf("analysis@%d", n)}
					if n%2 == 0 {
						want = append(want, fmt.Sprintf("cost@%d", n), fmt.Sprintf("critpath@%d", n))
					}
					if !reflect.DeepEqual(pending, want) {
						t.Fatalf("step %d is preceded by %v, want %v", n, pending, want)
					}
					pending = nil
				}
			}
			if analysis != 4 || len(direct) != 4 || len(pending) != 0 {
				t.Fatalf("%d analysis payloads, %d subscribed records, %v left over", analysis, len(direct), pending)
			}
		})
	}
}

// TestDetachedProbeWritesNoLayerRecords: a probe that was closed, or that a
// later StartTelemetry replaced, sends no more layer records to its trace,
// though the layers keep publishing.
func TestDetachedProbeWritesNoLayerRecords(t *testing.T) {
	p, err := LiftedJetProblem(LiftedJetOptions{Nx: 24, Ny: 16, Nz: 1, IgnitionKernel: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.NewSimulation()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.EnableAnalysis(p.StandardAnalysis()); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.EnableCostMaps(CostSpec{Every: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sim.EnableCritPath(NewCritPathAnalyzer(CritPathSpec{Every: 1})); err != nil {
		t.Fatal(err)
	}
	kinds := func(buf *bytes.Buffer) []string {
		recs, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var ks []string
		for _, r := range recs {
			ks = append(ks, r.Kind)
		}
		return ks
	}
	dt := 0.4 * sim.StableDt()
	var first, second bytes.Buffer
	if _, err := sim.StartTelemetry(TelemetryOptions{Trace: obs.NewTrace(&first)}); err != nil {
		t.Fatal(err)
	}
	sim.Advance(1, dt)
	p2, err := sim.StartTelemetry(TelemetryOptions{Trace: obs.NewTrace(&second)})
	if err != nil {
		t.Fatal(err)
	}
	sim.Advance(1, dt)
	if err := p2.Close("completed"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(2, dt)
	if got := sim.Analysis().Latest(); got == nil || got.Step != 4 {
		t.Fatalf("the layers stopped publishing: latest analysis record %+v", got)
	}
	layerStep := []string{obs.KindAnalysis, obs.KindCost, obs.KindCritPath, obs.KindStep}
	if got, want := kinds(&first), append([]string{obs.KindRunStart}, layerStep...); !reflect.DeepEqual(got, want) {
		t.Fatalf("replaced probe's trace: %v, want %v", got, want)
	}
	want := append(append([]string{obs.KindRunStart}, layerStep...), obs.KindRunDone)
	if got := kinds(&second); !reflect.DeepEqual(got, want) {
		t.Fatalf("closed probe's trace: %v, want %v", got, want)
	}
}

// TestReadAnalysisMissingFile: the trace readers report a missing file as
// such.
func TestReadAnalysisMissingFile(t *testing.T) {
	if _, err := ReadAnalysis(filepath.Join(t.TempDir(), "absent.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("want IsNotExist, got %v", err)
	}
}

func readTraceFile(t *testing.T, path string) []obs.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// waitGoroutines fails the test if the goroutine count does not settle back
// to base (monitor listeners and pool workers wind down asynchronously).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d now, %d at baseline\n%s", g, base, buf[:runtime.Stack(buf, true)])
	}
}
