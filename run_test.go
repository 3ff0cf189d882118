package s3d

import (
	"bytes"
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

// costSteps returns the step ids of a cost store's records.
func costSteps(t *testing.T, path string) []int {
	t.Helper()
	recs, err := ReadCost(path)
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]int, len(recs))
	for i, r := range recs {
		steps[i] = r.Step
	}
	return steps
}

// handWired is the reference for TestRunOptions: the enable sequence the
// drivers spelled out by hand before Session.Arm, kept here so the session
// is held to its records byte for byte. It returns the function that closes
// the rank's probe and stores.
func handWired(sim *Simulation, p *Problem, rank int, critA *CritPathAnalyzer, dir string, tr *obs.Trace) (*Probe, func()) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	var closers []func() error
	sim.EnableHealth(HealthOptions{BundleDir: filepath.Join(dir, "health"), EmergencyCheckpoint: true})
	spec := p.StandardAnalysis()
	spec.Every = 1
	_, err := sim.EnableAnalysis(spec)
	must(err)
	if rank == 0 {
		st, err := NewAnalysisStore(filepath.Join(dir, "analysis.jsonl"))
		must(err)
		must(sim.Subscribe(st.Sink()))
		closers = append(closers, st.Close)
	}
	_, err = sim.EnableCostMaps(CostSpec{Every: 2})
	must(err)
	if rank == 0 {
		st, err := NewCostStore(filepath.Join(dir, "cost.jsonl"))
		must(err)
		must(sim.SubscribeCost(st.Sink()))
		closers = append(closers, st.Close)
	}
	must(sim.EnableCritPath(critA))
	var probe *Probe
	if rank == 0 {
		probe, err = sim.StartTelemetry(TelemetryOptions{Case: "hand", Trace: tr})
		must(err)
	}
	return probe, func() {
		if probe != nil {
			must(probe.Close("completed"))
		}
		for _, c := range closers {
			must(c())
		}
	}
}

// TestRunOptions drives the session through {serial, 2×1×1} × {every layer,
// none, health + injected NaN}. With every layer on, analysis.jsonl must
// equal the hand-wired reference byte for byte and cost.jsonl (wall-clock)
// record the same steps; with none, the run must be the plain Advance; on a
// health abort the stores are closed and a bundle, the overlay and the
// profile artifacts are left behind. No mode may leak a goroutine.
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
				probe, closeAll := handWired(sim, prob, rank, critA, ref, obs.NewTrace(&refTrace))
				dt := 0.4 * sim.StableDtGlobal()
				if probe != nil {
					err := probe.TryAdvance(steps, dt)
					if err != nil {
						panic(err)
					}
				} else if err := sim.TryAdvance(steps, dt); err != nil {
					panic(err)
				}
				closeAll()
			})

			opts := RunOptions{
				Trace: filepath.Join(got, "trace.jsonl"), Monitor: "127.0.0.1:0",
				Profile: filepath.Join(got, "prof"), Health: true,
				Analysis: filepath.Join(got, "analysis.jsonl"), AnalysisEvery: 1,
				Cost: filepath.Join(got, "cost.jsonl"), CostEvery: 2,
				CritPath: filepath.Join(got, "critpath.jsonl"), CritPathEvery: 2,
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

			want, err := os.ReadFile(filepath.Join(ref, "analysis.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			have, err := os.ReadFile(filepath.Join(got, "analysis.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !bytes.Equal(want, have) {
				t.Fatalf("analysis.jsonl: session wrote %d bytes, the hand-wired sequence %d, and they differ", len(have), len(want))
			}
			// Cost records carry wall-clock: the stores agree on which steps
			// were recorded.
			wantSteps, haveSteps := costSteps(t, filepath.Join(ref, "cost.jsonl")), costSteps(t, filepath.Join(got, "cost.jsonl"))
			if len(wantSteps) != steps/2 || !reflect.DeepEqual(wantSteps, haveSteps) {
				t.Fatalf("cost.jsonl: session recorded steps %v, the hand-wired sequence %v", haveSteps, wantSteps)
			}
			if sess.BundleDir() != filepath.Join(got, "health") {
				t.Fatalf("bundle directory %q, want the <out>/health default", sess.BundleDir())
			}
			if recs, err := ReadCritPath(filepath.Join(got, "critpath.jsonl")); err != nil || len(recs) != steps/2 {
				t.Fatalf("critpath store: %d records, err %v", len(recs), err)
			}
			tr := readTraceFile(t, filepath.Join(got, "trace.jsonl"))
			if len(tr) != steps+2 || tr[len(tr)-1].Done.ExitMessage != "completed" {
				t.Fatalf("session trace has %d records", len(tr))
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
				sess, err := RunOptions{AnalysisEvery: 1, CostEvery: 1, CritPathEvery: 1, Workers: 2}.Open(dir, "")
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
				Analysis: filepath.Join(dir, "analysis.jsonl"), AnalysisEvery: 1,
				Cost: filepath.Join(dir, "cost.jsonl"), CostEvery: 1,
				CritPath: filepath.Join(dir, "critpath.jsonl"), CritPathEvery: 1,
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

			// The stores hold the healthy steps and are closed.
			if recs, err := ReadAnalysis(opts.Analysis); err != nil || len(recs) != 2 {
				t.Fatalf("analysis store after abort: %d records, err %v", len(recs), err)
			}
			if recs, err := ReadCost(opts.Cost); err != nil || len(recs) != 2 {
				t.Fatalf("cost store after abort: %d records, err %v", len(recs), err)
			}
			if err := sess.analysis.Append(AnalysisRecord{}); err == nil {
				t.Fatal("analysis store still open after Session.Close")
			}
			if err := sess.crit.Append(CritPathRecord{}); err == nil {
				t.Fatal("critpath store still open after Session.Close")
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
