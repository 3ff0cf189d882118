// Command benchmark is the repository's performance referee (issue 12): five
// named workloads, the paper's µs-per-grid-point-per-step ledger, and a
// traced run that adds per-layer numbers. See README.md in this directory.
//
// With -workload it is one child run, as the driver invokes it:
//
//	benchmark --workload lifted_h2 --seed 1 --seconds 12 --trace 0
//
// prints its metrics and ends with one JSON object on the last line.
// Without -workload it runs the whole set, one child process per workload
// so set-up time, peak memory and GC state are isolated, prints a table per
// workload, and with -repeat N compares N sets against the bounds.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	s3d "github.com/s3dgo/s3d"
)

// childResult is the last line of a child run: exactly these four keys.
type childResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defaultSeed is the seed golden.json pins and the parity check is gated at;
// defaultSeconds is the contract's run_seconds, the run length it pins.
const (
	defaultSeed    = 1
	defaultSeconds = 12
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	smoke        bool
	repeat       int
	manifest     string
	workdir      string
	updateGolden string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and end with the result as one JSON line; empty runs the set")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: inflow turbulence and initial-mode phases are made from it")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "nominal measured seconds per run; turned into a fixed operation count")
	flag.IntVar(&o.trace, "trace", 0, "1: record spans, run the layer probes and report the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny grids, one round: checks that everything runs, measures nothing")
	flag.IntVar(&o.repeat, "repeat", 1, "run this many sets (seeds seed, seed+1, …) and fail if they disagree beyond the bounds")
	flag.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "path of BENCHMARK.json, read for the bounds")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the span files and the probes' temporary files")
	flag.StringVar(&o.updateGolden, "update-golden", "", "set mode: write the final-state reductions of this set to the given golden.json")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 || o.repeat < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-smoke] [-repeat n]")
		os.Exit(2)
	}
	var err error
	if o.workload != "" {
		err = runChild(o, os.Stdout)
	} else {
		err = runSets(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runChild is one workload run in this process.
func runChild(o options, out io.Writer) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	// Load sized for a two-core host: at most two busy goroutines (the two
	// ranks of the decomposed workload), one kernel worker, default GOGC.
	runtime.GOMAXPROCS(2)
	s3d.SetWorkers(1)
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	rc := &runCtx{
		w: w, seed: o.seed, seconds: o.seconds, smoke: o.smoke, trace: o.trace == 1, workdir: o.workdir,
		pace: &pacer{}, golden: golden, e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{},
	}
	if rc.trace {
		rc.rec = newRecorder(w.name)
		rc.root = rc.rec.begin(0, "bench.run")
		rc.hostProbe("start")
	}
	if err := w.run(rc); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	rc.e2e["rss_peak_mb"] = rssPeakMB()
	for _, name := range w.na {
		if _, measured := rc.e2e[name]; measured {
			return fmt.Errorf("%s: metric %s is both measured and listed as not applicable", w.name, name)
		}
		rc.e2e[name] = notApplicable
	}
	defs, values := endToEnd, rc.e2e
	if rc.trace {
		rc.hostProbe("end")
		rc.rec.end(rc.root)
		defs, values = perLayer, rc.layer
	}

	var bounds map[string]float64
	if m, err := readManifest(o.manifest); err == nil {
		bounds = m.bounds()
	}
	fmt.Fprintf(out, "workload %s  seed %d  grid %v  rounds %d  trace %d\n", w.name, o.seed, rc.dims(), rc.rounds(), o.trace)
	res := childResult{Correct: rc.chk.failed == 0, Attempted: rc.chk.attempted, Failed: rc.chk.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !rc.trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", w.name, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("  %-42s %14.6g %-6s better %-6s", d.Name, v, d.Unit, d.Better)
		if b, ok := bounds[d.Name]; ok {
			line += fmt.Sprintf(" bound %.3f", b)
		}
		if n, ok := rc.samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if !rc.trace && slices.Contains(w.na, d.Name) {
			line += " not applicable here: a constant"
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "  %-42s %14d\n  %-42s %14d\n", "ops_attempted", rc.chk.attempted, "ops_failed", rc.chk.failed)
	for _, f := range rc.chk.failures {
		fmt.Fprintln(out, "  FAILED:", f)
	}
	for _, line := range rc.info {
		fmt.Fprintln(out, "  info:", line)
	}
	if f := rc.pace.factors; len(f) > 0 {
		lo, hi := f[0], f[0]
		for _, x := range f {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		fmt.Fprintf(out, "  info: host factor (quiet reference spin %.1f ms over measured spin): median %.3f, least %.3f, most %.3f over %d operations\n",
			refQuietSec*1e3, median(f), lo, hi, len(f))
	}
	fmt.Fprintln(out, "  digest", rc.digest)
	if rc.trace {
		path := filepath.Join(o.workdir, "spans", w.name+".json")
		if err := rc.rec.writeFile(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "  spans: %d written to %s; self time by name:\n", len(rc.rec.spans), path)
		for _, st := range selfTimes(rc.rec.spans) {
			fmt.Fprintf(out, "    %-28s calls %4d  total %10.3f ms  self %10.3f ms\n",
				st.Name, st.Calls, st.Total.Seconds()*1e3, st.Self.Seconds()*1e3)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// hostProbe measures the host itself at the start and end of a traced run,
// so drift of the machine is visible next to the layer numbers.
func (rc *runCtx) hostProbe(when string) {
	rc.rec.do(rc.root, "host.probe", func() {
		rc.layer["host.triad_GBps."+when] = hostTriadGBps()
		rc.layer["host.exp_ns_per_call."+when] = hostExpNs()
	})
}

// --- set mode ---------------------------------------------------------

// childRun is what the parent keeps of one child.
type childRun struct {
	res    childResult
	digest string
	finals map[string]summary // golden key → reductions, from the info lines
}

// spawn runs one workload in a child process of this same binary and
// echoes its report.
func spawn(o options, workload string, seed int64, trace int) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-manifest", o.manifest, "-workdir", o.workdir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return nil, fmt.Errorf("workload %s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	run := &childRun{finals: map[string]summary{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.res); err != nil {
		return nil, fmt.Errorf("workload %s: last line is not a result: %w", workload, err)
	}
	for _, line := range lines[:len(lines)-1] {
		fmt.Println(line)
		fields := strings.Fields(line)
		switch {
		case len(fields) == 2 && fields[0] == "digest":
			run.digest = fields[1]
		case len(fields) == 5 && fields[1] == "final" && fields[2] == "state":
			var sm summary
			if json.Unmarshal([]byte(fields[4]), &sm) == nil {
				run.finals[strings.TrimSuffix(fields[3], ":")] = sm
			}
		}
	}
	return run, nil
}

// runSets runs o.repeat sets of all workloads and judges them.
func runSets(o options) error {
	man, err := readManifest(o.manifest)
	if err != nil {
		return fmt.Errorf("set mode needs the manifest for its bounds: %w", err)
	}
	bounds := man.bounds()
	failedOps := 0
	var problems []string
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	golden := map[string]summary{}
	for set := 0; set < o.repeat; set++ {
		seed := o.seed + int64(set)
		fmt.Printf("=== set %d of %d, seed %d ===\n", set+1, o.repeat, seed)
		runs := map[string]*childRun{}
		for _, w := range workloads {
			run, err := spawn(o, w.name, seed, 0)
			if err != nil {
				return err
			}
			runs[w.name] = run
			failedOps += run.res.Failed
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range run.res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			maps.Copy(golden, run.finals)
			if o.trace == 1 {
				traced, err := spawn(o, w.name, seed, 1)
				if err != nil {
					return err
				}
				failedOps += traced.res.Failed
				maps.Copy(golden, traced.finals)
				plain, with := run.res.Metrics["us_per_gp_step"].Value, traced.res.Metrics["s3d.us_per_gp_step_traced"].Value
				fmt.Printf("  tracing overhead on %s: traced %.5g − untraced %.5g = %+.3g us per gp per step (%+.2f %%)\n",
					w.name, with, plain, with-plain, 100*(with-plain)/plain)
			}
		}
		// Re-decomposition parity, the invariant the repository already pins:
		// the same problem over two ranks ends in the same bits.
		// It holds for the default seed and is gated there; at other seeds
		// the two runs were seen to differ in the last bit of some cells
		// (README.md, "Finding"), which is reported and not counted.
		switch a, b := runs["air_box3d"].digest, runs["air_box3d_ranks2"].digest; {
		case a == b && a != "":
			fmt.Printf("parity: air_box3d and air_box3d_ranks2 both end in digest %s\n", a)
		case seed == defaultSeed:
			problems = append(problems, fmt.Sprintf("set %d: air_box3d digest %s differs from air_box3d_ranks2 digest %s", set+1, a, b))
		default:
			fmt.Printf("parity: NOT bitwise at seed %d: air_box3d %s, air_box3d_ranks2 %s\n", seed, a, b)
		}
		if s, p := runs["air_box3d"].res.Metrics["us_per_gp_step"].Value, runs["air_box3d_ranks2"].res.Metrics["us_per_gp_step"].Value; p > 0 {
			fmt.Printf("two-rank speed-up: %.3f (air_box3d %.4g / air_box3d_ranks2 %.4g us per gp per step)\n", s/p, s, p)
		}
	}
	if o.repeat > 1 {
		// Two or three sets are compared by their range; from four on, by the
		// driver's own statistic, the distance between the quartiles.
		differ, how := rangeShare, "range"
		if o.repeat >= 4 {
			differ, how = spreadShare, "quartile spread"
		}
		fmt.Printf("=== %d sets: median, and the %s as a share of the median against the bound ===\n", o.repeat, how)
		for _, w := range workloads {
			for _, d := range endToEnd {
				v := values[w.name][d.Name]
				diff, verdict := differ(v), "ok"
				// A smoke run measures nothing worth judging; and the driver
				// exempts setup_s from its spread rule, so this does too.
				exempt := o.smoke || (o.repeat >= 4 && d.Name == "setup_s")
				if b := bounds[d.Name]; diff > b && !exempt {
					verdict = "DISAGREE"
					problems = append(problems, fmt.Sprintf("%s %s: sets differ by %.4f of the median, bound %.4f", w.name, d.Name, diff, b))
				}
				fmt.Printf("  %-18s %-20s median %12.6g  spread %.4f  range %.4f  bound %.3f  %s\n",
					w.name, d.Name, median(v), spreadShare(v), rangeShare(v), bounds[d.Name], verdict)
			}
		}
	}
	if o.updateGolden != "" {
		data, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.updateGolden, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d golden entries to %s (rebuild to embed them)\n", len(golden), o.updateGolden)
	}
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
	}
	if failedOps > 0 {
		problems = append(problems, fmt.Sprintf("%d operations failed", failedOps))
	}
	if len(problems) > 0 {
		return errors.New(problems[len(problems)-1])
	}
	return nil
}
