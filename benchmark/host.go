package main

import (
	"bufio"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the process's user + system CPU time (getrusage), the clock
// behind every cpu_* metric: it does not count time the process was
// descheduled, which wall time on a shared two-core host does.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB is the process's peak resident set (VmHWM of /proc/self/status)
// in MB; 0 where /proc is not available.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// triadMiB is the size of each of the three STREAM-triad arrays. The guide
// asks for four times the last-level cache; this host's shared L3 is 260 MiB,
// which would mean 3 GiB touched at the start and end of every traced run.
// 32 MiB per array is 16× the per-core L2 (2 MiB) and larger than any
// workload's arena, so the number is the sustainable bandwidth beyond L2 —
// the level the step workloads' working sets actually live in — and is a
// DRAM figure only on hosts whose last-level cache is well under 32 MiB.
const triadMiB = 32

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink float64

// hostTriadGBps runs a[i] = b[i] + s·c[i] over three triadMiB arrays and
// returns the best-of-five rate in GB/s, counting 24 bytes per element.
func hostTriadGBps() float64 {
	n := triadMiB << 20 / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
	}
	sink += a[n/2]
	return 24 * float64(n) / best / 1e9
}

// The reference spin. This sandbox is a two-vCPU microVM on a shared host:
// between one minute and the next the same window of the same workload was
// seen to take 1.04 s and 3.5 s (hypervisor steal, a busy SMT sibling, clock
// changes), and getrusage CPU time moves with it, because a guest counts
// stolen time as its own. No statistic over a run's windows survives that,
// since whole runs are slowed. So every timed operation is bracketed by two
// runs of a fixed piece of the benchmark's own code, and its duration is
// scaled by refQuietSec over their mean: durations are reported as they
// would be on this host when nobody else is using it. In a bad phase this
// cut the spread of the window median between builds from 36 % to 7 %
// (lifted_h2) and from 110 % to 15 % (air_box3d); README.md has the data.
const (
	// refIters math.Exp calls make one spin: L1-resident, pure compute,
	// about 45 ms, long enough to average over scheduler ticks and short
	// against the one-second windows it brackets.
	refIters = 6_000_000
	// refQuietSec is the spin's duration on the reference host (2-core Xeon
	// 2.1 GHz microVM) when quiet. It only fixes the scale of the reported
	// numbers; on another host they are consistent among themselves and
	// read as "µs on a machine whose spin takes refQuietSec".
	refQuietSec = 0.0450
)

// refSpin runs the reference kernel once and returns its seconds.
func refSpin() float64 {
	t0 := time.Now()
	var s float64
	for i := 0; i < refIters; i++ {
		s += math.Exp(float64(i&1023) * 1e-3)
	}
	sink += s
	return time.Since(t0).Seconds()
}

// pacer chains reference spins through a sequence of timed operations: the
// spin after one operation is the spin before the next.
type pacer struct {
	last    float64   // seconds of the most recent spin
	lastEnd time.Time // when it ended
	spent   float64   // seconds spent spinning so far
	factors []float64 // every factor handed out, for the run's report
}

// staleAfter is how old the previous spin may be and still serve as the
// "before" of the next operation.
const staleAfter = 50 * time.Millisecond

func (p *pacer) spin() float64 {
	p.last = refSpin()
	p.lastEnd = time.Now()
	p.spent += p.last
	return p.last
}

// begin returns the spin that precedes an operation, running one unless
// the last spin has only just ended.
func (p *pacer) begin() (before float64) {
	if p.last == 0 || time.Since(p.lastEnd) > staleAfter {
		p.spin()
	}
	return p.last
}

// factor runs the spin that follows the operation and returns what scales
// the operation's duration to the quiet reference host.
func (p *pacer) factor(before float64) float64 {
	f := refQuietSec / ((before + p.spin()) / 2)
	p.factors = append(p.factors, f)
	return f
}

// timing is one timed operation: raw wall and CPU seconds, and the host
// factor that scales them to the quiet reference host.
type timing struct {
	wall, cpu, factor float64
}

func (t timing) normWall() float64 { return t.wall * t.factor }
func (t timing) normCPU() float64  { return t.cpu * t.factor }

// clocked runs fn and returns its raw wall and CPU seconds.
func clocked(fn func()) timing {
	t0, c0 := time.Now(), cpuSeconds()
	fn()
	return timing{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
}

// timed runs fn between two reference spins.
func (p *pacer) timed(fn func()) timing {
	before := p.begin()
	t := clocked(fn)
	t.factor = p.factor(before)
	return t
}

// hostExpNs is the reference spin read as ns per math.Exp call, the
// transcendental the chemistry and transport layers lean on.
func hostExpNs() float64 { return refSpin() / refIters * 1e9 }
