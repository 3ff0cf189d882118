// Package perf provides the performance-analysis substrate of the paper:
// TAU-style per-region exclusive timers (§4, figure 2), a kernel catalogue
// with flop and byte counts, and an analytic Cray XT3/XT4 node model used to
// reproduce the weak-scaling and hybrid-balance results (figures 1 and 3).
package perf

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Timers accumulates exclusive time per named region for one rank, in the
// style of the TAU instrumentation used on S3D (paper §4). Regions nest;
// time spent in an inner region is excluded from the enclosing one.
//
// Concurrency contract: a Timers value has exactly one owner goroutine —
// the rank that Starts and Stops it. It holds no locks, so concurrent
// mutation from multiple goroutines is a data race. For cross-rank
// aggregation, each rank calls Snapshot on its own timer set and hands the
// immutable copy to the aggregator, which Merges the snapshots into a fresh
// Timers it owns; the live per-rank timer sets are never shared.
//
// The clock is an int64 nanosecond count (the solver passes prof.Now, the
// profiler's clock), and Start and Stop return the stamp they took, so a
// caller that also keeps a timeline span opens and closes it on the same
// two stamps instead of reading a clock of its own.
type Timers struct {
	regions map[string]*Region
	stack   []frame // by value: entering a region allocates nothing once warm
	now     func() int64
	err     error // first Start/Stop misuse (sticky; see Err)
}

type frame struct {
	r            *Region
	start, inner int64
}

// Region is one instrumented code region.
type Region struct {
	Name      string
	Exclusive time.Duration
	Inclusive time.Duration
	Calls     int64
}

// origin is the zero of NewTimers' monotonic clock.
var origin = time.Now()

// NewTimers returns an empty timer set on a monotonic nanosecond clock of
// its own.
func NewTimers() *Timers {
	return NewTimersClock(func() int64 { return int64(time.Since(origin)) })
}

// NewTimersClock returns a timer set on the given nanosecond clock.
func NewTimersClock(now func() int64) *Timers {
	return &Timers{regions: map[string]*Region{}, now: now}
}

// region returns the named region, creating it on first use.
func (t *Timers) region(name string) *Region {
	r := t.regions[name]
	if r == nil {
		r = &Region{Name: name}
		t.regions[name] = r
	}
	return r
}

// Start enters a region and returns its entry stamp. Regions may nest but
// not interleave.
func (t *Timers) Start(name string) int64 {
	now := t.now()
	t.stack = append(t.stack, frame{r: t.region(name), start: now})
	return now
}

// Charge moves d nanoseconds of region from's exclusive time into the named
// region, as if that had run nested in from for d (one call): how one timed
// sweep reports several regions' work, its exclusive times still summing to
// the wall. from may be open or already stopped; its inclusive time, and so
// every enclosing region's, is unchanged. A from never entered records a
// sticky error (Err) and changes nothing.
func (t *Timers) Charge(from, name string, d int64) {
	f := t.regions[from]
	if f == nil {
		t.fail(fmt.Errorf("perf: Charge(%q, %q) out of a region never entered", from, name))
		return
	}
	f.Exclusive -= time.Duration(d)
	r := t.region(name)
	r.Inclusive += time.Duration(d)
	r.Exclusive += time.Duration(d)
	r.Calls++
}

// Stop leaves the innermost region, which must be the named one, and
// returns its exit stamp. A mismatched or unbalanced Stop does not panic:
// it records a descriptive sticky error (retrievable via Err) and leaves the
// accumulated timings untouched, so a monitoring bug cannot take a
// production run down.
func (t *Timers) Stop(name string) int64 {
	now := t.now()
	if len(t.stack) == 0 {
		t.fail(fmt.Errorf("perf: Stop(%q) with empty region stack", name))
		return now
	}
	f := t.stack[len(t.stack)-1]
	if f.r.Name != name {
		t.fail(fmt.Errorf("perf: Stop(%q) does not match open region %q", name, f.r.Name))
		return now
	}
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	f.r.Inclusive += time.Duration(d)
	f.r.Exclusive += time.Duration(d - f.inner)
	f.r.Calls++
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].inner += d
	}
	return now
}

// fail records the first misuse error.
func (t *Timers) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// Err returns the first Start/Stop misuse recorded, or nil. Timings
// accumulated before the misuse remain valid; timings after it may
// undercount the mishandled regions.
func (t *Timers) Err() error { return t.err }

// Region returns the accumulated data for a region (nil if never entered).
func (t *Timers) Region(name string) *Region { return t.regions[name] }

// Regions returns all regions sorted by descending exclusive time.
func (t *Timers) Regions() []*Region {
	out := make([]*Region, 0, len(t.regions))
	for _, r := range t.regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Exclusive > out[j].Exclusive })
	return out
}

// Total returns the sum of exclusive times (== total instrumented time).
func (t *Timers) Total() time.Duration {
	var d time.Duration
	for _, r := range t.regions {
		d += r.Exclusive
	}
	return d
}

// Report renders a figure-2-style exclusive-time breakdown.
func (t *Timers) Report() string {
	var b strings.Builder
	total := t.Total()
	fmt.Fprintf(&b, "%-32s %12s %8s %7s\n", "REGION", "EXCL", "CALLS", "%")
	for _, r := range t.Regions() {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.Exclusive) / float64(total)
		}
		fmt.Fprintf(&b, "%-32s %12s %8d %6.1f%%\n", r.Name, r.Exclusive.Round(time.Microsecond), r.Calls, pct)
	}
	return b.String()
}

// Snapshot returns an immutable copy of the accumulated regions, safe to
// hand to another goroutine for cross-rank merging. The copy carries no
// open-region stack: it is a pure accumulation record, usable only as a
// Merge source or for reporting.
func (t *Timers) Snapshot() *Timers {
	cp := &Timers{regions: make(map[string]*Region, len(t.regions)), now: t.now, err: t.err}
	for name, r := range t.regions {
		c := *r
		cp.regions[name] = &c
	}
	return cp
}

// Merge adds other's accumulations into t (for cross-rank averaging).
func (t *Timers) Merge(other *Timers) {
	for name, r := range other.regions {
		dst := t.region(name)
		dst.Exclusive += r.Exclusive
		dst.Inclusive += r.Inclusive
		dst.Calls += r.Calls
	}
}
