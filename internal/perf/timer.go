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
type Timers struct {
	regions map[string]*Region
	stack   []*frame
	now     func() time.Time
	err     error // first Start/Stop misuse (sticky; see Err)
}

type frame struct {
	r     *Region
	start time.Time
	inner time.Duration
}

// Region is one instrumented code region.
type Region struct {
	Name      string
	Exclusive time.Duration
	Inclusive time.Duration
	Calls     int64
}

// NewTimers returns an empty timer set.
func NewTimers() *Timers {
	return &Timers{regions: map[string]*Region{}, now: time.Now}
}

// NewTimersClock returns a timer set with an injected clock, for tests.
func NewTimersClock(now func() time.Time) *Timers {
	return &Timers{regions: map[string]*Region{}, now: now}
}

// Start enters a region. Regions may nest but not interleave.
func (t *Timers) Start(name string) {
	r := t.regions[name]
	if r == nil {
		r = &Region{Name: name}
		t.regions[name] = r
	}
	t.stack = append(t.stack, &frame{r: r, start: t.now()})
}

// Stop leaves the innermost region, which must be the named one. A
// mismatched or unbalanced Stop does not panic: it records a descriptive
// sticky error (retrievable via Err) and leaves the accumulated timings
// untouched, so a monitoring bug cannot take a production run down.
func (t *Timers) Stop(name string) {
	if len(t.stack) == 0 {
		t.fail(fmt.Errorf("perf: Stop(%q) with empty region stack", name))
		return
	}
	f := t.stack[len(t.stack)-1]
	if f.r.Name != name {
		t.fail(fmt.Errorf("perf: Stop(%q) does not match open region %q", name, f.r.Name))
		return
	}
	t.stack = t.stack[:len(t.stack)-1]
	d := t.now().Sub(f.start)
	f.r.Inclusive += d
	f.r.Exclusive += d - f.inner
	f.r.Calls++
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].inner += d
	}
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
		dst := t.regions[name]
		if dst == nil {
			dst = &Region{Name: name}
			t.regions[name] = dst
		}
		dst.Exclusive += r.Exclusive
		dst.Inclusive += r.Inclusive
		dst.Calls += r.Calls
	}
}
