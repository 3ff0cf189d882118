// Package obs is the unified telemetry layer of the reproduction: a
// metrics registry (counters, gauges, fixed-bucket histograms) cheap enough
// for solver inner loops, a structured JSONL run-trace writer, and a live
// HTTP monitor. It plays the role the TAU/HPCToolkit instrumentation and
// the SDM dashboard feeds play in the paper (§4, §9): every performance
// claim downstream of this PR is measured through this layer rather than
// ad-hoc prints.
//
// The package sits at the bottom of the dependency graph: it imports only
// internal/jsonl, so comm, the instrumentation layers and workflow can all
// feed it without cycles. The communication counters (CommStats) and the
// non-finite-safe float (F) live here for the same reason — comm and health
// fill them, the trace writer and the monitor consume them. The solver
// feeds it nothing: the root package's telemetry probe reads a step off the
// solver and publishes it here.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; Add is a single atomic add, cheap enough for inner loops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins metric (e.g. current step, queue depth).
// Set/Value are single atomic word operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Bucket i counts observations
// v <= Bounds[i]; one implicit overflow bucket counts the rest. Observe is
// a branch-light linear scan plus two atomic adds — the bucket count is
// expected to be small (O(10)), as for latency histograms.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	sum    atomicFloat
	n      atomic.Int64
}

// atomicFloat accumulates float64 sums with a CAS loop.
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (a *atomicFloat) Value() float64 { return math.Float64frombits(a.bits.Load()) }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Registry holds named metrics. Metric creation takes the registry lock;
// use of a returned metric is lock-free, so hot paths should look up their
// metrics once (or hold *Counter fields) and then only Add/Set/Observe.
// A nil *Registry is valid and inert: every method returns a usable dummy
// metric, so instrumented code needs no nil checks.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (bounds are ignored if it already exists).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// HistSnapshot is an immutable histogram state.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last bucket is overflow
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot is an immutable copy of a registry's state, for JSON export by
// the monitor and the run_done record. A gauge is an F, so a NaN one (the
// mass drift of a run that died of it) encodes as a string.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]F            `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the current state. It is safe to call concurrently with
// metric updates; individual metric reads are atomic, the set as a whole is
// not a consistent cut (fine for monitoring).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]F{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = F(g.Value())
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    h.Sum(),
			Count:  h.Count(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// String renders a sorted human-readable dump (for debugging and tests).
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %-40s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge   %-40s %g\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "hist    %-40s n=%d mean=%g\n", n, h.Count, safeDiv(h.Sum, float64(h.Count)))
	}
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
