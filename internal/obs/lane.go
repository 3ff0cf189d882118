package obs

import (
	"net/http"
	"sync"
	"sync/atomic"
)

// Lane is the cadence-and-publish core shared by every per-step record
// stream (insitu.Pipeline, cost.Collector, critpath.Analyzer embed one):
// an enable flag whose check is the single atomic load a disabled layer
// costs the step loop, a reduction cadence, an ordered subscriber list,
// the latest record and the registry its gauges go to. R is the record
// subscribers receive and Latest and Handler serve.
type Lane[R any] struct {
	every   int
	enabled atomic.Bool
	gauges  func(*Registry, *R)

	mu     sync.Mutex
	subs   []func(R)
	latest *R
	reg    *Registry
}

// NewLane creates a disabled lane due every `every` steps (values below 1
// select every step). gauges, when non-nil, sets the layer's gauges from a
// freshly published record once a registry is attached.
func NewLane[R any](every int, gauges func(*Registry, *R)) Lane[R] {
	if every < 1 {
		every = 1
	}
	return Lane[R]{every: every, gauges: gauges}
}

// Every returns the cadence in steps.
func (l *Lane[R]) Every() int { return l.every }

// Enable starts the lane. Enabled is the one atomic load the step loop pays
// while the layer is off.
func (l *Lane[R]) Enable()       { l.enabled.Store(true) }
func (l *Lane[R]) Enabled() bool { return l.enabled.Load() }

// Due reports whether the lane publishes at the given (completed) step.
func (l *Lane[R]) Due(step int) bool {
	return l.enabled.Load() && step > 0 && step%l.every == 0
}

// Subscribe registers a callback invoked with every published record, on
// the publishing goroutine, in registration order.
func (l *Lane[R]) Subscribe(fn func(R)) {
	l.mu.Lock()
	l.subs = append(l.subs, fn)
	l.mu.Unlock()
}

// AttachMetrics directs the layer's gauges at a registry; they appear in
// /metrics and /metrics.prom.
func (l *Lane[R]) AttachMetrics(reg *Registry) {
	l.mu.Lock()
	l.reg = reg
	l.mu.Unlock()
}

// Publish installs rec as the latest record, updates the attached gauges
// and fans rec out to the subscribers. Subscribers run outside the lock, so
// one may call Latest or Subscribe.
func (l *Lane[R]) Publish(rec R) {
	l.mu.Lock()
	l.latest = &rec
	reg := l.reg
	subs := append(make([]func(R), 0, len(l.subs)), l.subs...)
	l.mu.Unlock()
	if reg != nil && l.gauges != nil {
		l.gauges(reg, &rec)
	}
	for _, fn := range subs {
		fn(rec)
	}
}

// Latest returns the most recent record (nil before the first Publish).
// Safe for concurrent readers.
func (l *Lane[R]) Latest() *R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latest
}

// Handler serves the latest record as indented JSON — the layer's live
// endpoint on the telemetry monitor. Before the first Publish it serves an
// empty object.
func (l *Lane[R]) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		rec := l.Latest()
		if rec == nil {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte("{}\n"))
			return
		}
		writeJSON(w, rec)
	})
}
