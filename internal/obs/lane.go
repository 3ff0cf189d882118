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
// the latest live document and the registry its gauges go to. R is the
// record subscribers receive; D is the document Latest and Handler serve
// (the same type except where a layer pairs the record with a side channel,
// as cost does with its measured window).
type Lane[R, D any] struct {
	every   int
	enabled atomic.Bool
	gauges  func(*Registry, *D)

	mu     sync.Mutex
	subs   []func(R)
	latest *D
	reg    *Registry
}

// NewLane creates a disabled lane due every `every` steps (values below 1
// select every step). gauges, when non-nil, sets the layer's gauges from a
// freshly published document once a registry is attached.
func NewLane[R, D any](every int, gauges func(*Registry, *D)) Lane[R, D] {
	if every < 1 {
		every = 1
	}
	return Lane[R, D]{every: every, gauges: gauges}
}

// Every returns the cadence in steps.
func (l *Lane[R, D]) Every() int { return l.every }

// Enable starts the lane; Disable stops it. Enabled is the one atomic load
// the step loop pays while the layer is off.
func (l *Lane[R, D]) Enable()       { l.enabled.Store(true) }
func (l *Lane[R, D]) Disable()      { l.enabled.Store(false) }
func (l *Lane[R, D]) Enabled() bool { return l.enabled.Load() }

// Due reports whether the lane publishes at the given (completed) step.
func (l *Lane[R, D]) Due(step int) bool {
	return l.enabled.Load() && step > 0 && step%l.every == 0
}

// Subscribe registers a callback invoked with every published record, on
// the publishing goroutine, in registration order.
func (l *Lane[R, D]) Subscribe(fn func(R)) {
	l.mu.Lock()
	l.subs = append(l.subs, fn)
	l.mu.Unlock()
}

// AttachMetrics directs the layer's gauges at a registry; they appear in
// /metrics and /metrics.prom.
func (l *Lane[R, D]) AttachMetrics(reg *Registry) {
	l.mu.Lock()
	l.reg = reg
	l.mu.Unlock()
}

// Publish installs doc as the live document, updates the attached gauges
// and fans rec out to the subscribers. Subscribers run outside the lock, so
// one may call Latest or Subscribe.
func (l *Lane[R, D]) Publish(rec R, doc *D) {
	l.mu.Lock()
	l.latest = doc
	reg := l.reg
	subs := append(make([]func(R), 0, len(l.subs)), l.subs...)
	l.mu.Unlock()
	if reg != nil && l.gauges != nil {
		l.gauges(reg, doc)
	}
	for _, fn := range subs {
		fn(rec)
	}
}

// Latest returns the most recent document (nil before the first Publish).
// Safe for concurrent readers.
func (l *Lane[R, D]) Latest() *D {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latest
}

// Handler serves the latest document as indented JSON — the layer's live
// endpoint on the telemetry monitor. Before the first Publish it serves an
// empty object.
func (l *Lane[R, D]) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		doc := l.Latest()
		if doc == nil {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte("{}\n"))
			return
		}
		writeJSON(w, doc)
	})
}
