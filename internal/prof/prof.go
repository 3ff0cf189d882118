// Package prof is an always-compilable, opt-in call-path profiler in the
// spirit of TAU/HPCToolkit — the tooling that drove the paper's §4
// node-level optimisation campaign. Hot regions open nestable spans on a
// per-rank (or per-pool-worker) Track; each completed span records one
// timeline event attributed to an interned call path ("STEP/RHS/MPI_WAIT"),
// so blocked communication time is charged to the call path that blocked,
// exactly as TAU attributed S3D's MPI_WAIT to the ghost-zone exchange.
//
// The profiler aggregates per-rank inclusive/exclusive call-path trees with
// cross-rank imbalance statistics (aggregate.go), exports Chrome
// trace_event timelines loadable in chrome://tracing or Perfetto
// (chrometrace.go), renders text/CSV call-path reports (report.go), and
// compares measured kernel rates against the internal/perf analytic
// roofline (roofline.go).
//
// Cost contract: with no profiler attached a Begin/End pair is two nil
// checks; with a profiler attached but disabled it is two atomic loads.
// Spans are region-grained (dozens per time step), so the enabled path's
// mutex-guarded event append stays far below the ≤5% overhead budget
// guarded by BenchmarkProfOverhead.
package prof

import (
	"sync"
	"sync/atomic"
	"time"
)

// Track group names used by the exporters to lay out timelines: one process
// row for the ranks, one for the pool workers.
const (
	GroupRank   = "rank"
	GroupWorker = "worker"
)

// start is the origin of the process's one event clock.
var start = time.Now()

// Now returns nanoseconds since process start on the monotonic clock: the
// one timebase of profiler spans, comm envelopes and critpath step windows,
// so a timestamp taken by any of them compares directly with any other's.
func Now() int64 { return time.Since(start).Nanoseconds() }

// Profiler owns a set of tracks. Creating a Profiler is the opt-in; a nil
// *Track (no profiler attached) records nothing.
type Profiler struct {
	on     atomic.Bool
	mu     sync.Mutex
	tracks []*Track
}

// New creates an enabled profiler; all span timestamps are on the Now clock.
func New() *Profiler {
	p := &Profiler{}
	p.on.Store(true)
	return p
}

// SetEnabled toggles span recording globally. Spans begun while disabled
// record nothing; spans already open when the state flips still record.
func (p *Profiler) SetEnabled(on bool) { p.on.Store(on) }

// Enabled reports whether spans are being recorded.
func (p *Profiler) Enabled() bool { return p.on.Load() }

// NewTrack registers a timeline track. Group selects the exporter layout
// row (GroupRank or GroupWorker); name labels the track ("rank0",
// "worker3"). The returned track's span methods must be called from a
// single owning goroutine at a time (the rank or worker the track belongs
// to); snapshotting for export is safe concurrently.
func (p *Profiler) NewTrack(group, name string) *Track {
	t := &Track{
		p:        p,
		group:    group,
		name:     name,
		nodes:    []pathNode{{name: "", parent: -1}},
		children: make(map[childKey]int32),
	}
	p.mu.Lock()
	t.id = len(p.tracks)
	p.tracks = append(p.tracks, t)
	p.mu.Unlock()
	return t
}

// Tracks returns the registered tracks in creation order.
func (p *Profiler) Tracks() []*Track {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Track, len(p.tracks))
	copy(out, p.tracks)
	return out
}

// childKey locates a call-path node by its parent and region name.
type childKey struct {
	parent int32
	name   string
}

// pathNode is one interned call-path node; node 0 is the synthetic root.
type pathNode struct {
	name   string
	parent int32
}

// Event is one completed span on a track's timeline. Start is on the Now
// clock; Path indexes the track's node table. Args are optional key/value
// annotations (tile coordinates on worker spans) carried through to the
// Chrome trace exporter; nil for plain spans.
type Event struct {
	Path  int32
	Start int64
	Dur   int64
	Args  map[string]string
}

// Track is one timeline: a call-path node table, the owner goroutine's open
// span stack, and the recorded events.
type Track struct {
	p     *Profiler
	group string
	name  string
	id    int

	// stack holds the open call-path, touched only by the owning goroutine.
	stack []int32

	// mu guards nodes/children/events against concurrent Snapshot readers
	// (the live monitor exports profiles mid-run).
	mu       sync.Mutex
	nodes    []pathNode
	children map[childKey]int32
	events   []Event
}

// Name returns the track label ("rank0").
func (t *Track) Name() string { return t.name }

// Profiler returns the profiler the track records on, or nil for a nil
// track — so a subsystem handed only a track (solver blocks hold one) can
// reach the shared snapshot machinery.
func (t *Track) Profiler() *Profiler {
	if t == nil {
		return nil
	}
	return t.p
}

// Group returns the track's layout group (GroupRank or GroupWorker).
func (t *Track) Group() string { return t.group }

// Recording reports whether spans begun now would record: the track is
// attached to an enabled profiler. Callers building span annotations
// (BeginArgs) should gate the allocation on it.
func (t *Track) Recording() bool {
	return t != nil && t.p.on.Load()
}

// Begin opens a nested span named after a region. It is safe (and free) on
// a nil track; with a disabled profiler it costs one atomic load. The
// returned Span must be closed with End on the same goroutine.
func (t *Track) Begin(name string) Span {
	return t.BeginArgs(name, nil)
}

// BeginArgs is Begin with key/value annotations attached to the recorded
// event (rendered as the args field of the Chrome trace span).
func (t *Track) BeginArgs(name string, args map[string]string) Span {
	if t == nil || !t.p.on.Load() {
		return Span{}
	}
	parent := int32(0)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.mu.Lock()
	id := t.node(parent, name)
	t.mu.Unlock()
	t.stack = append(t.stack, id)
	return Span{t: t, path: id, start: Now(), args: args}
}

// node interns the call-path node name under parent. Callers hold t.mu.
func (t *Track) node(parent int32, name string) int32 {
	id, ok := t.children[childKey{parent, name}]
	if !ok {
		id = int32(len(t.nodes))
		t.nodes = append(t.nodes, pathNode{name: name, parent: parent})
		t.children[childKey{parent, name}] = id
	}
	return id
}

// Span is one open region on a track. The zero Span (from a nil or disabled
// track) is valid and End is a no-op on it.
type Span struct {
	t     *Track
	path  int32
	start int64
	args  map[string]string
}

// End closes the span and records its timeline event. Unbalanced inner
// spans (a missed End below this frame) are discarded rather than left to
// corrupt the stack.
func (s Span) End() {
	if s.t == nil {
		return
	}
	t := s.t
	end := Now()
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1] == s.path {
			t.stack = t.stack[:n-1]
			break
		}
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Path: s.path, Start: s.start, Dur: end - s.start, Args: s.args})
	t.mu.Unlock()
}

// Child records a completed child span of the open span s, [start,
// start+dur) on the Now clock, which the caller places inside s and after
// the track's last event end. A no-op on the zero Span.
func (s Span) Child(name string, start, dur int64) {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	t.events = append(t.events, Event{Path: t.node(s.path, name), Start: start, Dur: dur})
	t.mu.Unlock()
}

// PathNode is the exported form of one call-path node.
type PathNode struct {
	Name   string
	Parent int32 // -1 for the root node
}

// TrackSnapshot is a consistent copy of one track for export; safe to read
// while the owning goroutine keeps recording.
type TrackSnapshot struct {
	Group  string
	Name   string
	ID     int
	Nodes  []PathNode
	Events []Event
}

// Snapshot copies the track's node table and events.
func (t *Track) Snapshot() TrackSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TrackSnapshot{Group: t.group, Name: t.name, ID: t.id}
	s.Nodes = make([]PathNode, len(t.nodes))
	for i, n := range t.nodes {
		s.Nodes[i] = PathNode{Name: n.name, Parent: n.parent}
	}
	s.Events = make([]Event, len(t.events))
	copy(s.Events, t.events)
	return s
}

// SnapshotRange copies the track's node table and only the events whose
// span overlaps [loNs, hiNs) on the Now clock. Because events append
// at span End, end times (Start+Dur) are monotone non-decreasing per
// track, so the scan walks backward from the tail and stops at the first
// event that ended before loNs — a windowed snapshot stays cheap on long
// runs (the critpath analyzer takes one per analyzed step).
func (t *Track) SnapshotRange(loNs, hiNs int64) TrackSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TrackSnapshot{Group: t.group, Name: t.name, ID: t.id}
	s.Nodes = make([]PathNode, len(t.nodes))
	for i, n := range t.nodes {
		s.Nodes[i] = PathNode{Name: n.name, Parent: n.parent}
	}
	lo := len(t.events)
	for lo > 0 && t.events[lo-1].Start+t.events[lo-1].Dur >= loNs {
		lo--
	}
	for _, ev := range t.events[lo:] {
		if ev.Start < hiNs && ev.Start+ev.Dur >= loNs {
			s.Events = append(s.Events, ev)
		}
	}
	return s
}

// Snapshot copies every track, in creation order.
func (p *Profiler) Snapshot() []TrackSnapshot {
	tracks := p.Tracks()
	out := make([]TrackSnapshot, len(tracks))
	for i, t := range tracks {
		out[i] = t.Snapshot()
	}
	return out
}
