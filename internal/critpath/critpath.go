// Package critpath is the cross-rank wait-state and critical-path analyzer
// in the spirit of Scalasca/Vampir, layered on internal/comm's event trace
// and internal/prof's call-path spans. Per analyzed step it matches message
// edges across ranks, classifies waits (late-sender, late-receiver,
// wait-at-collective with a root-cause rank), extracts the step's
// cross-rank critical path by walking backward from the last-finishing
// rank, and attributes critical-path time to profiler call-path regions
// and pool worker tracks — answering "which rank made this step slow, and
// who waited on whom" (see DESIGN.md, internal/critpath).
//
// One Analyzer is shared by every rank of a run (the cmd layer creates it
// before RunDecomposed, like the shared profiler). Ranks deposit their
// drained traces at the end of a due step; the last depositor analyzes and
// publishes, the others wait — a barrier that also guarantees the
// subscribed trace has appended before any rank proceeds.
package critpath

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/s3dgo/s3d/internal/obs"
	"github.com/s3dgo/s3d/internal/prof"
)

// Analyzer owns the analysis state shared across ranks. Cadence, enable
// flag (Due is the one atomic load the step loop pays when the analyzer is
// off), subscribers, the latest record, the critpath_* gauges and the GET
// /critpath handler are the embedded obs.Lane; subscribers run once per
// analyzed step, on the depositing goroutine that completed its barrier.
type Analyzer struct {
	obs.Lane[Record]
	// usesInternal marks that at least one rank records blame spans on the
	// analyzer's own profiler (the run had none of its own); the internal
	// profiler is then enabled only for due steps so disarmed steps pay
	// two atomic loads per span, nothing more.
	usesInternal atomic.Bool

	internal *prof.Profiler

	mu        sync.Mutex
	cond      *sync.Cond
	ranks     int // 0 until Register
	deposits  map[int]*Deposit
	doneStep  int
	extProf   *prof.Profiler // adopted from deposited tracks, for export
	abortedFn func() bool    // run-abort check for the deposit barrier

	// Chrome-trace overlay: one synthetic track accumulating the critical
	// path of every analyzed step.
	ovNodes  []prof.PathNode
	ovIdx    map[string]int32
	ovEvents []prof.Event
}

// New creates a disabled analyzer that reduces every `every` steps (min 1).
// Enable arms it; the per-step cost while disabled is one atomic load.
func New(every int) *Analyzer {
	a := &Analyzer{
		Lane:     obs.NewLane[Record](every, setGauges),
		deposits: map[int]*Deposit{},
		internal: prof.New(),
		ovNodes:  []prof.PathNode{{Name: "", Parent: -1}},
		ovIdx:    map[string]int32{},
	}
	a.internal.SetEnabled(false)
	a.cond = sync.NewCond(&a.mu)
	return a
}

// Register declares the number of ranks that will deposit. Every rank calls
// it once at install; the first call wins, later calls must agree on the
// rank count.
func (a *Analyzer) Register(ranks int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ranks != 0 && a.ranks != ranks {
		return fmt.Errorf("critpath: analyzer registered for %d ranks, rank count %d disagrees", a.ranks, ranks)
	}
	a.ranks = ranks
	return nil
}

// InternalRankTrack creates a rank track on the analyzer's internal
// profiler, for runs that carry no profiler of their own: blame needs
// call-path spans. The internal profiler is enabled only while a due step
// is in flight.
func (a *Analyzer) InternalRankTrack(rank int) *prof.Track {
	a.usesInternal.Store(true)
	return a.internal.NewTrack(prof.GroupRank, fmt.Sprintf("rank%d", rank))
}

// Internal reports whether t is a track of the analyzer's own profiler
// (InternalRankTrack) rather than of a profiler the run enabled.
func (a *Analyzer) Internal(t *prof.Track) bool { return t.Profiler() == a.internal }

// ArmStep opens a due step's collection window: when blame spans come from
// the internal profiler, recording turns on for the step.
func (a *Analyzer) ArmStep() {
	if a.usesInternal.Load() {
		a.internal.SetEnabled(true)
	}
}

// BindAbort hooks the deposit barrier into a run-abort mechanism (the
// comm world's): aborted reports whether the run has aborted, register
// arranges a wake-up call when it does. Without the binding, a rank parked
// in the barrier while a peer dies would sleep forever.
func (a *Analyzer) BindAbort(register func(func()), aborted func() bool) {
	a.mu.Lock()
	if a.abortedFn != nil {
		a.mu.Unlock()
		return
	}
	a.abortedFn = aborted
	a.mu.Unlock()
	register(func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
}

// Deposit hands one rank's step trace to the analyzer and blocks until the
// step is analyzed and published: the last rank to deposit runs the
// analysis, so the call doubles as a step barrier and a happens-before
// edge on every subscriber (the run trace has the record before any rank
// resumes stepping).
func (a *Analyzer) Deposit(d Deposit) {
	a.mu.Lock()
	a.deposits[d.Rank] = &d
	if len(a.deposits) < a.ranks {
		for a.doneStep < d.Step {
			if a.abortedFn != nil && a.abortedFn() {
				a.mu.Unlock()
				panic("critpath: run aborted while rank waited for step analysis")
			}
			a.cond.Wait()
		}
		a.mu.Unlock()
		return
	}
	deps := make([]*Deposit, a.ranks)
	for r := range deps {
		deps[r] = a.deposits[r]
	}
	a.deposits = map[int]*Deposit{}

	// Adopt the profiler behind the deposited tracks (they all share one).
	var p *prof.Profiler
	for _, dep := range deps {
		if p = dep.Track.Profiler(); p != nil {
			a.extProf = p
			break
		}
	}
	rec := analyze(deps, a.workerTracks(p))
	if a.extProf != nil {
		a.appendOverlay(deps, rec)
	}
	if a.usesInternal.Load() {
		a.internal.SetEnabled(false)
	}
	a.mu.Unlock()

	a.Publish(rec)

	a.mu.Lock()
	a.doneStep = rec.Step
	a.cond.Broadcast()
	a.mu.Unlock()
}

// setGauges publishes a record as the critpath.* gauges.
func setGauges(reg *obs.Registry, rec *Record) {
	var ls, lr, cw int64
	for _, w := range rec.Waits {
		ls += w.LateSenderNs
		lr += w.LateRecvNs
		cw += w.CollNs
	}
	reg.Gauge("critpath.step").Set(float64(rec.Step))
	reg.Gauge("critpath.crit_rank").Set(float64(rec.CritRank))
	reg.Gauge("critpath.crit_share").Set(rec.CritShare)
	reg.Gauge("critpath.lost_frac").Set(rec.LostFrac)
	reg.Gauge("critpath.edges").Set(float64(rec.Edges))
	reg.Gauge("critpath.match_completeness").Set(rec.MatchCompleteness)
	reg.Gauge("critpath.late_sender_ns").Set(float64(ls))
	reg.Gauge("critpath.late_recv_ns").Set(float64(lr))
	reg.Gauge("critpath.coll_wait_ns").Set(float64(cw))
}

// workerTracks lists the adopted profiler's pool worker tracks (blame's
// worker-overlap column); nil when blame runs on the internal profiler,
// which never attaches pools (overhead).
func (a *Analyzer) workerTracks(p *prof.Profiler) []*prof.Track {
	if p == nil || p == a.internal {
		return nil
	}
	var out []*prof.Track
	for _, t := range p.Tracks() {
		if t.Group() == prof.GroupWorker {
			out = append(out, t)
		}
	}
	return out
}

// appendOverlay adds the record's critical-path segments to the synthetic
// Chrome-trace overlay track. Called under a.mu.
func (a *Analyzer) appendOverlay(deps []*Deposit, rec Record) {
	lo := deps[0].StartNs
	for _, d := range deps[1:] {
		if d.StartNs < lo {
			lo = d.StartNs
		}
	}
	for _, s := range rec.Path {
		name := fmt.Sprintf("crit:rank%d", s.Rank)
		id, ok := a.ovIdx[name]
		if !ok {
			id = int32(len(a.ovNodes))
			a.ovNodes = append(a.ovNodes, prof.PathNode{Name: name, Parent: 0})
			a.ovIdx[name] = id
		}
		// Path segments are rebased to the step window; undo that so the
		// overlay aligns with real spans.
		a.ovEvents = append(a.ovEvents, prof.Event{
			Path: id, Start: s.StartNs + lo, Dur: s.EndNs - s.StartNs,
			Args: map[string]string{
				"step": fmt.Sprint(rec.Step),
				"via":  s.Via,
			},
		})
	}
}

// WriteChromeTrace exports the blame profiler's timeline with the
// critical-path overlay as an extra process group, loadable in
// chrome://tracing or Perfetto — the critical path renders as a dedicated
// lane of crit:rankN spans above the real call-path rows.
func (a *Analyzer) WriteChromeTrace(w io.Writer) error {
	a.mu.Lock()
	p := a.extProf
	overlay := prof.TrackSnapshot{Group: "critpath", Name: "critical-path", ID: 1 << 20}
	overlay.Nodes = append(overlay.Nodes, a.ovNodes...)
	overlay.Events = append(overlay.Events, a.ovEvents...)
	a.mu.Unlock()
	var snaps []prof.TrackSnapshot
	if p != nil {
		snaps = p.Snapshot()
	}
	snaps = append(snaps, overlay)
	return prof.WriteChromeTraceFrom(w, snaps)
}
