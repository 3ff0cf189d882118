package prof

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndAggregation(t *testing.T) {
	p := New()
	tr := p.NewTrack(GroupRank, "rank0")

	outer := tr.Begin("STEP")
	inner := tr.Begin("RHS")
	time.Sleep(2 * time.Millisecond)
	inner.End()
	time.Sleep(time.Millisecond)
	outer.End()

	rep := Build(p)
	if len(rep.Paths) != 2 {
		t.Fatalf("paths = %d, want 2: %+v", len(rep.Paths), rep.Paths)
	}
	var step, rhs *PathStats
	for _, ps := range rep.Paths {
		switch ps.Path {
		case "STEP":
			step = ps
		case "STEP/RHS":
			rhs = ps
		default:
			t.Fatalf("unexpected path %q", ps.Path)
		}
	}
	if step == nil || rhs == nil {
		t.Fatalf("missing paths: %+v", rep.Paths)
	}
	if step.Depth != 0 || rhs.Depth != 1 {
		t.Fatalf("depths = %d, %d", step.Depth, rhs.Depth)
	}
	if step.Incl < rhs.Incl {
		t.Fatalf("inclusive STEP %.6f < RHS %.6f", step.Incl, rhs.Incl)
	}
	// Exclusive STEP excludes the nested RHS time.
	if got := step.Incl - rhs.Incl; abs(got-step.Excl) > 1e-9 {
		t.Fatalf("exclusive STEP = %.9f, want %.9f", step.Excl, got)
	}
	if rhs.Excl != rhs.Incl {
		t.Fatalf("leaf exclusive %.9f != inclusive %.9f", rhs.Excl, rhs.Incl)
	}
	if step.Calls != 1 || rhs.Calls != 1 {
		t.Fatalf("calls = %d, %d", step.Calls, rhs.Calls)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSameNameDifferentParentsStayDistinct(t *testing.T) {
	p := New()
	tr := p.NewTrack(GroupRank, "rank0")
	a := tr.Begin("A")
	tr.Begin("DERIV").End()
	a.End()
	b := tr.Begin("B")
	tr.Begin("DERIV").End()
	b.End()

	rep := Build(p)
	var paths []string
	for _, ps := range rep.Paths {
		paths = append(paths, ps.Path)
	}
	joined := strings.Join(paths, " ")
	for _, want := range []string{"A/DERIV", "B/DERIV"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing path %q in %q", want, joined)
		}
	}
}

func TestNilAndDisabledTracksRecordNothing(t *testing.T) {
	var nilTrack *Track
	sp := nilTrack.Begin("X")
	sp.End() // must not panic

	p := New()
	p.SetEnabled(false)
	tr := p.NewTrack(GroupRank, "rank0")
	tr.Begin("X").End()
	if rep := Build(p); len(rep.Paths) != 0 {
		t.Fatalf("disabled profiler recorded %d paths", len(rep.Paths))
	}
	p.SetEnabled(true)
	tr.Begin("X").End()
	if rep := Build(p); len(rep.Paths) != 1 {
		t.Fatalf("re-enabled profiler recorded %d paths, want 1", len(Build(p).Paths))
	}
}

func TestCrossRankImbalance(t *testing.T) {
	p := New()
	fast := p.NewTrack(GroupRank, "rank0")
	slow := p.NewTrack(GroupRank, "rank1")

	s := fast.Begin("KERNEL")
	time.Sleep(time.Millisecond)
	s.End()
	s = slow.Begin("KERNEL")
	time.Sleep(5 * time.Millisecond)
	s.End()

	rep := Build(p)
	if len(rep.Paths) != 1 {
		t.Fatalf("paths = %d", len(rep.Paths))
	}
	ps := rep.Paths[0]
	if ps.MaxRank != "rank1" {
		t.Fatalf("straggler = %q, want rank1", ps.MaxRank)
	}
	if ps.MinRank != "rank0" {
		t.Fatalf("min rank = %q", ps.MinRank)
	}
	if !(ps.MinSec < ps.MeanSec && ps.MeanSec < ps.MaxSec) {
		t.Fatalf("spread not ordered: %.6f/%.6f/%.6f", ps.MinSec, ps.MeanSec, ps.MaxSec)
	}
	if ps.StdSec <= 0 {
		t.Fatalf("stddev = %.9f, want > 0", ps.StdSec)
	}
	if ps.Calls != 2 {
		t.Fatalf("calls = %d, want 2", ps.Calls)
	}
	// A rank that never enters a path must count as zero, not be skipped.
	s = fast.Begin("ONLY_RANK0")
	s.End()
	rep = Build(p)
	for _, q := range rep.Paths {
		if q.Path == "ONLY_RANK0" && q.MinSec != 0 {
			t.Fatalf("absent rank min = %.9f, want 0", q.MinSec)
		}
	}
}

func TestConcurrentTracksWithSnapshots(t *testing.T) {
	p := New()
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tr := p.NewTrack(GroupWorker, "worker")
		wg.Add(1)
		go func(tr *Track) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s := tr.Begin("TILE")
				tr.Begin("INNER").End()
				s.End()
			}
		}(tr)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = Build(p) // concurrent snapshot while tracks record
		}
	}()
	wg.Wait()
	<-done
	rep := Build(p)
	if len(rep.Workers) != n {
		t.Fatalf("workers = %d", len(rep.Workers))
	}
	var busyEvents int64
	for _, w := range rep.Workers {
		for _, k := range w.Kernels {
			busyEvents += k.Calls
		}
	}
	if busyEvents != n*400 {
		t.Fatalf("worker events = %d, want %d", busyEvents, n*400)
	}
}

func TestChromeTraceExport(t *testing.T) {
	p := New()
	r0 := p.NewTrack(GroupRank, "rank0")
	w0 := p.NewTrack(GroupWorker, "worker0")
	s := r0.Begin("STEP")
	r0.Begin("RHS").End()
	s.End()
	w0.Begin("TILE").End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, p); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	var xEvents, meta int
	pids := map[float64]bool{}
	for _, e := range tr.TraceEvents {
		switch e["ph"] {
		case "X":
			xEvents++
			for _, k := range []string{"name", "ts", "pid", "tid"} {
				if _, ok := e[k]; !ok {
					t.Fatalf("event missing %q: %v", k, e)
				}
			}
			pids[e["pid"].(float64)] = true
		case "M":
			meta++
		}
	}
	if xEvents != 3 {
		t.Fatalf("complete events = %d, want 3", xEvents)
	}
	if len(pids) != 2 {
		t.Fatalf("distinct pids = %d, want 2 (ranks + workers)", len(pids))
	}
	if meta < 4 { // 2 process_name + 2 thread_name
		t.Fatalf("metadata events = %d", meta)
	}
}

func TestReportRenderings(t *testing.T) {
	p := New()
	tr := p.NewTrack(GroupRank, "rank0")
	s := tr.Begin("STEP")
	tr.Begin("REACTION_RATE_BOUNDS").End()
	s.End()
	rep := Build(p)
	txt := rep.Text()
	for _, want := range []string{"call-path profile", "STEP", "REACTION_RATE_BOUNDS", "straggler"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text report missing %q:\n%s", want, txt)
		}
	}
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 { // header + 2 paths
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "path,name,depth,calls") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestUnbalancedInnerSpanRecovers(t *testing.T) {
	p := New()
	tr := p.NewTrack(GroupRank, "rank0")
	outer := tr.Begin("OUTER")
	_ = tr.Begin("LEAKED") // End never called
	outer.End()
	// The stack must be clean again: a new top-level span lands at depth 0.
	tr.Begin("NEXT").End()
	rep := Build(p)
	for _, ps := range rep.Paths {
		if ps.Path == "NEXT" && ps.Depth != 0 {
			t.Fatalf("NEXT depth = %d, want 0", ps.Depth)
		}
	}
}

// TestSpanChild: completed child spans placed at the end of an open span
// get their own call paths under it, the parent's exclusive time is what
// they leave, and the track's event end times stay monotone.
func TestSpanChild(t *testing.T) {
	p := New()
	tr := p.NewTrack(GroupRank, "rank0")
	step := tr.Begin("STEP")
	div := tr.Begin("DIVERGENCE")
	time.Sleep(3 * time.Millisecond)
	now := Now()
	ms := time.Millisecond.Nanoseconds()
	div.Child("REACTION_RATE_BOUNDS", now-2*ms, ms)
	div.Child("NSCBC", now-ms, ms)
	div.End()
	step.End()
	Span{}.Child("NSCBC", now, ms) // the zero Span records nothing

	snap := tr.Snapshot()
	if len(snap.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(snap.Events))
	}
	for i := 1; i < len(snap.Events); i++ {
		a, b := snap.Events[i-1], snap.Events[i]
		if a.Start+a.Dur > b.Start+b.Dur {
			t.Fatalf("event %d ends at %d after event %d's %d", i-1, a.Start+a.Dur, i, b.Start+b.Dur)
		}
	}
	paths := map[string]*PathStats{}
	for _, ps := range Build(p).Paths {
		paths[ps.Path] = ps
	}
	d, c, n := paths["STEP/DIVERGENCE"], paths["STEP/DIVERGENCE/REACTION_RATE_BOUNDS"], paths["STEP/DIVERGENCE/NSCBC"]
	if d == nil || c == nil || n == nil {
		t.Fatalf("paths = %v", paths)
	}
	if c.Incl != 1e-3 || n.Incl != 1e-3 || c.Calls != 1 || n.Calls != 1 {
		t.Fatalf("children %+v, %+v: want 1ms over one call each", c, n)
	}
	if got := d.Excl + c.Excl + n.Excl; abs(got-d.Incl) > 1e-12 {
		t.Fatalf("exclusive times sum to %.9fs of the %.9fs parent span", got, d.Incl)
	}
}
