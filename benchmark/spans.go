package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the recorder was made; Parent is the ID of the span
// that caused this one (0: none). Spans of one run share its Workload.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay one nil check per call site. Parents are
// passed explicitly because the two rank goroutines of the decomposed
// workload record under one parent at the same time.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Start: now})
	return id
}

// end closes the span.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// do runs fn inside a span.
func (r *recorder) do(parent int, name string, fn func()) {
	id := r.begin(parent, name)
	fn()
	r.end(id)
}

// writeFile writes the spans as one JSON array.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	data, err := json.MarshalIndent(r.spans, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is a span name's totals over a run.
type selfTime struct {
	Name  string
	Calls int
	Total time.Duration // Σ duration
	Self  time.Duration // Σ (duration − the part of it child spans cover)
}

// selfTimes folds spans by name. A span's self time is its duration minus
// the union of its direct children's intervals clipped to it; children may
// overlap each other (two ranks under one parent), so the union is taken,
// not the sum.
func selfTimes(spans []span) []selfTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Calls++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - covered)
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}
