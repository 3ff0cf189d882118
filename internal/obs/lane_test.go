package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

type laneRec struct {
	Step int `json:"step"`
}

// TestLane pins the contract the three record streams share: the cadence,
// a disabled lane that publishes nothing, subscribers in registration
// order, gauges only once a registry is attached, and the handler's empty
// object before the first record.
func TestLane(t *testing.T) {
	gauged := 0
	l := NewLane[laneRec](3, func(reg *Registry, doc *laneRec) {
		gauged++
		reg.Gauge("lane.step").Set(float64(doc.Step))
	})
	if l.Every() != 3 {
		t.Fatalf("Every = %d, want 3", l.Every())
	}
	if zero := NewLane[laneRec](0, nil); zero.Every() != 1 {
		t.Fatalf("cadence below 1 selects %d, want every step", zero.Every())
	}

	// Disabled: never due, whatever the step.
	for step := 0; step <= 6; step++ {
		if l.Enabled() || l.Due(step) {
			t.Fatalf("disabled lane due at step %d", step)
		}
	}
	l.Enable()
	var due []int
	for step := 0; step <= 7; step++ {
		if l.Due(step) {
			due = append(due, step)
		}
	}
	if len(due) != 2 || due[0] != 3 || due[1] != 6 || !l.Enabled() {
		t.Fatalf("due steps %v, want [3 6] (step 0 is never due)", due)
	}

	get := func() string {
		w := httptest.NewRecorder()
		l.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/lane", nil))
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		return w.Body.String()
	}
	if body := get(); body != "{}\n" || l.Latest() != nil {
		t.Fatalf("before the first record: body %q latest %v", body, l.Latest())
	}

	var order []string
	l.Subscribe(func(r laneRec) { order = append(order, "first") })
	l.Subscribe(func(r laneRec) {
		order = append(order, "second")
		// Subscribers run outside the lock and see the record installed.
		if lat := l.Latest(); lat == nil || lat.Step != r.Step {
			t.Errorf("subscriber saw latest %v for record %v", lat, r)
		}
	})
	rec := laneRec{Step: 3}
	l.Publish(rec)
	if strings.Join(order, ",") != "first,second" {
		t.Fatalf("subscriber order %v", order)
	}
	if gauged != 0 {
		t.Fatal("gauges set with no registry attached")
	}
	reg := NewRegistry()
	l.AttachMetrics(reg)
	rec = laneRec{Step: 6}
	l.Publish(rec)
	if gauged != 1 || reg.Gauge("lane.step").Value() != 6 {
		t.Fatalf("gauges after attach: calls %d value %v", gauged, reg.Gauge("lane.step").Value())
	}
	if body := get(); !strings.Contains(body, `"step": 6`) {
		t.Fatalf("handler body %q", body)
	}
}

// TestLaneConcurrentLatest reads Latest, Due and the handler from other
// goroutines while the owner publishes (run under -race).
func TestLaneConcurrentLatest(t *testing.T) {
	l := NewLane[laneRec](1, nil)
	l.Enable()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = l.Due(1)
				if lat := l.Latest(); lat != nil {
					if lat.Step < last {
						t.Errorf("latest went backwards: %d after %d", lat.Step, last)
						return
					}
					last = lat.Step
				}
				l.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
			}
		}()
	}
	for step := 1; step <= 200; step++ {
		rec := laneRec{Step: step}
		l.Publish(rec)
	}
	close(stop)
	wg.Wait()
}
