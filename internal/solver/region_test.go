package solver

import (
	"math"
	"testing"
	"time"

	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
)

// TestRegionCharge: each fused sweep of an RK stage — the flux stage with
// its chemistry, then the divergence with its NSCBC faces — charges its
// part's clocked time when the sweep's busy time (its units summed, as the
// plan timed them) is no more than the wall (one worker) and the part's
// share of the wall otherwise, out of the open region on both the perf
// timers and the profiler track.
func TestRegionCharge(t *testing.T) {
	const ms = time.Millisecond
	sweeps := []struct{ timer, span, part string }{
		{"ASSEMBLE_FLUXES", "ASSEMBLE_FLUXES", "REACTION_RATE_BOUNDS"},
		{"DERIVATIVES", "DIVERGENCE", "NSCBC"},
	}
	for _, tc := range []struct {
		name              string
		wall, total, part time.Duration
		want              time.Duration
	}{
		{"one worker", 10 * ms, 9 * ms, 3 * ms, 3 * ms},
		{"two workers", 10 * ms, 16 * ms, 8 * ms, 5 * ms},
	} {
		var now time.Time
		p := prof.New()
		b := &Block{Timers: perf.NewTimersClock(func() time.Time { return now }), ws: make([]kernScratch, 2)}
		b.profT = p.NewTrack(prof.GroupRank, "rank0")
		for _, sw := range sweeps {
			// The part splits unevenly over two workers' clocks.
			b.ws[0].clk, b.ws[1].clk = tc.part/3, tc.part-tc.part/3
			reg := b.beginRegionNamed(sw.timer, sw.span)
			time.Sleep(tc.wall)
			now = now.Add(tc.wall)
			reg.charge(tc.wall, tc.total, sw.part)
			reg.End()
			if b.ws[0].clk != 0 || b.ws[1].clk != 0 {
				t.Fatalf("%s %s: worker clocks not cleared: %v %v", tc.name, sw.span, b.ws[0].clk, b.ws[1].clk)
			}
		}

		tm := b.Timers
		if err := tm.Err(); err != nil {
			t.Fatal(err)
		}
		for _, sw := range sweeps {
			for name, want := range map[string]time.Duration{sw.part: tc.want, sw.timer: tc.wall - tc.want} {
				if r := tm.Region(name); r == nil || r.Exclusive != want || r.Calls != 1 {
					t.Fatalf("%s: %s = %+v, want exclusive %v over one call", tc.name, name, r, want)
				}
			}
		}
		if got := tm.Total(); got != 2*tc.wall {
			t.Fatalf("%s: exclusive times sum to %v of a %v wall", tc.name, got, 2*tc.wall)
		}

		// Each sweep records its child span, then its own span at End.
		snap := b.profT.Snapshot()
		if len(snap.Events) != 2*len(sweeps) {
			t.Fatalf("%s: %d events, want %d", tc.name, len(snap.Events), 2*len(sweeps))
		}
		for i, ev := range snap.Events[1:] {
			if prev := snap.Events[i]; prev.Start+prev.Dur > ev.Start+ev.Dur {
				t.Fatalf("%s: event end times not monotone at %d", tc.name, i+1)
			}
		}
		paths := map[string]*prof.PathStats{}
		for _, ps := range prof.Build(p).Paths {
			paths[ps.Path] = ps
		}
		for i, sw := range sweeps {
			child := sw.span + "/" + sw.part
			ch, sp := snap.Events[2*i], snap.Events[2*i+1]
			if ch.Start < sp.Start || ch.Start+ch.Dur > sp.Start+sp.Dur {
				t.Fatalf("%s: %s %+v outside its span %+v", tc.name, child, ch, sp)
			}
			d, c := paths[sw.span], paths[child]
			if d == nil || c == nil {
				t.Fatalf("%s: paths = %v", tc.name, paths)
			}
			if c.Incl != tc.want.Seconds() {
				t.Fatalf("%s: child span %s %gs, want %v", tc.name, child, c.Incl, tc.want)
			}
			if got := d.Excl + c.Excl; math.Abs(got-d.Incl) > 1e-12 {
				t.Fatalf("%s: exclusive times sum to %.9fs of the %.9fs %s span", tc.name, got, d.Incl, sw.span)
			}
		}
	}

	// A charge with no open region records the timers' sticky error.
	b := &Block{Timers: perf.NewTimers(), ws: make([]kernScratch, 1)}
	b.ws[0].clk = ms
	region{b: b}.charge(ms, ms, "NSCBC")
	if b.Timers.Err() == nil {
		t.Fatal("a charge with no open region set no error")
	}
}
