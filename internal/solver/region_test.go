package solver

import (
	"math"
	"testing"
	"time"

	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
)

// TestRegionCharge: each fused sweep of an RK stage — the flux stage with
// its chemistry, then the divergence with its NSCBC faces — ends by charging
// its part's clocked time when the sweep's busy time (its units summed, as
// the plan timed them) is no more than the region's own wall (one worker)
// and the part's share of that wall otherwise, out of the region on both the
// perf timers and the profiler track, whose spans sit on the timers' stamps.
func TestRegionCharge(t *testing.T) {
	const ms = int64(time.Millisecond)
	sweeps := []struct{ timer, span, part string }{
		{"ASSEMBLE_FLUXES", "ASSEMBLE_FLUXES", "REACTION_RATE_BOUNDS"},
		{"DERIVATIVES", "DIVERGENCE", "NSCBC"},
	}
	for _, tc := range []struct {
		name              string
		wall, total, part int64
		want              int64
	}{
		{"one worker", 10 * ms, 9 * ms, 3 * ms, 3 * ms},
		{"two workers", 10 * ms, 16 * ms, 8 * ms, 5 * ms},
	} {
		now := int64(1000)
		p := prof.New()
		b := &Block{Timers: perf.NewTimersClock(func() int64 { return now }), ws: make([]kernScratch, 2)}
		b.profT = p.NewTrack(prof.GroupRank, "rank0")
		for _, sw := range sweeps {
			// The part splits unevenly over two workers' clocks.
			b.ws[0].clk, b.ws[1].clk = tc.part/3, tc.part-tc.part/3
			reg := b.beginRegionNamed(sw.timer, sw.span)
			now += tc.wall
			reg.endCharged(time.Duration(tc.total), sw.part)
			if b.ws[0].clk != 0 || b.ws[1].clk != 0 {
				t.Fatalf("%s %s: worker clocks not cleared: %v %v", tc.name, sw.span, b.ws[0].clk, b.ws[1].clk)
			}
		}

		tm := b.Timers
		if err := tm.Err(); err != nil {
			t.Fatal(err)
		}
		for _, sw := range sweeps {
			for name, want := range map[string]int64{sw.part: tc.want, sw.timer: tc.wall - tc.want} {
				if r := tm.Region(name); r == nil || int64(r.Exclusive) != want || r.Calls != 1 {
					t.Fatalf("%s: %s = %+v, want exclusive %v over one call", tc.name, name, r, time.Duration(want))
				}
			}
		}
		if got := tm.Total(); int64(got) != 2*tc.wall {
			t.Fatalf("%s: exclusive times sum to %v of a %v wall", tc.name, got, time.Duration(2*tc.wall))
		}

		// Each sweep records its child span, then its own span, both ending
		// on the timer's exit stamp and lasting what the timers gained.
		snap := b.profT.Snapshot()
		if len(snap.Events) != 2*len(sweeps) {
			t.Fatalf("%s: %d events, want %d", tc.name, len(snap.Events), 2*len(sweeps))
		}
		for i, sw := range sweeps {
			child := sw.span + "/" + sw.part
			ch, sp := snap.Events[2*i], snap.Events[2*i+1]
			end := int64(1000) + int64(i+1)*tc.wall
			if sp.Start != end-tc.wall || sp.Dur != int64(tm.Region(sw.timer).Inclusive) ||
				ch.Start != end-tc.want || ch.Dur != int64(tm.Region(sw.part).Inclusive) {
				t.Fatalf("%s: %s %+v and its span %+v off the timers' stamps", tc.name, child, ch, sp)
			}
		}
		paths := map[string]*prof.PathStats{}
		for _, ps := range prof.Build(p).Paths {
			paths[ps.Path] = ps
		}
		for _, sw := range sweeps {
			d, c := paths[sw.span], paths[sw.span+"/"+sw.part]
			if d == nil || c == nil {
				t.Fatalf("%s: paths = %v", tc.name, paths)
			}
			if got := d.Excl + c.Excl; math.Abs(got-d.Incl) > 1e-12 {
				t.Fatalf("%s: exclusive times sum to %.9fs of the %.9fs %s span", tc.name, got, d.Incl, sw.span)
			}
		}
	}

	// Ending a region that was never opened records the timers' sticky error.
	b := &Block{Timers: perf.NewTimers(), ws: make([]kernScratch, 1)}
	b.ws[0].clk = ms
	region{b: b, timer: "DERIVATIVES"}.endCharged(time.Duration(ms), "NSCBC")
	if b.Timers.Err() == nil || b.Timers.Region("NSCBC") != nil {
		t.Fatal("ending a region never opened set no error or charged its part")
	}
}
