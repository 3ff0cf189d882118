package solver

import (
	"math"
	"testing"
	"time"

	"github.com/s3dgo/s3d/internal/perf"
	"github.com/s3dgo/s3d/internal/prof"
)

// TestRegionCharge: the fused sweep's charge reports each part's clocked
// time when the workers' clocks sum to no more than the wall (one worker)
// and its share of the wall otherwise, out of the open region on both the
// perf timers and the profiler track.
func TestRegionCharge(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name                  string
		wall, total, chem, bc time.Duration
		wantChem, wantBC      time.Duration
	}{
		{"one worker", 10 * ms, 9 * ms, 3 * ms, 2 * ms, 3 * ms, 2 * ms},
		{"two workers", 10 * ms, 16 * ms, 8 * ms, 4 * ms, 5 * ms, 2500 * time.Microsecond},
	} {
		var now time.Time
		p := prof.New()
		b := &Block{Timers: perf.NewTimersClock(func() time.Time { return now }), ws: make([]kernScratch, 2)}
		b.profT = p.NewTrack(prof.GroupRank, "rank0")
		// The parts split unevenly over two workers' clocks.
		div := tc.total - tc.chem - tc.bc
		b.ws[0].clk = [3]time.Duration{div / 2, tc.chem, 0}
		b.ws[1].clk = [3]time.Duration{div - div/2, 0, tc.bc}
		reg := b.beginRegionNamed("DERIVATIVES", "DIVERGENCE")
		time.Sleep(tc.wall)
		now = now.Add(tc.wall)
		reg.charge(tc.wall, [3]string{1: "REACTION_RATE_BOUNDS", 2: "NSCBC"})
		reg.End()
		if b.ws[0].clk != ([3]time.Duration{}) || b.ws[1].clk != ([3]time.Duration{}) {
			t.Fatalf("%s: worker clocks not cleared: %v %v", tc.name, b.ws[0].clk, b.ws[1].clk)
		}

		tm := b.Timers
		if err := tm.Err(); err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]time.Duration{
			"REACTION_RATE_BOUNDS": tc.wantChem, "NSCBC": tc.wantBC,
			"DERIVATIVES": tc.wall - tc.wantChem - tc.wantBC,
		} {
			if r := tm.Region(name); r == nil || r.Exclusive != want || r.Calls != 1 {
				t.Fatalf("%s: %s = %+v, want exclusive %v over one call", tc.name, name, r, want)
			}
		}
		if got := tm.Total(); got != tc.wall {
			t.Fatalf("%s: exclusive times sum to %v of a %v wall", tc.name, got, tc.wall)
		}

		snap := b.profT.Snapshot()
		divEv := snap.Events[len(snap.Events)-1]
		for i, ev := range snap.Events {
			if i > 0 {
				if prev := snap.Events[i-1]; prev.Start+prev.Dur > ev.Start+ev.Dur {
					t.Fatalf("%s: event end times not monotone at %d", tc.name, i)
				}
			}
			if ev.Start < divEv.Start || ev.Start+ev.Dur > divEv.Start+divEv.Dur {
				t.Fatalf("%s: event %+v outside the DIVERGENCE span %+v", tc.name, ev, divEv)
			}
		}
		paths := map[string]*prof.PathStats{}
		for _, ps := range prof.Build(p).Paths {
			paths[ps.Path] = ps
		}
		d, c, n := paths["DIVERGENCE"], paths["DIVERGENCE/REACTION_RATE_BOUNDS"], paths["DIVERGENCE/NSCBC"]
		if d == nil || c == nil || n == nil {
			t.Fatalf("%s: paths = %v", tc.name, paths)
		}
		if c.Incl != tc.wantChem.Seconds() || n.Incl != tc.wantBC.Seconds() {
			t.Fatalf("%s: child spans %gs, %gs, want %v, %v", tc.name, c.Incl, n.Incl, tc.wantChem, tc.wantBC)
		}
		if got := d.Excl + c.Excl + n.Excl; math.Abs(got-d.Incl) > 1e-12 {
			t.Fatalf("%s: exclusive times sum to %.9fs of the %.9fs DIVERGENCE span", tc.name, got, d.Incl)
		}
	}

	// A charge with no open region records the timers' sticky error.
	b := &Block{Timers: perf.NewTimers(), ws: make([]kernScratch, 1)}
	b.ws[0].clk[2] = ms
	region{b: b}.charge(ms, [3]string{2: "NSCBC"})
	if b.Timers.Err() == nil {
		t.Fatal("a charge with no open region set no error")
	}
}
