package solver

import (
	"time"

	"github.com/s3dgo/s3d/internal/prof"
)

// EnableProfiling attaches a call-path profiler track to the block: every
// instrumented kernel region opens a span on tr alongside its perf timer,
// and the block's communicator charges its MPI_* spans to the same track,
// so blocked communication time appears under the call path that blocked
// (GHOST_EXCHANGE/MPI_WAIT). The track must belong to this block's rank
// goroutine. Pass nil to detach.
func (b *Block) EnableProfiling(tr *prof.Track) {
	b.profT = tr
	b.cart.Comm.AttachProfiler(tr)
}

// ProfTrack returns the block's profiler track (nil when not profiling).
func (b *Block) ProfTrack() *prof.Track { return b.profT }

// region couples a figure-2 perf timer region with a call-path span, so the
// instrumented kernels keep one begin/end pair for both systems.
type region struct {
	b     *Block
	timer string
	sp    prof.Span
}

// beginRegion opens the named timer region and a span of the same name.
func (b *Block) beginRegion(name string) region {
	return b.beginRegionNamed(name, name)
}

// beginRegionNamed opens timer region timerName and a span named spanName
// (the divergence sweep shares the DERIVATIVES timer but gets its own
// DIVERGENCE span so the roofline can tell the two sweeps apart).
func (b *Block) beginRegionNamed(timerName, spanName string) region {
	b.Timers.Start(timerName)
	return region{b: b, timer: timerName, sp: b.profT.Begin(spanName)}
}

// End closes the span and the timer region.
func (r region) End() {
	r.sp.End()
	r.b.Timers.Stop(r.timer)
}

// charge reports the parts of a fused sweep out of the open region r that
// timed it (wall). Part i, which the workers clocked in ws[·].clk[i]
// (cleared here), goes to region parts[i] ("" keeps it in r) as
// d·min(1, wall/Σ all parts) — exact at one worker — through Timers.Charge
// and as child spans back to back at the end of r's span.
func (r region) charge(wall time.Duration, parts [3]string) {
	var clk [3]time.Duration
	for w := range r.b.ws {
		for i, d := range r.b.ws[w].clk {
			clk[i] += d
		}
		r.b.ws[w].clk = [3]time.Duration{}
	}
	scale := 1.0
	if total := clk[0] + clk[1] + clk[2]; total > wall {
		scale = float64(wall) / float64(total)
	}
	var sum time.Duration
	for i, name := range parts {
		clk[i] = time.Duration(float64(clk[i]) * scale)
		if name != "" {
			sum += clk[i]
		}
	}
	start := prof.Now() - sum.Nanoseconds()
	for i, name := range parts {
		if name != "" {
			r.b.Timers.Charge(name, clk[i])
			r.sp.Child(name, start, clk[i].Nanoseconds())
			start += clk[i].Nanoseconds()
		}
	}
}
