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

// charge reports a part of a fused sweep out of the open region r that
// timed it (wall). The workers clock their tiles in ws[·].clk[0] and the
// part in ws[·].clk[1] (both cleared here); the part goes to region name
// ("" keeps it in r) as d·min(1, wall/Σ tiles) — exact at one worker —
// through Timers.Charge and as a child span at the end of r's span.
func (r region) charge(wall time.Duration, name string) {
	var total, part time.Duration
	for w := range r.b.ws {
		ws := &r.b.ws[w]
		total, part = total+ws.clk[0], part+ws.clk[1]
		ws.clk = [2]time.Duration{}
	}
	if name == "" {
		return
	}
	if total > wall {
		part = time.Duration(float64(part) * (float64(wall) / float64(total)))
	}
	r.b.Timers.Charge(name, part)
	r.sp.Child(name, prof.Now()-part.Nanoseconds(), part.Nanoseconds())
}
