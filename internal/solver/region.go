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

// region couples a figure-2 perf timer region with a call-path span on one
// clock: the span opens and closes on the two prof.Now stamps the timer
// takes, so the instrumented kernels keep one begin/end pair for both
// systems and each interval is read off the clock once.
type region struct {
	b     *Block
	timer string
	start int64
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
	start := b.Timers.Start(timerName)
	return region{b: b, timer: timerName, start: start, sp: b.profT.BeginAt(spanName, start)}
}

// End closes the timer region and the span on one stamp, and returns it.
func (r region) End() int64 {
	end := r.b.Timers.Stop(r.timer)
	r.sp.EndAt(end)
	return end
}

// endCharged ends r, a fused sweep, and reports a part of it: the workers
// clock the part in ws[·].clk (cleared here); busy is the sweep's units
// summed, as the plan timed them (Plan.LastBusy). The part goes to region
// name ("" keeps it in r) as d·min(1, wall/busy) — exact at one worker —
// where wall is r's own interval, through Timers.Charge and as a child span
// at the end of r's span.
func (r region) endCharged(busy time.Duration, name string) {
	var part int64
	for w := range r.b.ws {
		part += r.b.ws[w].clk
		r.b.ws[w].clk = 0
	}
	end := r.b.Timers.Stop(r.timer)
	if name != "" {
		if wall := end - r.start; int64(busy) > wall {
			part = int64(float64(part) * (float64(wall) / float64(busy)))
		}
		r.b.Timers.Charge(r.timer, name, part)
		r.b.profT.Record(name, end-part, part)
	}
	r.sp.EndAt(end)
}
