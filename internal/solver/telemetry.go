package solver

// Telemetry hooks for the observability layer (internal/obs). The solver
// keeps instrumentation off the hot path: per-stage wall clocks are two
// time.Now calls per RK stage, and the heat-release integral piggybacks on
// the production rates chemSource already computes, accumulating only
// during the final RK stage of a step. Everything here is sampled "as the
// final stage left it" — the diagnostics describe the step that just
// completed without forcing an extra primitive-recovery or chemistry sweep.

import (
	"github.com/s3dgo/s3d/internal/comm"
	"github.com/s3dgo/s3d/internal/obs"
)

// EnableTelemetry switches on the per-step physics diagnostics (heat
// release, step/physics gauges) and attaches an optional metrics registry.
// reg may be nil: the obs metric handles are nil-receiver safe, so the
// physics diagnostics still accumulate and only the registry export is
// inert. Call before the first StepOnce.
func (b *Block) EnableTelemetry(reg *obs.Registry) {
	b.telemetryOn = true
	b.Metrics = reg
	if reg != nil {
		// Export the execution layer too: pool utilization gauges and the
		// per-kernel tile counters (par.workers, par.workers_busy,
		// par.tiles_total, par.tiles.<kernel>).
		b.plan.Pool().AttachMetrics(reg)
		b.plan.AttachMetrics(reg)
	}
}

// TelemetryEnabled reports whether EnableTelemetry was called.
func (b *Block) TelemetryEnabled() bool { return b.telemetryOn }

// HeatRelease returns the heat-release integral ∫(−Σ ω̇ᵢhᵢ) dV over the
// block interior in W, accumulated during the final RK stage of the most
// recent step. Zero until telemetry is enabled (or when chemistry is off).
func (b *Block) HeatRelease() float64 { return b.hrrAcc }

// MinMaxP returns the interior pressure extrema as left by the final RK
// stage of the last step (monitoring; pair of MinMaxT).
func (b *Block) MinMaxP() (float64, float64) { return b.P.MinMax() }

// CommStats returns this rank's cumulative message-passing counters (on a
// serial block: its one-rank collectives and no messages).
func (b *Block) CommStats() comm.RankStats { return b.cart.Comm.Stats() }

// stepWallBuckets bounds the step wall-clock histogram: 100 µs … 30 s.
var stepWallBuckets = []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 30}

// recordStepMetrics publishes the per-step gauges and counters after a
// completed StepOnce. Called only when telemetry is on.
func (b *Block) recordStepMetrics(dt, wall float64) {
	m := b.Metrics
	m.Counter("solver.steps").Inc()
	m.Gauge("solver.dt").Set(dt)
	m.Gauge("solver.sim_time").Set(b.Time)
	m.Gauge("solver.heat_release_w").Set(b.hrrAcc)
	m.Histogram("solver.step_wall_sec", stepWallBuckets).Observe(wall)
	tMin, tMax := b.MinMaxT()
	m.Gauge("solver.t_min").Set(tMin)
	m.Gauge("solver.t_max").Set(tMax)
}

// cellVol returns the quadrature volume of interior cell (i, j, k): the
// product of per-axis trapezoidal widths of the block's coordinate lines.
// Degenerate axes (a single point, the quasi-2D z direction) take the full
// spec extent so integrals keep their physical dimensions. The width tables
// are built at block construction (a lazy init here would race the tiled
// chemistry kernel).
func (b *Block) cellVol(i, j, k int) float64 {
	return b.volW[0][i] * b.volW[1][j] * b.volW[2][k]
}

// lineWidths returns trapezoidal quadrature widths for one coordinate
// line: interior points own half the gap to each neighbour, end points own
// half of their single gap, and a one-point line owns the full extent l.
func lineWidths(coord []float64, l float64) []float64 {
	n := len(coord)
	w := make([]float64, n)
	if n == 1 {
		w[0] = l
		return w
	}
	w[0] = 0.5 * (coord[1] - coord[0])
	w[n-1] = 0.5 * (coord[n-1] - coord[n-2])
	for i := 1; i < n-1; i++ {
		w[i] = 0.5 * (coord[i+1] - coord[i-1])
	}
	return w
}
