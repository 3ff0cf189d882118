package solver

// Telemetry: the solver measures, the probe publishes. What a step record
// needs is left where the step put it — the per-stage wall clocks (a
// prof.Now stamp at the stage's start, on which its RHS span opens, and
// RK_UPDATE's exit stamp at its end), the extrema of the primitives as the
// final RK stage left them, and the heat-release integral, which piggybacks
// on the production rates the flux sweep (assembleFluxes) already computes
// and accumulates only during the final stage of a step. Nothing here
// forces an extra primitive-recovery or chemistry sweep, and nothing here
// publishes: the telemetry probe (the root package's Probe) reads these
// after each step, builds the one step record and sets every metric from
// it.

import "github.com/s3dgo/s3d/internal/comm"

// EnableTelemetry switches on the heat-release collection of every step's
// final RK stage, for the probe's step record. Call before the first
// StepOnce.
func (b *Block) EnableTelemetry() { b.telemetryOn = true }

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

// cellVol returns the quadrature volume of interior cell (i, j, k): the
// product of per-axis trapezoidal widths of the global coordinate lines.
// Degenerate axes (a single point, the quasi-2D z direction) take the full
// spec extent so integrals keep their physical dimensions. The width tables
// are built at block construction (a lazy init here would race the tiled
// chemistry kernel).
func (b *Block) cellVol(i, j, k int) float64 {
	return b.volW[0][i] * b.volW[1][j] * b.volW[2][k]
}

// lineWidths returns trapezoidal quadrature widths for one coordinate
// line: interior points own half the gap to each neighbour, end points own
// half of their single gap, and a one-point line owns the full extent l. A
// periodic line (uniform: only the jets' outflow y stretches) wraps onto
// itself, so every point owns one full spacing l/(n−1).
func lineWidths(coord []float64, l float64, periodic bool) []float64 {
	n := len(coord)
	w := make([]float64, n)
	switch {
	case n == 1:
		w[0] = l
	case periodic:
		for i := range w {
			w[i] = l / float64(n-1)
		}
	default:
		w[0] = 0.5 * (coord[1] - coord[0])
		w[n-1] = 0.5 * (coord[n-1] - coord[n-2])
		for i := 1; i < n-1; i++ {
			w[i] = 0.5 * (coord[i+1] - coord[i-1])
		}
	}
	return w
}
