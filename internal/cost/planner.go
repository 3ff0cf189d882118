package cost

// The planning side of dynamic load balancing: Planner turns the per-step
// chemistry cost profiles measured by the collector into stable per-plane
// weight profiles for par.Plan.SetWeights, and PlanSharing turns the
// record's per-rank chemistry totals into a deterministic cross-rank
// work-sharing assignment. Both are pure functions of deterministic record
// data — every rank derives bitwise-identical plans from the ordered fold,
// which is what lets donors and recipients agree on bundle sizes without a
// negotiation round and keeps balanced runs bitwise equal to unbalanced
// ones.

import "math"

// Planner folds measured chemistry profiles into a stable active weight
// profile: a fresh profile is adopted only when the re-plan cadence has
// elapsed and the profile moved more than the hysteresis fraction since the
// active plan was installed. Plans therefore change rarely (partitions stay
// cached, tile shapes stay comparable step to step) while still tracking a
// moving flame front.
type Planner struct {
	every      int
	hysteresis float64

	lastStep int
	active   []float64

	installs, keeps int
}

// NewPlanner builds a planner with the given re-plan cadence (steps between
// plan changes; minimum 1) and hysteresis (fractional L1 profile change
// below which the active plan is kept; negative treated as 0).
func NewPlanner(every int, hysteresis float64) *Planner {
	if every < 1 {
		every = 1
	}
	if hysteresis < 0 {
		hysteresis = 0
	}
	return &Planner{every: every, hysteresis: hysteresis, lastStep: math.MinInt32}
}

// Fold offers the profile measured at step and returns the active profile
// plus whether it changed (callers re-install weights only on change). The
// first profile is always adopted; afterwards a profile is adopted when the
// cadence has elapsed since the last decision and the relative L1 distance
// to the active profile is at least the hysteresis.
func (p *Planner) Fold(step int, profile []float64) ([]float64, bool) {
	if p.active != nil {
		if step-p.lastStep < p.every {
			p.keeps++
			return p.active, false
		}
		if len(profile) == len(p.active) {
			var diff, norm float64
			for i, v := range profile {
				d := v - p.active[i]
				if d < 0 {
					d = -d
				}
				diff += d
				norm += p.active[i]
			}
			if norm > 0 && diff/norm < p.hysteresis {
				p.lastStep = step
				p.keeps++
				return p.active, false
			}
		}
	}
	p.active = append(p.active[:0], profile...)
	p.lastStep = step
	p.installs++
	return p.active, true
}

// Every returns the re-plan cadence in steps.
func (p *Planner) Every() int { return p.every }

// Stats returns how many profiles were adopted vs kept (diagnostics).
func (p *Planner) Stats() (installs, keeps int) { return p.installs, p.keeps }

// Transfer is one donor→recipient shipment of the cross-rank work-sharing
// assignment: rank From computes Work units less of its own chemistry and
// ships the corresponding cells to rank To. The assignment is derived from
// the ordered-fold rank totals, so every rank computes the identical
// transfer list — there is no racing steal.
type Transfer struct {
	From, To int
	Work     float64
}

// PlanSharing derives the deterministic work-sharing assignment from a
// record's per-rank chemistry totals. slack is the fractional deviation
// from the mean a rank may carry before it participates (donors above
// (1+slack)·mean, recipients below (1−slack)·mean). Greedy max-surplus →
// max-deficit matching with lowest-rank tie-breaks: pure, deterministic,
// and donor/recipient sets are disjoint, so the exchange is bipartite and
// deadlock-free.
func PlanSharing(totals []float64, slack float64) []Transfer {
	n := len(totals)
	if n < 2 {
		return nil
	}
	var sum float64
	for _, v := range totals {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil
		}
		sum += v
	}
	if sum <= 0 {
		return nil
	}
	mean := sum / float64(n)
	if slack < 0 {
		slack = 0
	}
	tol := slack * mean
	surplus := make([]float64, n)
	for i, v := range totals {
		surplus[i] = v - mean
	}
	var out []Transfer
	for iter := 0; iter < 4*n; iter++ {
		d, r := -1, -1
		for i := 0; i < n; i++ {
			if surplus[i] > tol && (d < 0 || surplus[i] > surplus[d]) {
				d = i
			}
			if -surplus[i] > tol && (r < 0 || surplus[i] < surplus[r]) {
				r = i
			}
		}
		if d < 0 || r < 0 {
			break
		}
		amt := surplus[d]
		if -surplus[r] < amt {
			amt = -surplus[r]
		}
		out = append(out, Transfer{From: d, To: r, Work: amt})
		surplus[d] -= amt
		surplus[r] += amt
	}
	return out
}
