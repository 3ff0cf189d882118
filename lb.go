package s3d

// Dynamic load balancing: the public face of the cost-weighted tile
// planner and cross-rank chemistry work-sharing (internal/solver/lb.go).
// EnableLoadBalance folds the deterministic cost records into per-plane
// weight profiles that re-tile the chemistry and fused flux-assembly
// sweeps, and — in decomposed runs — into a deterministic assignment that
// ships reaction-sweep cell bundles from overloaded ranks to underloaded
// peers on the final RK stage. All balancing decisions derive from the
// bitwise-reproducible cost record, and the per-cell arithmetic and
// reduction order never change, so a balanced run's solution is bitwise
// identical to the unbalanced one at any worker and rank count. See
// README.md, "Dynamic load balancing".

// LoadBalanceSpec configures EnableLoadBalance.
type LoadBalanceSpec struct {
	// Every is the re-plan cadence in steps (≤0 selects 10). It doubles as
	// the cost-record cadence when EnableLoadBalance has to install the
	// cost sampler itself.
	Every int
	// Hysteresis is the fractional weight-profile change below which the
	// active plan is kept (≤0 selects 0.10): re-tiling churn costs cache
	// warmth, so near-identical profiles shouldn't move tile boundaries.
	Hysteresis float64
	// Slack is the fractional cross-rank chemistry imbalance tolerated
	// before work-sharing transfers are planned (≤0 selects 0.05).
	Slack float64
}

// EnableLoadBalance installs the dynamic load balancer. It requires the
// cost sampler and enables it with a matching cadence when absent.
// Session.Arm states where it belongs in the enable order.
func (s *Simulation) EnableLoadBalance(spec LoadBalanceSpec) error {
	if spec.Every <= 0 {
		spec.Every = 10
	}
	if s.blk.Cost() == nil {
		if _, err := s.EnableCostMaps(CostSpec{Every: spec.Every}); err != nil {
			return err
		}
	}
	return s.blk.InstallLoadBalance(spec.Every, spec.Hysteresis, spec.Slack)
}

// LoadBalanceStats returns the cells this rank has shipped to peers and
// computed on behalf of peers since EnableLoadBalance (both zero in serial
// runs, where balancing is purely local re-tiling).
func (s *Simulation) LoadBalanceStats() (exported, imported int64) {
	return s.blk.LoadBalanceStats()
}
