package s3d

// Cost maps: the public face of the spatial cost-attribution sampler
// (internal/cost). EnableCostMaps installs a per-block collector that, on
// every due step, records what the step measured: each tracked kernel's
// exclusive region-timer seconds over the step plus its run and unit counts
// and unit times, as the kernel plan timed every unit. The record
// is the publishing rank's own window — no collective — and carries
// wall-clock, so it varies run to run. It streams to the run trace's cost
// records, GET /cost, the cost_* gauges and the workflow dashboard's balance
// lane. See README.md, "Cost maps & load balance".

import (
	"fmt"

	"github.com/s3dgo/s3d/internal/cost"
	"github.com/s3dgo/s3d/internal/obs"
)

// CostRecord is one due step's measured cost record (re-exported from
// internal/cost for subscribers and ReadCost consumers).
type CostRecord = cost.Record

// CostSpec configures EnableCostMaps. Every is the record cadence in
// steps (≤0 selects every step).
type CostSpec struct {
	Every int
}

// EnableCostMaps builds, installs and enables the cost-attribution sampler,
// and returns the collector for Subscribe, Latest and Handler access.
// Session.Arm states where it belongs in the enable order.
func (s *Simulation) EnableCostMaps(spec CostSpec) (*cost.Collector, error) {
	c := cost.NewCollector(spec.Every)
	s.blk.InstallCost(c)
	c.Enable()
	return c, nil
}

// Cost returns the installed collector (nil before EnableCostMaps).
func (s *Simulation) Cost() *cost.Collector { return s.blk.Cost() }

// SubscribeCost registers fn to receive every cost record, on
// the goroutine driving the simulation. EnableCostMaps must have been
// called.
func (s *Simulation) SubscribeCost(fn func(CostRecord)) error {
	c := s.blk.Cost()
	if c == nil {
		return fmt.Errorf("s3d: SubscribeCost requires EnableCostMaps first")
	}
	c.Subscribe(fn)
	return nil
}

// ReadCost loads the cost records of a run trace, in step order.
func ReadCost(path string) ([]CostRecord, error) { return readLayer[CostRecord](path, obs.KindCost) }
