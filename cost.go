package s3d

// Cost maps: the public face of the spatial cost-attribution sampler
// (internal/cost). EnableCostMaps installs a per-block collector that
// attributes kernel cost to space — a deterministic chemistry work proxy
// written to the cost_chem / cost_density registry fields (visible through
// GET /fields and the viz pickers) plus wall-clock per-tile timings from
// the kernel plan's probe — and reduces per-step imbalance analytics
// cross-rank in ascending rank order. The deterministic record streams to
// cost.jsonl, the GET /cost document, the cost_* gauges and the workflow
// dashboard's balance lane; it is bitwise identical for any worker count.
// See README.md, "Cost maps & load balance".

import (
	"fmt"

	"github.com/s3dgo/s3d/internal/cost"
)

// CostRecord is one step's deterministic cost document (re-exported from
// internal/cost for subscribers and ReadCost consumers).
type CostRecord = cost.Record

// CostSpec configures EnableCostMaps. Every is the reduction cadence in
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

// SubscribeCost registers fn to receive every deterministic cost record, on
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

// NewCostStore creates (truncating) an append-only cost.jsonl store; wire
// its Sink into SubscribeCost to persist every record.
func NewCostStore(path string) (*cost.Store, error) { return cost.CreateStore(path) }

// ReadCost loads every record of a cost.jsonl store.
func ReadCost(path string) ([]CostRecord, error) { return cost.ReadCost(path) }
