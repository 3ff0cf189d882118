package s3d

// Critical path: the public face of the cross-rank wait-state and
// critical-path analyzer (internal/critpath). EnableCritPath installs the
// run's shared analyzer, which per analyzed step matches message edges
// across ranks from the comm event trace, classifies waits (late-sender,
// late-receiver, wait-at-collective with a root-cause rank), extracts the
// cross-rank critical path and blames it on profiler call-path regions —
// "step 142: critical path ran through rank 2, mostly in RHS/CHEM; ranks
// 0,1,3 lost 38% of the step in late-sender waits on rank 2". Records
// stream to the run trace, the GET /critpath document, the critpath_*
// gauges and the workflow dashboard's critpath lane. See README.md,
// "Observability stack", and DESIGN.md, internal/critpath.

import (
	"fmt"
	"time"

	"github.com/s3dgo/s3d/internal/critpath"
	"github.com/s3dgo/s3d/internal/obs"
)

// CritPathRecord is one analyzed step's wait-state and critical-path
// document (re-exported from internal/critpath).
type CritPathRecord = critpath.Record

// CritPathAnalyzer is the shared cross-rank analyzer (re-exported).
type CritPathAnalyzer = critpath.Analyzer

// CritPathSpec configures NewCritPathAnalyzer. Every is the analysis
// cadence in steps (≤0 selects every step).
type CritPathSpec struct {
	Every int
}

// NewCritPathAnalyzer builds the analyzer for a run. Decomposed runs
// create ONE analyzer before RunDecomposed and pass the same instance to
// every rank's EnableCritPath — the analyzer is the cross-rank deposit
// barrier (like the shared profiler, unlike the per-rank cost collector).
func NewCritPathAnalyzer(spec CritPathSpec) *CritPathAnalyzer {
	return critpath.New(spec.Every)
}

// EnableCritPath installs and enables the analyzer on this simulation; every
// rank of a decomposed run installs the same one. Session.Arm states where
// it belongs in the enable order.
func (s *Simulation) EnableCritPath(a *CritPathAnalyzer) error {
	if a == nil {
		return fmt.Errorf("s3d: EnableCritPath requires a non-nil analyzer (NewCritPathAnalyzer)")
	}
	if err := s.blk.InstallCritPath(a); err != nil {
		return err
	}
	a.Enable()
	return nil
}

// CritPath returns the installed analyzer (nil before EnableCritPath).
func (s *Simulation) CritPath() *CritPathAnalyzer { return s.blk.CritPath() }

// SubscribeCritPath registers fn to receive every analyzed record, on the
// goroutine that completed the step's deposit barrier (exactly one rank
// per record). EnableCritPath must have been called. Decomposed runs
// subscribe a single rank's simulation (conventionally rank 0) — the
// analyzer is shared, so one subscription sees every record.
func (s *Simulation) SubscribeCritPath(fn func(CritPathRecord)) error {
	a := s.blk.CritPath()
	if a == nil {
		return fmt.Errorf("s3d: SubscribeCritPath requires EnableCritPath first")
	}
	a.Subscribe(fn)
	return nil
}

// ReadCritPath loads the critpath records of a run trace, in step order.
func ReadCritPath(path string) ([]CritPathRecord, error) {
	return readLayer[CritPathRecord](path, obs.KindCritPath)
}

// InjectStraggler artificially slows this rank's chemistry sweep by d per
// RK stage (zero disables) — a validation hook: the slowed rank must
// surface as the critical-path owner, with its peers in late-sender waits
// and the chemistry region blamed. Exposed publicly because straggler
// experiments are how wait-state analytics are calibrated against the
// cost sampler's measured chemistry seconds (see the e2e tests).
func (s *Simulation) InjectStraggler(d time.Duration) {
	s.blk.SetStragglerDelay(d)
}
