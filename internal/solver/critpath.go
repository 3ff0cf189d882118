package solver

// The solver side of the cross-rank wait-state and critical-path analyzer
// (internal/critpath): a due step arms the block's comm event trace and
// opens a window on the prof.Now clock; after the end-of-step fold,
// critStep drains the trace and deposits it at the shared analyzer, whose
// barrier publishes the analyzed record before any rank resumes stepping.

import (
	"time"

	"github.com/s3dgo/s3d/internal/critpath"
	"github.com/s3dgo/s3d/internal/prof"
)

// InstallCritPath attaches the run's shared critpath analyzer to the block
// (pass nil to detach). Every rank of a run must install the SAME analyzer
// — it doubles as the deposit barrier. Blocks without a profiler track of
// their own get a rank track on the analyzer's internal profiler, so blame
// attribution works either way.
func (b *Block) InstallCritPath(a *critpath.Analyzer) error {
	if a == nil {
		b.critA = nil
		return nil
	}
	w := b.cart.Comm.World()
	if err := a.Register(w.Size()); err != nil {
		return err
	}
	// A rank that dies mid-step must not strand its peers in the deposit
	// barrier.
	a.BindAbort(w.OnAbort, w.Aborted)
	if b.profT == nil {
		b.EnableProfiling(a.InternalRankTrack(b.Rank()))
	}
	b.critA = a
	return nil
}

// CritPath returns the installed analyzer (nil when none).
func (b *Block) CritPath() *critpath.Analyzer { return b.critA }

// critArm opens the collection window for the step about to run: the
// analyzer arms (enabling its internal profiler if blame runs on it), the
// window-open timestamp is taken, and the block's communicator starts
// recording point-to-point and collective envelopes stamped with the step
// context.
func (b *Block) critArm() {
	b.critA.ArmStep()
	b.critStart = prof.Now()
	b.cart.Comm.SetStepContext(b.Step+1, 0)
	b.cart.Comm.ArmTrace(true)
}

// critStage stamps the running RK stage onto traced comm envelopes.
func (b *Block) critStage(stage int) {
	if b.critDue {
		b.cart.Comm.SetStepContext(b.Step+1, stage)
	}
}

// critStep deposits a due step's drained trace at the shared analyzer and
// blocks until the step is analyzed — the deposit doubles as a step
// barrier, so every rank sees the published record (and rank 0's trace has
// it) before stepping on. Runs after the end-of-step fold's clean verdict,
// so all ranks reach it on the same step.
func (b *Block) critStep() {
	if !b.critDue {
		return
	}
	b.critDue = false
	a := b.critA
	d := critpath.Deposit{
		Rank: b.Rank(), Step: b.Step, Time: b.Time,
		StartNs: b.critStart, EndNs: prof.Now(), Track: b.profT,
	}
	d.PtP, d.Coll = b.cart.Comm.DrainTrace()
	b.cart.Comm.ArmTrace(false)
	a.Deposit(d)
}

// SetStragglerDelay injects an artificial per-stage delay into this rank's
// chemistry (zero disables) — the validation hook for the critpath
// analyzer: a slowed rank must show up as the critical-path owner with its
// peers in late-sender waits (and in its own cost record's chemistry row).
func (b *Block) SetStragglerDelay(d time.Duration) { b.stragglerDelay = d }

// CommWaitByPeer appends to dst[:0] this rank's cumulative Wait-blocked
// nanoseconds by peer rank (comm.World.WaitByPeer). The counters accumulate
// whether or not the critpath analyzer is armed.
func (b *Block) CommWaitByPeer(dst []int64) []int64 {
	return b.cart.Comm.World().WaitByPeer(b.Rank(), dst)
}
