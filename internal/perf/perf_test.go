package perf

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTimersExclusiveNesting(t *testing.T) {
	// Injected clock: each call advances 1 ms.
	now := time.Unix(0, 0)
	clk := func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}
	tm := NewTimersClock(clk)
	tm.Start("outer") // t=1
	tm.Start("inner") // t=2
	tm.Stop("inner")  // t=3 → inner excl 1ms
	tm.Stop("outer")  // t=4 → outer incl 3ms, excl 3-1=2ms
	if got := tm.Region("inner").Exclusive; got != time.Millisecond {
		t.Fatalf("inner exclusive = %v", got)
	}
	if got := tm.Region("outer").Exclusive; got != 2*time.Millisecond {
		t.Fatalf("outer exclusive = %v", got)
	}
	if got := tm.Region("outer").Inclusive; got != 3*time.Millisecond {
		t.Fatalf("outer inclusive = %v", got)
	}
}

func TestTimersMismatchedStopRecordsError(t *testing.T) {
	tm := NewTimers()
	tm.Start("a")
	tm.Stop("b") // mismatched: must not panic, must record a descriptive error
	err := tm.Err()
	if err == nil {
		t.Fatal("expected sticky error after mismatched Stop")
	}
	if !strings.Contains(err.Error(), `Stop("b")`) || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("error not descriptive: %v", err)
	}
	tm.Stop("a") // region a is still open and must close cleanly
	if tm.Region("a").Calls != 1 {
		t.Fatalf("region a calls = %d", tm.Region("a").Calls)
	}
	// The first error is sticky across later misuse.
	tm.Stop("a")
	if got := tm.Err(); got != err {
		t.Fatalf("sticky error replaced: %v", got)
	}
}

func TestTimersStopEmptyStackRecordsError(t *testing.T) {
	tm := NewTimers()
	tm.Stop("never-started")
	if err := tm.Err(); err == nil || !strings.Contains(err.Error(), "empty region stack") {
		t.Fatalf("err = %v", err)
	}
}

func TestTimersSnapshotIsImmutableCopy(t *testing.T) {
	now := time.Unix(0, 0)
	clk := func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}
	tm := NewTimersClock(clk)
	tm.Start("rhs")
	tm.Stop("rhs")
	snap := tm.Snapshot()
	tm.Start("rhs")
	tm.Stop("rhs")
	tm.Start("filter")
	tm.Stop("filter")
	if snap.Region("rhs").Calls != 1 {
		t.Fatalf("snapshot mutated by later accumulation: calls = %d", snap.Region("rhs").Calls)
	}
	if snap.Region("filter") != nil {
		t.Fatal("snapshot grew a region recorded after the copy")
	}
	// The per-rank merge pattern: snapshots from each rank fold into a fresh
	// aggregate owned by the merging goroutine.
	agg := NewTimers()
	agg.Merge(snap)
	agg.Merge(tm.Snapshot())
	if agg.Region("rhs").Calls != 3 {
		t.Fatalf("merged calls = %d", agg.Region("rhs").Calls)
	}
}

func TestTimersReportAndMerge(t *testing.T) {
	tm := NewTimers()
	tm.Start("work")
	time.Sleep(time.Millisecond)
	tm.Stop("work")
	rep := tm.Report()
	if !strings.Contains(rep, "work") {
		t.Fatalf("report missing region: %s", rep)
	}
	other := NewTimers()
	other.Start("work")
	other.Stop("work")
	other.Start("extra")
	other.Stop("extra")
	tm.Merge(other)
	if tm.Region("work").Calls != 2 || tm.Region("extra") == nil {
		t.Fatal("merge failed")
	}
}

func TestNodalCostMatchesPaper(t *testing.T) {
	// Figure 1: ≈55 µs/gp/step on XT4, ≈68 µs on XT3 (±10%).
	c4 := NodalCost(XT4, S3DKernels) * 1e6
	c3 := NodalCost(XT3, S3DKernels) * 1e6
	if math.Abs(c4-55)/55 > 0.10 {
		t.Fatalf("XT4 cost = %.1f µs, want ≈ 55", c4)
	}
	if math.Abs(c3-68)/68 > 0.10 {
		t.Fatalf("XT3 cost = %.1f µs, want ≈ 68", c3)
	}
	// The paper's ≈24% XT3 penalty.
	if r := c3 / c4; r < 1.15 || r > 1.35 {
		t.Fatalf("XT3/XT4 ratio = %.2f, want ≈ 1.24", r)
	}
}

func TestWeakScalingFlat(t *testing.T) {
	cores := []int{2, 64, 1024, 8192}
	for _, mode := range []string{"xt3", "xt4"} {
		pts := WeakScaling(cores, mode)
		first := pts[0].CostPerGP
		for _, p := range pts {
			if math.Abs(p.CostPerGP-first)/first > 0.03 {
				t.Fatalf("%s not flat: %.2f vs %.2f µs", mode, p.CostPerGP*1e6, first*1e6)
			}
		}
	}
}

func TestWeakScalingHybridPlateau(t *testing.T) {
	pts := WeakScaling([]int{2, 8192, 12000, 22800}, "hybrid")
	c3 := NodalCost(XT3, S3DKernels)
	c4 := NodalCost(XT4, S3DKernels)
	// Below the XT4 complement the hybrid runs at XT4 speed.
	if math.Abs(pts[0].CostPerGP-c4)/c4 > 0.03 {
		t.Fatalf("hybrid small = %.1f µs, want XT4 %.1f", pts[0].CostPerGP*1e6, c4*1e6)
	}
	// "the cost per grid point per time step from 12000 to 22800 cores is
	// approximately 68 ms [µs], matching the computation rate on the XT3
	// cores alone."
	for _, p := range pts[2:] {
		if math.Abs(p.CostPerGP-c3)/c3 > 0.03 {
			t.Fatalf("hybrid plateau = %.1f µs at %d cores, want XT3 %.1f",
				p.CostPerGP*1e6, p.Cores, c3*1e6)
		}
		if p.XT3Fraction <= 0 {
			t.Fatalf("no XT3 cores at %d", p.Cores)
		}
	}
}

func TestHybridBalanceMatchesPaper(t *testing.T) {
	// Figure 3 at the 2007 configuration: "46% of the nodes are XT4 nodes,
	// leading to a predicted performance of 61 µs per grid point".
	pts := HybridBalance([]float64{0, 0.46, 1})
	at46 := pts[1].CostPerGP * 1e6
	if math.Abs(at46-61)/61 > 0.08 {
		t.Fatalf("balanced hybrid at 46%% XT4 = %.1f µs, want ≈ 61", at46)
	}
	// Monotone decreasing in XT4 fraction.
	if !(pts[0].CostPerGP > pts[1].CostPerGP && pts[1].CostPerGP > pts[2].CostPerGP) {
		t.Fatalf("balance curve not decreasing: %v", pts)
	}
	// Pure XT4 recovers the 55 µs rate.
	if got := pts[2].CostPerGP * 1e6; math.Abs(got-55)/55 > 0.10 {
		t.Fatalf("pure XT4 balanced = %.1f µs", got)
	}
}

func TestRegionBreakdownXT4WaitsXT3Works(t *testing.T) {
	// Figure 2: XT4 ranks spend "substantially longer in MPI_Wait"; the
	// chemistry kernel takes "nearly identical time in both classes" while
	// COMPUTESPECIESDIFFFLUX is "noticeably longer" on XT3.
	b3 := RegionBreakdown(XT3, XT3, S3DKernels)
	b4 := RegionBreakdown(XT4, XT3, S3DKernels)
	if b4["MPI_WAIT"] <= b3["MPI_WAIT"] {
		t.Fatalf("XT4 wait %.3g not above XT3 wait %.3g", b4["MPI_WAIT"], b3["MPI_WAIT"])
	}
	chemRatio := b3["REACTION_RATE_BOUNDS"] / b4["REACTION_RATE_BOUNDS"]
	if math.Abs(chemRatio-1) > 0.02 {
		t.Fatalf("chemistry differs across node types: ratio %.3f", chemRatio)
	}
	diffRatio := b3["COMPUTESPECIESDIFFFLUX"] / b4["COMPUTESPECIESDIFFFLUX"]
	if diffRatio < 1.3 {
		t.Fatalf("diffusive flux not memory-bound: XT3/XT4 ratio %.2f", diffRatio)
	}
	// The diffusive flux kernel is a leading memory-bound consumer (§4.1
	// reports 11.3% of the total on the XD1).
	_, _, saving := DiffFluxModelSpeedup(XD1, 2.94)
	if saving < 0.04 || saving > 0.12 {
		t.Fatalf("modelled whole-code saving = %.1f%%, want ≈ 6.8%%", saving*100)
	}
}

func TestDiffFluxModelImproves(t *testing.T) {
	before, after, saving := DiffFluxModelSpeedup(XD1, 2.94)
	if !(after < before) || saving <= 0 {
		t.Fatalf("no modelled improvement: %g → %g", before, after)
	}
}

// TestTimersCharge: a charge moves exactly d from the innermost open region
// to the charged one, the exclusive times still sum to the wall, and a
// charge with no open region sets the sticky error without panicking.
func TestTimersCharge(t *testing.T) {
	var now time.Time
	tm := NewTimersClock(func() time.Time { return now })
	tm.Start("STEP")
	now = now.Add(10 * time.Millisecond)
	tm.Start("DERIVATIVES")
	now = now.Add(20 * time.Millisecond)
	tm.Charge("REACTION_RATE_BOUNDS", 7*time.Millisecond)
	tm.Charge("NSCBC", 3*time.Millisecond)
	tm.Stop("DERIVATIVES")
	now = now.Add(10 * time.Millisecond)
	tm.Stop("STEP")
	for name, want := range map[string]time.Duration{
		"STEP": 20 * time.Millisecond, "DERIVATIVES": 10 * time.Millisecond,
		"REACTION_RATE_BOUNDS": 7 * time.Millisecond, "NSCBC": 3 * time.Millisecond,
	} {
		r := tm.Region(name)
		if r == nil || r.Exclusive != want || r.Calls != 1 {
			t.Fatalf("%s = %+v, want exclusive %v over one call", name, r, want)
		}
	}
	if r := tm.Region("NSCBC"); r.Inclusive != 3*time.Millisecond {
		t.Fatalf("NSCBC inclusive = %v", r.Inclusive)
	}
	if r := tm.Region("DERIVATIVES"); r.Inclusive != 20*time.Millisecond {
		t.Fatalf("DERIVATIVES inclusive = %v, want its 20ms wall", r.Inclusive)
	}
	if got := tm.Total(); got != 40*time.Millisecond {
		t.Fatalf("exclusive times sum to %v of a 40ms wall", got)
	}
	if err := tm.Err(); err != nil {
		t.Fatal(err)
	}

	tm.Charge("NSCBC", time.Millisecond) // no open region
	if err := tm.Err(); err == nil || !strings.Contains(err.Error(), `Charge("NSCBC")`) {
		t.Fatalf("err = %v", err)
	}
	if r := tm.Region("NSCBC"); r.Exclusive != 3*time.Millisecond || r.Calls != 1 {
		t.Fatalf("a charge with no open region changed NSCBC: %+v", r)
	}
}
