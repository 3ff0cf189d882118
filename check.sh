#!/bin/sh
# check.sh — the full pre-merge gate: build everything, vet everything,
# and run the test suite under the race detector. `make check` runs this.
set -eu

cd "$(dirname "$0")"

# Registry lint: all solver-adjacent field storage must come from the
# grid.FieldSet arena (or grid.Scratch for standalone cmd-tool buffers).
# Direct grid.NewField3* calls are allowed only inside internal/grid
# itself, in test files and in the benchmark module (a probe harness, not
# solver code; frozen by BENCHMARK.json).
echo "== field-registry lint (no grid.NewField3 outside internal/grid, benchmark and tests)"
violations=$(grep -rn 'grid\.NewField3' --include='*.go' . \
	| grep -v '^\./internal/grid/' \
	| grep -v '^\./benchmark/' \
	| grep -v '_test\.go:' || true)
if [ -n "$violations" ]; then
	echo "grid.NewField3 call sites outside internal/grid and tests:" >&2
	echo "$violations" >&2
	echo "register the field in a grid.FieldSet (or use grid.Scratch)" >&2
	exit 1
fi

# Storage-rule lint: how many ghost layers an axis carries is decided in one
# place (grid.AxisGhost: none along an axis of one point), so the arithmetic
# that sizes or strides field storage — "+ 2*grid.Ghost", "+ 2*ghost" — may
# appear only inside internal/grid, in test files and in the benchmark module
# (frozen by BENCHMARK.json). Anywhere else it re-derives the rule.
echo "== storage-rule lint (no '+ 2*ghost' arithmetic outside internal/grid, benchmark and tests)"
violations=$(grep -rnE '\+ *2 *\* *(grid\.)?[Gg]host\b' --include='*.go' . \
	| grep -v '^\./internal/grid/' \
	| grep -v '^\./benchmark/' \
	| grep -v '_test\.go:' || true)
if [ -n "$violations" ]; then
	echo "ghost-layer storage arithmetic outside internal/grid:" >&2
	echo "$violations" >&2
	echo "ask the field (Field3.Ghosts, Idx, Row) or the registry (FieldSet.Ghosts, FieldLen)" >&2
	exit 1
fi

# Wiring lint: the order the instrumentation layers are enabled in — and why
# telemetry starts last — is stated once, in Session.Arm (run.go). A driver
# that calls an Enable* or StartTelemetry itself re-derives that rule, so
# none of the three flag-sharing drivers may, outside test files.
echo "== wiring lint (no Enable*/StartTelemetry in cmd/s3d, cmd/liftedflame, cmd/bunsen)"
violations=$(grep -rnE 'Enable(Profiling|Health|Analysis|CostMaps|CritPath)\(|StartTelemetry\(' \
	--include='*.go' cmd/s3d cmd/liftedflame cmd/bunsen \
	| grep -v '_test\.go:' || true)
if [ -n "$violations" ]; then
	echo "instrumentation wiring inside a driver:" >&2
	echo "$violations" >&2
	echo "bind s3d.RunOptions and go through Open/Arm (run.go)" >&2
	exit 1
fi

# Stepping lint: a Simulation is stepped by one loop, Simulation.TryAdvance
# (health.go) — the one place a step is checked, observed by the probe and
# followed by the post-mortem dump. Every other way in (Advance, the probe's,
# Session.Arm's handle) delegates to it, so outside internal/solver, the
# frozen benchmark module and test files StepChecked has exactly one caller.
echo "== stepping lint (one .StepChecked( call site outside internal/solver, benchmark and tests)"
callers=$(grep -rn '\.StepChecked(' --include='*.go' . \
	| grep -v '^\./internal/solver/' \
	| grep -v '^\./benchmark/' \
	| grep -v '_test\.go:' || true)
if [ "$(printf '%s\n' "$callers" | grep -c .)" -ne 1 ]; then
	echo "StepChecked call sites outside internal/solver (want exactly one, in Simulation.TryAdvance):" >&2
	echo "$callers" >&2
	exit 1
fi

# Step-rule lint: a driver steps its simulation with Armed.Run (run.go), the
# one place the step size is chosen (stepFactor·StableDt, re-evaluated at the
# start of every chunk, so a resumed run keeps its step size), a run is cut
# into chunks and an abort is reported. So non-test Go under cmd/ and
# examples/ calls no StableDt and steps nothing with Advance or TryAdvance
# itself.
echo "== step-rule lint (no StableDt(, .Advance( or .TryAdvance( in non-test cmd/ and examples/ code)"
violations=$(grep -rnE 'StableDt\(|\.(Advance|TryAdvance)\(' --include='*.go' cmd examples \
	| grep -v '_test\.go:' || true)
if [ -n "$violations" ]; then
	echo "a driver or an example chooses its own step size or steps its own loop:" >&2
	echo "$violations" >&2
	echo "step with Armed.Run (run.go)" >&2
	exit 1
fi

# Layering lint: the solver models no integrator it does not run, and the
# cost layer records measurements, not models — so neither may import
# internal/reactor (the stiff 0-D integrator and its SubstepRate controller).
echo "== layering lint (internal/solver and internal/cost do not import internal/reactor)"
if grep -rn '"github.com/s3dgo/s3d/internal/reactor"' --include='*.go' internal/solver internal/cost; then
	echo "internal/reactor imported from the solver or the cost layer (see above)" >&2
	exit 1
fi

# ... and what is modelled or merely scheduled does not reach into what
# observes: internal/pario (the paper's §5 I/O model, driven by its own tests
# and cmd/iobench) feeds no trace lane and records no span, the worker pool
# keeps no timer set of its own, and cmd/s3d writes checkpoints through
# internal/sdf alone — no pario detour, no private comm world.
echo "== layering lint (pario imports neither obs nor prof, par not perf, cmd/s3d neither pario nor comm)"
imports_none() { # <package> <forbidden internal package>...
	pkg=$1
	shift
	for dep in "$@"; do
		if go list -f '{{join .Imports "\n"}}' "$pkg" | grep -x "github.com/s3dgo/s3d/internal/$dep"; then
			echo "$pkg imports internal/$dep (see above)" >&2
			exit 1
		fi
	done
}
imports_none ./internal/pario obs prof
imports_none ./internal/par perf
imports_none ./cmd/s3d pario comm

# Nothing is measured twice: the solver measures and the telemetry probe
# publishes, so the solver keeps no metrics registry (no internal/obs); comm
# clocks a blocking call once, on the prof.Now stamps its trace events carry
# (no time package); and the views, off-switches and wrappers only tests
# called stay deleted.
echo "== layering lint (solver does not import obs, comm does not import time, deleted names stay gone)"
imports_none ./internal/solver obs
if go list -f '{{join .Imports "\n"}}' ./internal/comm | grep -x time; then
	echo "internal/comm imports time: clock a blocking call on prof.Now alone" >&2
	exit 1
fi
deleted='recordStepMetrics|TelemetryEnabled|Watchdog\) (Violation|Rank)\(|Recorder\) Len\(|Lane\[R\]\) Enabled\(|Timers\) Time\(|World\) (BytesSent|MessagesSent|TotalBytes|TotalStats)\(|Request\) (PostNs|CompleteNs)\(|CompleteNs|Comm\) Allgather\(|KindAllgather|waitNs|Snapshot\) Merge\(|Trace\) RunStart\(|Histogram\) Mean\(|Lane\[R\]\) Disable\(|Watchdog\) Disarm\(|Armed\) (Advance|Close)\(|FuncActor|InitVec|\.AXPY|\) AXPY|Field3\) (CopyFrom|Scale)\(|\.SumRange|\) SumRange|FieldSet\) Names\(|CK45|Species\) (SR|GRT)\(|Probe\) Metrics\(|Store\[T\]\) (Sink|Err)\(|mixfracField|toField\(|stats\.Scatter'
if grep -rnE "$deleted" --include='*.go' . | grep -v '^\./benchmark/'; then
	echo "a deleted name is back (see above)" >&2
	exit 1
fi
# ... and so does the second clock around a plan's units: par stamps every
# unit once, and the cost record, the fused sweeps' charge and the worker
# tracks all read those stamps, so the opt-in cost probe, its per-run
# recorder and the annotated worker span stay deleted.
clocks='\b(CostProbe|RunRecorder|SetCost|BeginArgs|BeginRun|sampleRuns)\b'
if grep -rnE "$clocks" --include='*.go' . | grep -v '^\./benchmark/' | grep -v '_test\.go:'; then
	echo "a second clock around plan units is back (see above): read the plan's ledger" >&2
	exit 1
fi
# ... and so does a second clock around a region: prof.Now is the one clock,
# and every timed interval is stamped once. A solver region's span opens and
# closes on its perf timer's stamps, a fused sweep's parts and the halo's
# MPI_WAIT are charged from stamps already taken, comm records its MPI_*
# spans from its counters' stamps, and the root's TryAdvance stamps a step
# only for a probe. So non-test internal/solver and internal/comm read no
# time.Now or time.Since, internal/comm opens no span (no .Begin(), Span.Child
# stays deleted, and TryAdvance calls no time.Now.
echo "== one-clock lint (no time.Now/time.Since in internal/solver and internal/comm, no .Begin( in internal/comm, no Span.Child, no time.Now in TryAdvance)"
violations=$({
	grep -rnE 'time\.(Now|Since)\(' --include='*.go' internal/solver internal/comm
	grep -rn '\.Begin(' --include='*.go' internal/comm
	grep -rnE 'Span\) Child\(|\.Child\(' --include='*.go' . | grep -v '^\./benchmark/'
	awk 'FNR == 1 { fn = "" } /^func / { fn = $0 }
		fn ~ /\) TryAdvance\(/ && /time\.Now\(/ { print FILENAME ":" FNR ": " $0 }' $(ls ./*.go)
} | grep -v '_test\.go:' || true)
if [ -n "$violations" ]; then
	echo "a second clock around a timed interval:" >&2
	echo "$violations" >&2
	echo "stamp on prof.Now once and hand the stamps on (perf.Timers Start/Stop, prof.Track BeginAt/EndAt/Record)" >&2
	exit 1
fi
# ... and so does the second run of the lifted jet: figures 14 and 15 are
# drawn from cmd/liftedflame's run, in its armed loop.
if [ -e cmd/s3dviz ]; then
	echo "cmd/s3dviz is back: figures 14-15 come from cmd/liftedflame's run" >&2
	exit 1
fi
# ... and so does the second cmd/iobench: an example is a public-API
# consumer, and the §5 I/O kernel's verification and figure 9 live there.
if [ -e examples/checkpointio ]; then
	echo "examples/checkpointio is back: cmd/iobench runs the §5 I/O kernel" >&2
	exit 1
fi
# ... and so does the third lifted-jet run: cmd/liftedflame prints the
# HO2-upstream-of-OH verdict examples/liftedjet printed.
if [ -e examples/liftedjet ]; then
	echo "examples/liftedjet is back: cmd/liftedflame runs the lifted jet" >&2
	exit 1
fi
# ... and so do the settings only their own defaults ever set: the fixed
# physics of the two case builders, the reactor's and the rule engine's
# step and hysteresis controls, and the flags nothing turned off.
settings='\b(TurbIntensity|TFuel|TCo|TReactants|VelocityScale|Phi|MaxRelChange|DtMax|DtMin|StopWhen|relChange|WarnAfter|FatalAfter|ClearAfter|SliceMax|EmergencyCheckpoint|StepScale|Retries|oneSided4|cflNumber|gatherY)\b|reactor\.Options|func NewRecorder|health\.NewRecorder|"(scatter|verify|snapshots)", |Int\("checkpoints"'
if grep -rnE "$settings" --include='*.go' . | grep -v '^\./benchmark/'; then
	echo "a deleted setting is back (see above)" >&2
	exit 1
fi

# One record stream: a run writes one JSONL file, its trace, and every
# layer's records land in it (StartTelemetry subscribes the trace to each
# installed layer). So outside test files and the frozen benchmark module
# only internal/obs creates a JSONL store, and the per-layer stores, their
# constructors and readers, and the store-path/cadence pairs of RunOptions
# stay deleted.
echo "== one-stream lint (jsonl.Create only in internal/obs; the per-layer stores stay gone)"
violations=$(grep -rn 'jsonl\.Create' --include='*.go' . \
	| grep -v '^\./internal/obs/' \
	| grep -v '^\./benchmark/' \
	| grep -v '_test\.go:' || true)
if [ -n "$violations" ]; then
	echo "a JSONL store created outside internal/obs:" >&2
	echo "$violations" >&2
	echo "send the records to the run trace (obs.Trace.Layer)" >&2
	exit 1
fi
stores='NewAnalysisStore|NewCostStore|NewCritPathStore|CreateStore|AnalysisEvery|CostEvery|CritPathEvery|openStore|createStore|insitu\.Store|cost\.Store|critpath\.Store|insitu\.ReadAnalysis|cost\.ReadCost|critpath\.ReadCritPath'
if grep -rnE "$stores" --include='*.go' . | grep -v '^\./benchmark/'; then
	echo "a per-layer store is back (see above)" >&2
	exit 1
fi

# One fold ends a step: the solver's collectives exist only for monitoring,
# and an armed, analysed step spends one — the watchdog's health row and the
# analysis products travel in one rank-ordered fold, and every rank grades
# the run's sample, so no status word follows it. Outside test files
# internal/solver has exactly two collective call sites, GlobalDt's
# Allreduce and foldStep's AllreduceOrdered, and the per-layer reductions,
# the remote-blame note and the per-block spacing cache stay deleted.
echo "== fold lint (two collective call sites in internal/solver; the per-layer reductions stay gone)"
calls=$(grep -rnE '\.(Allreduce|AllreduceOrdered|Barrier)\(' --include='*.go' internal/solver \
	| grep -v '_test\.go:' || true)
if [ "$(printf '%s\n' "$calls" | grep -c .)" -ne 2 ] \
	|| ! printf '%s\n' "$calls" | grep -q 'Allreduce(comm\.Min' \
	|| ! printf '%s\n' "$calls" | grep -q 'AllreduceOrdered('; then
	echo "collective call sites in internal/solver (want GlobalDt's Allreduce and the end-of-step AllreduceOrdered):" >&2
	echo "$calls" >&2
	exit 1
fi
if grep -rnE 'NoteRemote|healthCheck|analysisStep|aAcc|hMin|WriteCritPathTrace' --include='*.go' . \
	| grep -v '^\./benchmark/'; then
	echo "a deleted per-layer reduction or remote-blame name is back (see above)" >&2
	exit 1
fi

# Pencil-fused RHS lint: the RHS differentiates, diffuses and assembles one
# x-row at a time in worker scratch and stores only the fluxes, so outside
# test files and the frozen benchmark module no field is registered with the
# gradient role, and the three-sweep pipeline that wrote gradient and J
# fields for the next sweep to read, with the array-statement diffusive flux
# that ran inside the step, stays deleted (the figure-4 study owns its own
# arrays: solver.DiffFluxStudy).
echo "== pencil-fused RHS lint (no stored gradient; the three-sweep pipeline and the in-step ablation stay gone)"
if grep -rn 'grid\.RoleGradient' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./benchmark/'; then
	echo "a field is registered with the gradient role (see above): differentiate into row scratch (deriv.DiffRow)" >&2
	exit 1
fi
if grep -rnE 'computeGradients|computeDiffFlux\b|assembleFluxesTile|DiffFluxNaive|NaiveDiffFlux|naive_t1' \
	--include='*.go' . | grep -v '^\./benchmark/'; then
	echo "a deleted stage of the stored-gradient RHS is back (see above)" >&2
	exit 1
fi

# Transport-in-the-row lint: the flux row evaluates μ, λ and Dₙ into its own
# scratch (transportRows), so the separate transport sweep, its region and the
# block's transport fields stay deleted outside test files and the frozen
# benchmark module, and non-test internal/solver registers exactly one field
# of the transport role: diff_max, the watchdog's diffusivity.
echo "== transport-in-the-row lint (no transport sweep or fields; one transport-role registration in internal/solver)"
if grep -rnE 'computeTransport|COMPUTE_TRANSPORT|\bb\.(Mu|Lambda|D)\b' --include='*.go' . \
	| grep -v '^\./benchmark/' | grep -v '_test\.go:'; then
	echo "the transport sweep or a transport field is back (see above): evaluate transport in the flux row" >&2
	exit 1
fi
regs=$(grep -rn 'grid\.RoleTransport' --include='*.go' internal/solver | grep -v '_test\.go:' || true)
if [ "$(printf '%s\n' "$regs" | grep -c .)" -ne 1 ] || ! printf '%s\n' "$regs" | grep -q '"diff_max"'; then
	echo "transport-role registrations in internal/solver (want exactly one, diff_max):" >&2
	echo "$regs" >&2
	exit 1
fi

# Row-transport lint: the flux row evaluates μ, λ and Dₙ for a whole x-row
# with one Model.MixtureRow call (diffusivityRows), one batch exponential
# over every fit of the row, so non-test internal/solver code makes no
# per-point Mixture call, which would bring back a batch of n + n(n−1)/2
# lanes per point.
echo "== row-transport lint (no .Mixture( call in non-test internal/solver code)"
if grep -rn '\.Mixture(' --include='*.go' internal/solver | grep -v '_test\.go:'; then
	echo "a per-point transport call is back in the solver (see above): evaluate a row with Model.MixtureRow" >&2
	exit 1
fi

# Row-chemistry lint: the flux row evaluates ω̇ₙ for a whole x-row with
# one Mechanism.ProductionRatesRow call (chemRow), one batch exponential
# over every rate argument of the row, so non-test internal/solver code makes
# no per-point ProductionRates call (that one-point body serves the 0-D
# reactor, which cannot batch points).
echo "== row-chemistry lint (no .ProductionRates( call in non-test internal/solver code)"
if grep -rn '\.ProductionRates(' --include='*.go' internal/solver | grep -v '_test\.go:'; then
	echo "a per-point chemistry call is back in the solver (see above): evaluate a row with Mechanism.ProductionRatesRow" >&2
	exit 1
fi

# One-pass lint: every job runs once, on the storage it already has. The
# filter writes through the rhs bank (dead between steps) instead of a
# scratch field, the x-min inflow target is a worker's scratch target like
# every other face's, a fault cell is an interior cell (no wrap to undo),
# and the health row and the analysis products come from one step-end sweep
# (stepEndRow). So outside test files and the frozen benchmark module
# filter_scratch, scratchF, inflowTargets, wrapCell and analysisRow stay
# deleted. And the solver owns every chemistry sweep: Field("hrr") runs the
# solver's chemistry rows (Block.HeatReleaseField), so the root package's
# non-test code calls no row chemistry kernel.
echo "== one-pass lint (no filter scratch, inflow cache, wrapCell or analysisRow; no chemistry rows in the root package)"
if grep -rnE 'filter_scratch|scratchF|inflowTargets|wrapCell|analysisRow' --include='*.go' . \
	| grep -v '^\./benchmark/' | grep -v '_test\.go:'; then
	echo "a second pass or its buffer is back (see above)" >&2
	exit 1
fi
if grep -nE '\.(ProductionRatesRow|HeatReleaseRow|ConcentrationsRow)\(' ./*.go | grep -v '_test\.go:'; then
	echo "a chemistry sweep in the root package (see above): ask the solver (Block.HeatReleaseField)" >&2
	exit 1
fi

# Copied-ghosts lint: a ghost primitive is a copy of its owner's value. The RHS
# recovers primitives over the interior and exchanges the primitive halo
# group, so in non-test internal/solver code the conserved registers are
# exchanged by the filter alone (ApplyFilter, tag tagConserved), and the
# ghost-slab recovery box, ghosted(), stays deleted.
echo "== copied-ghosts lint (Q is exchanged only in ApplyFilter; no ghosted() in internal/solver)"
violations=$(awk 'FNR == 1 { fn = "" } /^func / { fn = $0 }
	/exchangeHalos\((b\.haloQ|[^)]*tagConserved)/ && fn !~ /\) ApplyFilter\(/ { print FILENAME ":" FNR ": " $0 }' \
	$(ls internal/solver/*.go | grep -v '_test\.go$'))
if [ -n "$violations" ]; then
	echo "a conserved-register exchange outside ApplyFilter:" >&2
	echo "$violations" >&2
	echo "the RHS reads no ghost of Q: exchange the primitives (RefreshPrimitives)" >&2
	exit 1
fi
if grep -rn 'ghosted(' internal/solver; then
	echo "the ghost-slab primitive sweep is back (see above): recover the interior, then exchange" >&2
	exit 1
fi

# Row-pass lint: the flux stage and the divergence finish one x-row at a time
# (deriv.DiffRows, deriv.DiffRow with OpSet/OpAdd, the ×(−1) on the row), so
# outside test files internal/solver runs no whole-tile derivative pass and no
# whole-tile scale: the set/add/add/scale passes over every rhs tile stay gone.
echo "== row-pass lint (no deriv.DiffRange or ScaleRange in non-test internal/solver code)"
if grep -rnE 'deriv\.DiffRange\(|ScaleRange\(' --include='*.go' internal/solver | grep -v '_test\.go:'; then
	echo "a whole-tile pass is back in the solver (see above): work one row at a time (deriv.DiffRow / DiffRows)" >&2
	exit 1
fi

# Pointwise-row lint: the primitives sweep and the flux row (transport and
# chemistry) cut each field's segment of a row once and index the points
# along it, so non-test internal/solver/primitives.go and rhs.go (the flux
# stage and its chemistry, the divergence) make no per-point field call
# (.At, .Set, .Add), each of which re-derives the flat index of its point.
# And the row's species enthalpies come from its one hₙ/RT row (hrtRow,
# thermo.Set.HRTRow), shared by the heat flux, the rates and the heat
# release, so rhs.go makes no per-point .H(, .HMolar( or .GRTLn( call, each
# of which would evaluate hₙ/RT again.
echo "== pointwise-row lint (no .At(, .Set( or .Add( field calls in internal/solver/primitives.go and rhs.go; no .H(, .HMolar( or .GRTLn( in rhs.go)"
if grep -nE '\.(At|Set|Add)\(' internal/solver/primitives.go internal/solver/rhs.go; then
	echo "a per-point field access is back in the pointwise sweeps (see above): cut the row once (Field3.Idx, Data[p0:p1])" >&2
	exit 1
fi
if grep -nE '\.(H|HMolar|GRTLn)\(' internal/solver/rhs.go; then
	echo "a per-point enthalpy evaluation is back in the flux row (see above): read the row's hₙ/RT (hrtRow)" >&2
	exit 1
fi

# One-sweep lint: the chemistry runs in the flux row (fluxRow, on the row's
# hₙ/RT rows), whose sweep folds the heat-release integral's per-tile slots
# in ascending order, and after the flux exchange one plan region per RK
# stage finishes rhs (finishRHS: divergence and the NSCBC faces, tile by
# tile). So outside test files and the frozen benchmark module RunReduce,
# chemSource, applyNSCBC and chemTileSweep stay deleted, internal/solver
# runs no "NSCBC" plan region, and its one "REACTION_RATE_BOUNDS" plan
# region is HeatReleaseField's (between steps; in a step the chemistry is a
# share charged out of the flux sweep, ASSEMBLE_FLUXES).
echo "== one-sweep lint (no RunReduce, chemSource, applyNSCBC or chemTileSweep; no NSCBC plan region; one REACTION_RATE_BOUNDS plan region, HeatReleaseField's)"
if grep -rnE '\b(RunReduce|chemSource|applyNSCBC|chemTileSweep)\b' --include='*.go' . | grep -v '^\./benchmark/' | grep -v '_test\.go:'; then
	echo "a separate rhs stage or the plan's reduce is back (see above): finish rhs in finishRHS's one sweep" >&2
	exit 1
fi
runs=$(awk 'FNR == 1 { fn = "" } /^func / { fn = $0 }
	/\.Run[A-Za-z]*\("(NSCBC|REACTION_RATE_BOUNDS)"/ { print FILENAME ":" FNR ": " fn }' \
	$(ls internal/solver/*.go | grep -v '_test\.go$'))
if [ "$(echo "$runs" | grep -c .)" -ne 1 ] || ! echo "$runs" | grep -q ') HeatReleaseField('; then
	echo "NSCBC / REACTION_RATE_BOUNDS plan regions in internal/solver, want HeatReleaseField's one:" >&2
	echo "$runs" >&2
	exit 1
fi

# Writer lint: a product file — a figure, an in-situ frame, a dashboard
# document, a log a watcher stages — lands whole or not at all, through
# sdf.WriteAtomic (a temporary dot-file renamed onto the path). So non-test
# Go in the root package, cmd/ and internal/workflow (whose transfers and
# dashboard plots land in directories a browser and the watchers read) calls
# neither os.Create nor os.WriteFile, except for the empty .done and STOP
# sentinels, whose existence is their whole message.
echo "== writer lint (no os.Create/os.WriteFile in the root package, cmd/ and internal/workflow but the empty sentinels)"
violations=$({ grep -nE 'os\.(Create|WriteFile)\(' ./*.go; grep -rnE 'os\.(Create|WriteFile)\(' --include='*.go' cmd internal/workflow; } \
	| grep -v '_test\.go:' \
	| grep -vE 'os\.WriteFile\(.*("\.done"|"STOP"\)), nil, ' || true)
if [ -n "$violations" ]; then
	echo "a product file written in place:" >&2
	echo "$violations" >&2
	echo "write it through sdf.WriteAtomic" >&2
	exit 1
fi

# One CPUID gate: internal/vexp decides once, at init, whether its AVX2
# kernels run (Exp and the row arithmetic alike), and its callers call the
# kernels without asking. So no assembly file lives outside internal/vexp,
# and no Go outside it branches on vexp.Kernel(), which names the path for
# the run manifest only.
echo "== one-gate lint (no .s file outside internal/vexp; no branch on vexp.Kernel() outside it)"
violations=$(find . -path ./.git -prune -o -path ./.bench_build -prune -o -name '*.s' -print \
	| grep -v '^\./internal/vexp/' || true)
if [ -n "$violations" ]; then
	echo "assembly outside internal/vexp:" >&2
	echo "$violations" >&2
	echo "put the kernel in internal/vexp behind its one arming decision" >&2
	exit 1
fi
violations=$(grep -rnE '(\b(if|switch|case)\b.*vexp\.Kernel\(\))|(vexp\.Kernel\(\) *(==|!=))' --include='*.go' . \
	| grep -v '^\./internal/vexp/' || true)
if [ -n "$violations" ]; then
	echo "a caller branches on the vexp path:" >&2
	echo "$violations" >&2
	echo "call the kernel; internal/vexp picks the path" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# Bounds-check gate: the stencil rows' Go definitions (internal/vexp/
# stencil.go, which holds nothing else) must compile with no index check in
# their loop bodies. The compiler's check_bce report names every check it
# kept; the IsSliceInBounds entries are the once-per-row slice cuts — the
# safety check that stays — so any other entry for that file fails the gate.
# An empty report means the flag stopped reporting, which fails it too.
echo "== bounds-check gate (no IsInBounds in internal/vexp/stencil.go)"
bce=$(go build -gcflags=-d=ssa/check_bce/debug=1 ./internal/vexp 2>&1 | grep 'stencil\.go' || true)
if [ -z "$bce" ]; then
	echo "check_bce reported nothing for internal/vexp/stencil.go" >&2
	exit 1
fi
if echo "$bce" | grep -v 'IsSliceInBounds'; then
	echo "bounds checks inside the stencil rows (see above)" >&2
	exit 1
fi

# The one race pass. It is also the gate of every instrumentation layer's own
# package (insitu, cost, critpath, jsonl), of the root determinism pins and
# live-endpoint tests (the trace's analysis records byte-identical at 1 and 4
# workers and the layer records ordered before their step's record, the
# checkpoint of a cost-armed run byte-identical to the un-armed one's at 1
# and 4 workers, critpath structure across worker counts, /analysis /cost
# /critpath) and of the CLI smoke tests of cmd/s3d, cmd/liftedflame and
# cmd/bunsen (-profile artifacts, the -inject-nan structured abort,
# -analysis, the -straggle critical path, every shared flag per driver, the
# artifacts of a run a rank panicked out of) and of the trace's durability
# (internal/obs TestTraceDurableWithoutFlush: every emitted record on disk
# with no Flush and no Close): each of those tests says beside itself what
# it holds, so none is re-run by name below.
echo "== go test -race ./..."
go test -race -timeout 45m ./...

# Re-run the execution layer and the solver with a forced multi-worker
# default pool: on small CI machines NumCPU would otherwise select the
# single-worker inline path and the tiled kernels would never see real
# concurrency (see TestMain in internal/solver/par_test.go).
echo "== S3D_WORKERS=4 go test -race ./internal/par ./internal/solver"
S3D_WORKERS=4 go test -race -timeout 45m ./internal/par ./internal/solver

# Kernel gate: internal/vexp promises math.Exp's bits and the bits of its
# row and stencil loops from either of its paths, so the package that makes
# the promise, its callers (chem and transport, whose tests hold them to
# eager one-point references, flame1d, which calls MixtureRow directly and
# pins its flame properties, and deriv, whose TestStencilDigest pins the
# derivative and filter rows' bits), the solver's pinned hashes and
# TestStepEndBits (the hrr field through HeatReleaseField's chemistry rows)
# run once more with the assembly compiled out (-tags purego). The race pass above ran them on the kernels;
# both must land on the same pinned bytes. go vet ./... above has checked the
# .s files' frame declarations (asmdecl); the purego build of the package is
# vetted here.
echo "== go vet -tags purego ./internal/vexp && go test -tags purego ./internal/vexp ./internal/chem ./internal/transport ./internal/flame1d ./internal/deriv"
go vet -tags purego ./internal/vexp
go test -tags purego ./internal/vexp ./internal/chem ./internal/transport ./internal/flame1d ./internal/deriv
echo "== go test -tags purego -run 'TestArenaLayoutBitCompatibility|TestDegenerateAxisBitCompatibility|TestRHSBits' ./internal/solver"
go test -tags purego -run 'TestArenaLayoutBitCompatibility|TestDegenerateAxisBitCompatibility|TestRHSBits' ./internal/solver
echo "== go test -tags purego -run 'TestStepEndBits' ."
go test -tags purego -run 'TestStepEndBits' .

# Benchmark-module gate: benchmark/ is a module of its own, which the root
# ./... patterns do not descend into; it names solver bench hooks and the
# deprecated Config.Backend/Precision shim, so it must keep compiling and
# its own tests must keep passing.
echo "== go -C benchmark vet . && go -C benchmark test ."
go -C benchmark vet .
go -C benchmark test -timeout 15m .

# Fuzz gate: sdf.Decode is the checkpoint read path; 20 s of native fuzzing
# from the seed corpus must find no panic and no variable whose Data length
# disagrees with its dims.
echo "== go test -run xxx -fuzz FuzzDecode -fuzztime 20s ./internal/sdf"
go test -run xxx -fuzz FuzzDecode -fuzztime 20s ./internal/sdf

# Likewise jsonl.Read, the reader under obs.ReadTrace and the post-mortem
# flight.jsonl (health.ReadFlight): any byte stream yields
# records plus an error or nil, never a panic, and a valid prefix is never
# lost.
echo "== go test -run xxx -fuzz FuzzRead -fuzztime 20s ./internal/jsonl"
go test -run xxx -fuzz FuzzRead -fuzztime 20s ./internal/jsonl

# And obs.ReadTrace, the reader of trace.jsonl, under the same property with a
# real 3-step trace as the valid prefix. The seeds are kilobytes long, so the
# time spent minimising each new input is capped to keep the 20 s fuzzing.
echo "== go test -run xxx -fuzz FuzzReadTrace -fuzztime 20s -fuzzminimizetime 1s ./internal/obs"
go test -run xxx -fuzz FuzzReadTrace -fuzztime 20s -fuzzminimizetime 1s ./internal/obs

# vexp.Exp against math.Exp with one lane of arbitrary bits among in-range
# lanes, at every position of a block and of a tail.
echo "== go test -run xxx -fuzz FuzzExp -fuzztime 20s ./internal/vexp"
go test -run xxx -fuzz FuzzExp -fuzztime 20s ./internal/vexp

# Block.LoadCheckpoint on arbitrary bytes: an error or a state that
# round-trips through save and load, never a panic, never more than 64 MB
# allocated for a 3 KB checkpoint.
echo "== go test -run xxx -fuzz FuzzLoadCheckpoint -fuzztime 20s ./internal/solver"
go test -run xxx -fuzz FuzzLoadCheckpoint -fuzztime 20s ./internal/solver

# The point-to-point matching queues: a byte-chosen schedule of Isend, Irecv
# and Wait on two ranks over three tags and varying lengths, posted in either
# order, must deliver every payload intact and in (source, tag) order and
# leave both mailboxes empty.
echo "== go test -run xxx -fuzz FuzzMatch -fuzztime 20s ./internal/comm"
go test -run xxx -fuzz FuzzMatch -fuzztime 20s ./internal/comm

# Overhead budgets: the profiler's span API <=1% disabled and <=5% recording,
# cost maps <=2% at Every:1 (one atomic load per run disabled) and the
# wait-state analyzer <=2% armed at Every:1 (one atomic load per step
# disarmed): CPU-time paired-median gates, run without -race, which would
# distort the on/off ratio's denominator.
echo "== go test -run xxx -bench 'BenchmarkProfOverhead|BenchmarkCostOverhead|BenchmarkCritPathOverhead' -benchtime 1x ."
go test -timeout 30m -run xxx -bench 'BenchmarkProfOverhead|BenchmarkCostOverhead|BenchmarkCritPathOverhead' -benchtime 1x .

echo "CHECK OK"
