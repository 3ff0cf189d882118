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
# that calls an Enable*, StartTelemetry or New*Store itself re-derives that
# rule, so none of the three flag-sharing drivers may, outside test files.
echo "== wiring lint (no Enable*/StartTelemetry/New*Store in cmd/s3d, cmd/liftedflame, cmd/bunsen)"
violations=$(grep -rnE 'Enable(Profiling|Health|Analysis|CostMaps|CritPath|LoadBalance)\(|StartTelemetry\(|New(Analysis|Cost|CritPath)Store\(' \
	--include='*.go' cmd/s3d cmd/liftedflame cmd/bunsen \
	| grep -v '_test\.go:' || true)
if [ -n "$violations" ]; then
	echo "instrumentation wiring inside a driver:" >&2
	echo "$violations" >&2
	echo "bind s3d.RunOptions and go through Open/Arm (run.go)" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# Bounds-check gate: the derivative row kernels (internal/deriv/kernels.go,
# which holds nothing else) must compile with no index check in their loop
# bodies. The compiler's check_bce report names every check it kept; the
# IsSliceInBounds entries are the once-per-row slice cuts — the safety check
# that stays — so any other entry for that file fails the gate. An empty
# report means the flag stopped reporting, which fails it too.
echo "== bounds-check gate (no IsInBounds in internal/deriv/kernels.go)"
bce=$(go build -gcflags=-d=ssa/check_bce/debug=1 ./internal/deriv 2>&1 | grep 'kernels\.go' || true)
if [ -z "$bce" ]; then
	echo "check_bce reported nothing for internal/deriv/kernels.go" >&2
	exit 1
fi
if echo "$bce" | grep -v 'IsSliceInBounds'; then
	echo "bounds checks inside the row kernels (see above)" >&2
	exit 1
fi

echo "== go test -race ./..."
go test -race -timeout 45m ./...

# Re-run the execution layer and the solver with a forced multi-worker
# default pool: on small CI machines NumCPU would otherwise select the
# single-worker inline path and the tiled kernels would never see real
# concurrency (see TestMain in internal/solver/par_test.go).
echo "== S3D_WORKERS=4 go test -race ./internal/par ./internal/solver"
S3D_WORKERS=4 go test -race -timeout 45m ./internal/par ./internal/solver

# Exponential-kernel gate: internal/vexp promises math.Exp's bits from either
# of its paths, so the package that makes the promise, its two callers (whose
# tests hold them to an eager math.Exp reference) and the solver's pinned
# hashes run once more with the assembly kernel compiled out (-tags purego).
# The race pass above ran them on the kernel; both must land on the same
# pinned bytes. go vet ./... above has checked the .s file's frame
# declarations (asmdecl); the purego build of the package is vetted here.
echo "== go vet -tags purego ./internal/vexp && go test -tags purego ./internal/vexp ./internal/chem ./internal/transport"
go vet -tags purego ./internal/vexp
go test -tags purego ./internal/vexp ./internal/chem ./internal/transport
echo "== go test -tags purego -run 'TestArenaLayoutBitCompatibility|TestDegenerateAxisBitCompatibility' ./internal/solver"
go test -tags purego -run 'TestArenaLayoutBitCompatibility|TestDegenerateAxisBitCompatibility' ./internal/solver

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

# Likewise jsonl.Read, the reader behind analysis/cost/critpath.jsonl: any
# byte stream yields records plus an error or nil, never a panic, and a
# valid prefix is never lost.
echo "== go test -run xxx -fuzz FuzzRead -fuzztime 20s ./internal/jsonl"
go test -run xxx -fuzz FuzzRead -fuzztime 20s ./internal/jsonl

# vexp.Exp against math.Exp with one lane of arbitrary bits among in-range
# lanes, at every position of a block and of a tail.
echo "== go test -run xxx -fuzz FuzzExp -fuzztime 20s ./internal/vexp"
go test -run xxx -fuzz FuzzExp -fuzztime 20s ./internal/vexp

# Block.LoadCheckpoint on arbitrary bytes: an error or a state that
# round-trips through save and load, never a panic, never more than 64 MB
# allocated for a 3 KB checkpoint.
echo "== go test -run xxx -fuzz FuzzLoadCheckpoint -fuzztime 20s ./internal/solver"
go test -run xxx -fuzz FuzzLoadCheckpoint -fuzztime 20s ./internal/solver

# Profiler gate: a tiny decomposed cmd/s3d run with -profile must emit a
# trace_event timeline that parses with at least one span per rank (the
# smoke test validates the artifacts), and the span API must stay within
# its overhead budget (<=1% disabled, <=5% enabled) on the RHS benchmark.
echo "== go test -race -run TestProfileSmoke ./cmd/s3d"
go test -race -timeout 10m -run TestProfileSmoke ./cmd/s3d

echo "== go test -race -run xxx -bench BenchmarkProfOverhead -benchtime 1x ."
go test -race -timeout 15m -run xxx -bench BenchmarkProfOverhead -benchtime 1x .

# Health gate: a forced mid-run NaN on a 2-rank reacting case must produce
# a structured violation with a flight-recorder bundle and a clean exit on
# every rank — no panic, no deadlocked neighbour, no leaked goroutine (the
# cross-rank abort test in internal/solver runs in the race pass above).
echo "== go test -race -run TestHealthSmoke ./cmd/s3d"
go test -race -timeout 10m -run TestHealthSmoke ./cmd/s3d

# Analysis gate: the in-situ reduction pipeline under the race detector
# (operators, pipeline, store), the determinism pin (a decomposed run's
# analysis.jsonl must be byte-identical at 1 and 4 workers), and the
# 2-rank CLI smoke test that validates the artifact end to end.
echo "== go test -race ./internal/insitu"
go test -race -timeout 10m ./internal/insitu
echo "== go test -race -run 'TestAnalysisBitwiseDeterministicAcrossWorkers|TestAnalysisLiveEndpoints' ."
go test -race -timeout 10m -run 'TestAnalysisBitwiseDeterministicAcrossWorkers|TestAnalysisLiveEndpoints' .
echo "== go test -race -run TestAnalysisSmoke ./cmd/s3d"
go test -race -timeout 10m -run TestAnalysisSmoke ./cmd/s3d

# Cost gate: the spatial cost maps and load-imbalance analytics under the
# race detector (collector, fold, LPT what-if), the determinism pin (a
# decomposed run's cost.jsonl must be byte-identical at 1 and 4 workers),
# the live-endpoint test (/cost document, cost_* gauges, /fields roles),
# and the overhead budget: <=2% with cost maps enabled at Every:1, one
# atomic load per run disabled (CPU-time paired-median gate; run without
# -race, which would distort the on/off ratio's denominator).
echo "== go test -race ./internal/cost"
go test -race -timeout 10m ./internal/cost
echo "== go test -race -run 'TestCostBitwiseDeterministicAcrossWorkers|TestCostLiveEndpoints' ."
go test -race -timeout 10m -run 'TestCostBitwiseDeterministicAcrossWorkers|TestCostLiveEndpoints' .
echo "== go test -run xxx -bench BenchmarkCostOverhead -benchtime 1x ."
go test -timeout 15m -run xxx -bench BenchmarkCostOverhead -benchtime 1x .

# Critical-path gate: the wait-state analyzer and the shared JSONL store
# under the race detector (matching, classification, backward walk, blame,
# deposit barrier, abort unblocking), the structural determinism pin (the
# record's operation census and match completeness must agree across worker
# counts), the live-endpoint test (/critpath record, critpath_* gauges),
# the race-mode CLI smoke (a 2-rank run with an injected straggler must
# blame the slowed rank end to end), and the overhead budget: <=2% armed
# at Every:1, one atomic load per step disarmed (run without -race, which
# would distort the on/off ratio's denominator).
echo "== go test -race ./internal/critpath ./internal/jsonl"
go test -race -timeout 10m ./internal/critpath ./internal/jsonl
echo "== go test -race -run 'TestCritPathStructureDeterministicAcrossWorkers|TestCritPathLiveEndpoints' ."
go test -race -timeout 10m -run 'TestCritPathStructureDeterministicAcrossWorkers|TestCritPathLiveEndpoints' .
echo "== go test -race -run TestCritPathSmoke ./cmd/s3d"
go test -race -timeout 10m -run TestCritPathSmoke ./cmd/s3d
echo "== go test -run xxx -bench BenchmarkCritPathOverhead -benchtime 1x ."
go test -timeout 15m -run xxx -bench BenchmarkCritPathOverhead -benchtime 1x .

# Load-balance gate: bitwise parity with the balancer on (weighted re-tiling
# and the cross-rank bundle path must not change a single checkpoint byte,
# at 1/2/4 workers), the 4-rank straggler smoke (chem tile imbalance must
# collapse under weighted tiling and the deterministic sharing plan must
# bring the effective rank imbalance to <=1.3x), and the overhead budget:
# <=2% with the balancer armed on a serial block (CPU-time paired-median
# gate; run without -race, which would distort the on/off ratio).
echo "== go test -race -run 'TestLoadBalanceBitwiseParity|TestLoadBalanceRequiresNothing' ."
go test -race -timeout 15m -run 'TestLoadBalanceBitwiseParity|TestLoadBalanceRequiresNothing' .
echo "== go test -race -run TestLoadBalanceSmoke ./cmd/s3d"
go test -race -timeout 10m -run TestLoadBalanceSmoke ./cmd/s3d
echo "== go test -run xxx -bench BenchmarkLBOverhead -benchtime 1x ."
go test -timeout 15m -run xxx -bench BenchmarkLBOverhead -benchtime 1x .

# Driver gate: the other two flag-sharing drivers end to end under the race
# detector, every shared flag set — each promised artifact must exist under
# its (per-case) name and parse.
echo "== go test -race -run 'TestLiftedFlameSmoke|TestBunsenSmoke' ./cmd/liftedflame ./cmd/bunsen"
go test -race -timeout 10m -run 'TestLiftedFlameSmoke|TestBunsenSmoke' ./cmd/liftedflame ./cmd/bunsen

echo "CHECK OK"
