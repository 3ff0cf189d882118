#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark binary from
# source into .bench_build/ of the checkout and runs it with the arguments
# given. The Go build cache, module path and toolchain state are pointed into
# .bench_build/ too, the directory the binary's -workdir defaults to and
# .gitignore names, so nothing outside the checkout is written.
# Run from the root of the checkout:
#   bash benchmark/run.sh --workload lifted_h2 --seed 1 --seconds 12 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	go build -C "$here" -o "$out/s3dbench" .
exec "$out/s3dbench" "$@"
