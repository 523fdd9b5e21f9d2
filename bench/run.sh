#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/run.sh [-selfcheck | -compare A.json B.json | -spec]
#
# Run from the repository root. Builds the harness (a module of its own, see
# bench/go.mod) into .bench_build/ with the Go build cache and temp files kept
# there too, so nothing is read or written outside the checkout, then execs
# it; the harness builds augmentd and experiments next to itself. Arguments
# pass through unchanged; none runs the whole suite.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
  echo "bench/run.sh: run from the repository root" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/bench" .
exec "$build/bin/bench" -workdir "$build" "$@"
