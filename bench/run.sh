#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it with the arguments it was given, e.g.
#
#   bash bench/run.sh --workload strip-4k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the root of the checkout (build cache, binary, trace files), so a
# run reads and writes only inside its checkout. In a directory without
# the program's sources the build fails and so does this script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

# The Go tool's own state: compile cache, module cache, env file and
# telemetry counters.
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOENV="$build/goenv"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/oiraid-bench" .)
exec "$build/oiraid-bench" -out "$build" "$@"
