#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds lakebench from source into
# .bench_build/ at the root of the checkout — Go's build cache, module cache
# and configuration directory are pointed there too, so nothing is read or
# written outside the checkout — and runs it from the root with the
# arguments given:
#
#   bash lakebench/run.sh --workload q5_cpu --seed 1 --seconds 10 --trace 0
#   bash lakebench/run.sh --workload all [-aa] [-smoke]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/lakebench.bin"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off

# Rebuild only when a source file is newer than the binary: the first run in
# a checkout compiles the standard library into the fresh cache (about a
# minute on two cores); later runs start at once.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	(cd "$here" && go build -o "$bin" .)
fi

cd "$root"
exec "$bin" -out "$build/lakebench" "$@"
