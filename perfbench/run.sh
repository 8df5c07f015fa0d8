#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload cold-large --seed 1 --seconds 25 --trace 0
#
# The build (compiler cache included) stays under .bench_build/ in the
# checkout, and set-up time is measured inside the built program, so
# compiling is never part of a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perfbench" .) >&2

if [ -z "${PERFBENCH_COMMIT:-}" ]; then
  PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT

cd "$root"
exec "$build/perfbench" "$@"
