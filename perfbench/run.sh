#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in and
# runs it with the given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the go build cache, temporary files, the binary, and the traced
# run's spans and CPU profile.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
PERFBENCH_COMMIT="$commit" exec "$build/perfbench-bin" "$@"
