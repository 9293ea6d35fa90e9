#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument goes to the benchmark, for example:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
#
# The Go build cache and the binary live in .bench_build (or in
# $CARGO_TARGET_DIR when set), results and profiles in perfbench/out.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --repo "$root" --out "$here/out" "$@"
