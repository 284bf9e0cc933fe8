#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument is passed on:
#
#   bash e2ebench/run.sh --workload m2000-cg --seed 1 --seconds 30 --trace 0
#   bash e2ebench/run.sh compare <parent-results-dir> <change-results-dir>
#
# Build output, the Go build cache, results and span files all go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside the
# checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
if [ "${1:-}" = compare ]; then
	exec "$build/e2ebench" "$@"
fi
exec "$build/e2ebench" --root "$root" --out "$build/results" "$@"
