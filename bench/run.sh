#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload spatial-hot --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and the span files go to .bench_build/ in
# the current directory, so a run writes nothing outside the checkout. The
# build fails, and nothing is printed on standard output, when the
# repository's Go module is not next to bench/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$(dirname "$0")" build -o "$out/bench" . >&2
exec "$out/bench" "$@"
