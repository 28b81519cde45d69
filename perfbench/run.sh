#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload zipf-replay --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traced-run files stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOENV=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench-bin" . >&2
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
