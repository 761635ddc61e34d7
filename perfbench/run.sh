#!/usr/bin/env bash
# Builds the PAB benchmark from the surrounding source tree and runs it.
#
#   bash perfbench/run.sh --workload decode --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# result files stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"

# The config dir keeps the go command's own settings and counters inside
# the checkout too.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
export PERFBENCH_OUT=$out/perfbench

(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" "$@"
