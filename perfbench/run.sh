#!/usr/bin/env bash
# Builds perfbench from source into the build directory and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload exact-proof --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, traces) stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench"

export GOCACHE="$out/perfbench/gocache"
export GOMODCACHE="$out/perfbench/gomodcache"
export GOPATH="$out/perfbench/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/perfbench/config"
export CARGO_TARGET_DIR="$out"

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"
