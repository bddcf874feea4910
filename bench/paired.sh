#!/usr/bin/env bash
# Paired hot-loop bench gate. Builds the benchmark test binaries of a base
# revision and of the working tree, runs the two sides alternately on this
# machine, and fails (via mfbench -base) when the change's median ns/op on
# a gated benchmark is more than 20% above the base's median, or a median
# "/s" metric is that much lower. Comparing against the base
# on the same machine keeps the runner's speed out of the verdict.
#
#   bash bench/paired.sh BASE_REV
#
# Run from the repository root. Scratch goes to $BENCH_DIR (default
# .bench_build/paired), which keeps the raw runs of both sides as base.txt
# and head.txt.
set -euo pipefail

base_rev=${1:?usage: bash bench/paired.sh BASE_REV}
# On a noisy 2-core container one 300 ms run of a kernel reads anywhere
# in about ±30% of its typical speed, even against an identical binary
# run right next to it. With 5 rounds the medians of two identical sides
# differed by more than 20% in 2 of 3 gate runs there; with 15 rounds by
# at most 14% in 5 runs.
rounds=15
benchtime=300ms
threshold=20
bench='BenchmarkTrialAll|BenchmarkPriceAll|BenchmarkPricerPushPop|BenchmarkExactSolveEvaluator|BenchmarkAssignmentBound|BenchmarkSteepestDescent|BenchmarkHillClimbPolish|BenchmarkServeCacheHit|BenchmarkMIPCampaignDraw'
pkgs="core exact search serve milp"

root=$(pwd)
work=${BENCH_DIR:-$root/.bench_build/paired}
case "$work" in /*) ;; *) work="$root/$work" ;; esac
rm -rf "$work"
mkdir -p "$work/base" "$work/bin"
git archive "$base_rev" | tar -x -C "$work/base"

# -trimpath keeps the checkout's path out of the binaries, so a package
# the change leaves alone (with its dependencies) builds byte-identical
# on both sides and the two sides differ only in what the change touched.
for pkg in $pkgs; do
	(cd "$work/base" && go test -c -trimpath -o "$work/bin/base-$pkg" "./internal/$pkg")
	go test -c -trimpath -o "$work/bin/head-$pkg" "./internal/$pkg"
done

# run SIDE PKG NAME: one run of benchmark NAME (with its sub-benchmarks)
# from SIDE's binary of PKG, appended to SIDE.txt. Each binary runs in its
# own tree's package directory, where its testdata lives.
run() {
	local side=$1 pkg=$2 name=$3 tree=$root
	[ "$side" = base ] && tree=$work/base
	(cd "$tree/internal/$pkg" &&
		"$work/bin/$side-$pkg" -test.run='^$' -test.bench="^$name\$" -test.benchtime="$benchtime" -test.timeout=10m) >>"$work/$side.txt"
}

# The two sides take turns benchmark by benchmark, and which side goes
# first alternates by round: the machine's speed drifts over seconds to
# minutes, and both sides of a benchmark then run under the same drift.
# The benchmarks are those either side has, so one on a single side is
# still measured and reported.
: >"$work/base.txt"
: >"$work/head.txt"
for ((r = 1; r <= rounds; r++)); do
	for pkg in $pkgs; do
		names=$(for side in base head; do
			"$work/bin/$side-$pkg" -test.list "$bench" | grep '^Benchmark' || true
		done | sort -u)
		for name in $names; do
			if ((r % 2)); then
				run base "$pkg" "$name"
				run head "$pkg" "$name"
			else
				run head "$pkg" "$name"
				run base "$pkg" "$name"
			fi
		done
	done
done

go run ./cmd/mfbench -base "$work/base.txt" -threshold "$threshold" <"$work/head.txt"
