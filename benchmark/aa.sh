#!/bin/sh
# A/A check: runs every workload R times (seeds 1..R) twice on one build,
# prints per metric and workload both medians, both spreads, their
# difference and the bound, and exits non-zero when an end-to-end metric
# disagrees beyond its bound. The two result sets and the table are
# copied to benchmark/results/ to be committed.
#
#   benchmark/aa.sh [--runs R] [--seconds S]
set -u
cd "$(dirname "$0")/.." || exit 2
cargo build --release --manifest-path benchmark/Cargo.toml || exit 2
"${CARGO_TARGET_DIR:-benchmark/target}/release/gapbs-benchmark" --aa "$@"
status=$?
mkdir -p benchmark/results
cp benchmark/out/aa-set1.json benchmark/out/aa-set2.json benchmark/out/aa.txt benchmark/results/ || exit 2
exit $status
