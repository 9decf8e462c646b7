#!/usr/bin/env bash
# Builds Release and runs the chain-estimation perf benches, writing the
# BENCH_chain.json perf record at the repo root. bench/README.md documents
# every series, headline and model field of the record.
#
# Usage: scripts/run_benches.sh [reps]
#   reps: measurement repetitions per decomposition for the chain
#         microbench (default 8).
#
# The efficiency figure harness (bench_fig16_efficiency) is also built and
# can be run manually; it takes minutes per method series, so this script
# only runs the targeted chain microbench by default. Set
# PCDE_RUN_FIG16=1 to run it too.
set -euo pipefail

cd "$(dirname "$0")/.."
REPS="${1:-8}"
BUILD_DIR=build-release

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_chain_micro bench_fig16_efficiency -j

"./$BUILD_DIR/bench_chain_micro" BENCH_chain.json "$REPS"

if [[ "${PCDE_RUN_FIG16:-0}" == "1" ]]; then
  "./$BUILD_DIR/bench_fig16_efficiency"
fi

echo "wrote $(pwd)/BENCH_chain.json"
