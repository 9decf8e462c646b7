#!/usr/bin/env bash
# Builds Release and runs the chain-estimation perf benches, writing the
# BENCH_chain.json perf record at the repo root (schema: bench/README.md).
# The record carries the paired kernel series (chain_sweep vs the frozen
# reference), the Engine-served batch series estimate_batch_threads_{1,2,4,8}
# with per-query p50/p99 latencies plus the paired direct-wiring series
# estimate_batch_direct_threads_1 (engine_batch_vs_direct is the facade
# overhead gate), the cached batch series estimate_batch_cached_threads_4
# with its query-cache hit counts, the Engine::Route series
# route_dfs{,_pruned}, the sharded serving series
# sharded_estimate{,_mono,_cross} with the sharded_vs_mono routing-overhead
# ratio and per-shard resident footprint headlines, and the model series
# (offline build seconds, resident model bytes, and the PCDEWF1 artifact's
# bytes, save seconds, and buffered and mmap load seconds).
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
