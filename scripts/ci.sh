#!/usr/bin/env bash
# CI gate: builds and tests the tree under ASan, TSan, UBSan and in
# Release, runs the examples, then runs the chain perf record and fails if
# any gate regresses.
#
#   1. Debug + ASan at -O1, SIMD forced to the scalar fallback — the
#      golden equivalence tests cover the non-SIMD chain kernel under the
#      sanitizer (including the Engine batch fan-out exercised by
#      batch_estimator_test). -O1 rather than Debug's -O0: the suites that
#      instantiate models (core_estimator_test, query_cache_test) spend
#      minutes per fixture at -O0 under ASan; NDEBUG stays undefined, so
#      assertions still run.
#      The swap-stress gate then reruns the refresh fault-injection
#      harness's concurrency tests explicitly under ASan: concurrent
#      clients against an engine whose model is repeatedly swapped (with
#      corrupt-artifact attempts interleaved) must see zero failed and
#      zero cross-epoch-mixed responses, every fingerprint matching a
#      published epoch. The overload-chaos gate then reruns the ISSUE 7
#      storm under ASan: deadlines tripping mid-sweep, pre-cancelled
#      requests, admission shedding, and epoch swaps all at once must
#      produce zero hangs, zero mixed-epoch responses, and zero leaks.
#      The pruned-routing gate then reruns the routing pruning suite
#      explicitly under ASan: every pruner combination must match the
#      plain search's route quality exactly (routing/pruning.h).
#      The fault-sweep gate (ISSUE 9) then reruns the fault-injection
#      sweep explicitly under ASan: every registered fault site is armed
#      mechanically and driven through save -> swap -> serve (plus the
#      torn-write, probe-verification, rollback, and multi-fault-storm
#      tests) — injected open/write/fsync/rename/mmap failures must fail
#      with clean Statuses, leave prior artifacts byte-identical, drop no
#      temp files, and never corrupt or leak a served response.
#      The sharded-serving gate then reruns the manifest engine's
#      concurrency tests under ASan: pool workers attaching and evicting
#      shards under an LRU cap, and batches plus routes under a cap of one
#      shard while another thread swaps manifest generations, every answer
#      equal to the single-model reference of its generation.
#   2. Optional Debug + TSan build at -O1 (skipped with a notice when the
#      toolchain can't produce one) running the thread pool, admission,
#      overload-chaos, routing, routing-pruning, fault-sweep, sharded
#      serving and query cache suites — the lock-order/data-race angle on
#      the same cancellation and shedding machinery plus the
#      shared-incumbent / strided-budget atomics, the root fan-out's pool
#      threads reading Route's per-call bound vectors, concurrent first
#      Routes of one router racing to build its graph components once
#      (routing_test's FirstRoutesOfAFreshRouterAgreeAcrossThreads), the
#      armed-injector / retrying-swap paths, shard attach/evict publishing
#      epochs while requests pin them, and the query cache's lock-free
#      doorkeeper table, which every miss writes from every thread. -O1 for
#      the reason step 1 uses it: query_cache_test's fixture instantiates
#      a 3000-trip model, which takes ~6 min under TSan at -O0 and ~50 s at
#      -O1 (4-vCPU host).
#   3. RelWithDebInfo + UBSan running the whole ctest suite; the first
#      report aborts its test (UBSAN_OPTIONS=halt_on_error=1), so any
#      undefined behaviour fails the gate.
#   4. Release with SIMD on — the production configuration.
#   5. End-to-end examples in Release, all served through serving::Engine:
#      quickstart, data_pipeline, and od_query each build -> save -> reload
#      a binary model artifact and serve from it via Engine::Open, exiting
#      nonzero if any served estimate diverges from the built model
#      (od_query additionally gates OD-pair resolution against the
#      explicit-path form); model_refresh walks the zero-downtime refresh
#      (build -> serve -> rejected corrupt swap -> delta rebuild -> swap ->
#      serve) with exact-counterpart assertions on both epochs;
#      sharded_serving splits one model into per-region shards plus a
#      PCDEMF1 manifest, opens it through serving::Engine, and serves the
#      same OD batch and one route from the manifest and from the
#      monolithic model — every answer, in-shard or cross-shard, must be
#      bit-identical, and the largest resident shard strictly below the
#      monolithic footprint; airport_deadline costs two
#      paths against a deadline; stochastic_routing routes one query with
#      the OD, HP and LB estimators and exits nonzero if any search fails
#      or stops at its expansion cap.
#   6. scripts/run_benches.sh-equivalent perf record, then
#      scripts/check_gates.py checks it against bench/gates.txt: one row
#      per gate with its key, comparison, default threshold, PCDE_CI_*
#      override, and host condition (the batch_scaling_8v1 floor applies
#      only on hosts with >= 8 CPUs, the only place an 8-thread speedup is
#      physically expressible). Series presence certifies the bench's
#      internal runtime checks (it aborts before writing the record on any
#      swap failure, churned-batch error response, probe divergence, wrong
#      degradation provenance, pruned-route quality loss, sharded
#      divergence from the monolithic model, deadline that never trips, or
#      storm that never sheds).
#
# Usage: scripts/ci.sh [reps]
set -euo pipefail

cd "$(dirname "$0")/.."
REPS="${1:-8}"

echo "=== [1/6] Debug + ASan build at -O1 (scalar SIMD fallback) ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DPCDE_SANITIZE=address \
      -DCMAKE_CXX_FLAGS_DEBUG="-g -O1" \
      -DPCDE_SIMD=OFF -DPCDE_BUILD_BENCHES=OFF -DPCDE_BUILD_EXAMPLES=OFF
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j)

echo "=== [1/6] Swap-stress gate (refresh fault injection under ASan) ==="
./build-asan/refresh_fault_test \
  --gtest_filter='RefreshFaultTest.SwapUnderConcurrentLoadNeverMixesEpochs:RefreshFaultTest.SwapRejectsCorruptArtifactsAndKeepsServing'

echo "=== [1/6] Overload-chaos gate (deadlines + cancel + shed + swaps under ASan) ==="
./build-asan/overload_chaos_test

echo "=== [1/6] Pruned-routing gate (pruner quality parity under ASan) ==="
./build-asan/routing_pruning_test

echo "=== [1/6] Fault-sweep gate (per-site durability fault injection under ASan) ==="
./build-asan/fault_sweep_test

echo "=== [1/6] Sharded-serving gate (attach/evict + swaps under ASan) ==="
./build-asan/sharded_engine_test \
  --gtest_filter='ShardedServingTest.ConcurrentBatchMatchesSequentialServing:ShardedServingTest.BatchesAndRoutesStayExactUnderEvictionAndSwaps'

echo "=== [2/6] Optional Debug + TSan build at -O1 (thread pool, admission, chaos, routing, shards, query cache) ==="
# Not every toolchain in the build matrix ships a working TSan runtime
# (some libc/arch combinations can't even link it), so this step probes
# first and skips with a notice instead of failing the gate.
if cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DPCDE_SANITIZE=thread \
        -DCMAKE_CXX_FLAGS_DEBUG="-g -O1" \
        -DPCDE_SIMD=OFF -DPCDE_BUILD_BENCHES=OFF -DPCDE_BUILD_EXAMPLES=OFF \
        > build-tsan-configure.log 2>&1 \
   && cmake --build build-tsan -j --target thread_pool_test admission_test \
        overload_chaos_test routing_test routing_pruning_test fault_sweep_test \
        sharded_engine_test query_cache_test > build-tsan-build.log 2>&1 \
   && ./build-tsan/thread_pool_test --gtest_brief=1 > /dev/null 2>&1; then
  ./build-tsan/thread_pool_test
  ./build-tsan/admission_test
  ./build-tsan/overload_chaos_test
  ./build-tsan/routing_test
  ./build-tsan/routing_pruning_test
  ./build-tsan/fault_sweep_test
  ./build-tsan/sharded_engine_test
  ./build-tsan/query_cache_test
else
  echo "ci: TSan build unavailable on this toolchain — skipping (see build-tsan-*.log)"
fi

echo "=== [3/6] RelWithDebInfo + UBSan build (halt on the first report) ==="
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPCDE_SANITIZE=undefined -DPCDE_BUILD_BENCHES=OFF \
      -DPCDE_BUILD_EXAMPLES=OFF
cmake --build build-ubsan -j
(cd build-ubsan && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
   ctest --output-on-failure -j)

echo "=== [4/6] Release build (SIMD on) ==="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j
(cd build-release && ctest --output-on-failure -j)

echo "=== [5/6] Examples end-to-end (build -> save -> reload -> serve via Engine) ==="
./build-release/example_quickstart
./build-release/example_data_pipeline
./build-release/example_od_query
./build-release/example_model_refresh
./build-release/example_sharded_serving
./build-release/example_airport_deadline
./build-release/example_stochastic_routing

echo "=== [6/6] Perf gates (bench/gates.txt) ==="
./build-release/bench_chain_micro BENCH_chain.json "$REPS"
python3 scripts/check_gates.py BENCH_chain.json bench/gates.txt
