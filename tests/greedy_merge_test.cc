// Equivalence tests for the shared greedy merge (hist/greedy_merge.h)
// against the frozen full-rescan reference loop: both production
// strategies (blocked argmin and lazy pair heap) must reproduce the
// reference's merge sequence bit for bit on randomized sum sets —
// including exact cost ties, where the reference's first-minimum rule
// (smallest left index) is the contract. This pins the semantics of the
// flatten kernel's compaction step (hist::FlattenAndCompact), which runs
// this loop.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "hist/greedy_merge.h"

namespace pcde {
namespace hist {
namespace {

using Buckets = std::vector<Bucket>;

void ExpectBitIdentical(const Buckets& a, const Buckets& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].range.lo, b[i].range.lo) << "bucket " << i;
    EXPECT_EQ(a[i].range.hi, b[i].range.hi) << "bucket " << i;
    EXPECT_EQ(a[i].prob, b[i].prob) << "bucket " << i;
  }
}

/// Random disjoint sorted buckets with occasional gaps; probabilities are
/// arbitrary positive masses (the merge does not require normalization).
Buckets RandomBuckets(size_t n, Rng* rng) {
  Buckets out;
  out.reserve(n);
  double at = rng->Uniform(-50.0, 50.0);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Uniform(0.0, 1.0) < 0.3) at += rng->Uniform(0.01, 5.0);  // gap
    const double width = rng->Uniform(0.05, 4.0);
    out.emplace_back(at, at + width, rng->Uniform(0.01, 1.0));
    at += width;
  }
  return out;
}

TEST(GreedyMergeTest, BothStrategiesMatchRescanOnRandomizedSumSets) {
  Rng rng(20260730);
  GreedyMergeScratch scratch;
  for (int round = 0; round < 200; ++round) {
    const size_t n = 2 + static_cast<size_t>(rng.UniformInt(0, 180));
    const size_t cap = 1 + static_cast<size_t>(
                               rng.UniformInt(0, static_cast<int64_t>(n)));
    const Buckets input = RandomBuckets(n, &rng);
    Buckets heap_merged = input;
    Buckets blocked_merged = input;
    Buckets rescan_merged = input;
    // Pin each production strategy explicitly so both are exercised on
    // every size, not just on their side of the dispatch threshold.
    GreedyMergeHeap(&heap_merged, cap, &scratch);
    GreedyMergeBlocked(&blocked_merged, cap, &scratch);
    GreedyMergeToCapRescan(&rescan_merged, cap);
    ExpectBitIdentical(heap_merged, rescan_merged);
    ExpectBitIdentical(blocked_merged, rescan_merged);
    EXPECT_LE(heap_merged.size(), cap);
  }
}

TEST(GreedyMergeTest, DispatchedMergeMatchesAcrossTheThreshold) {
  Rng rng(4242);
  GreedyMergeScratch scratch;
  for (size_t n : {kGreedyMergeHeapThreshold - 3,
                   kGreedyMergeHeapThreshold + 3}) {
    const Buckets input = RandomBuckets(n, &rng);
    Buckets dispatched = input;
    Buckets heap_merged = input;
    GreedyMergeToCap(&dispatched, 64, &scratch);
    GreedyMergeHeap(&heap_merged, 64, &scratch);
    ExpectBitIdentical(dispatched, heap_merged);
  }
}

TEST(GreedyMergeTest, ExactCostTiesBreakLikeTheRescan) {
  // Identical widths, probabilities, and spacing make every adjacent pair
  // cost exactly equal, so the whole run is decided by tie-breaking.
  GreedyMergeScratch scratch;
  for (size_t n : {2u, 3u, 8u, 33u, 100u}) {
    for (size_t cap = 1; cap < n; cap += (n > 16 ? 7 : 1)) {
      Buckets uniform;
      for (size_t i = 0; i < n; ++i) {
        uniform.emplace_back(static_cast<double>(i),
                             static_cast<double>(i) + 1.0, 0.25);
      }
      Buckets heap_merged = uniform;
      Buckets blocked_merged = uniform;
      Buckets rescan_merged = uniform;
      GreedyMergeHeap(&heap_merged, cap, &scratch);
      GreedyMergeBlocked(&blocked_merged, cap, &scratch);
      GreedyMergeToCapRescan(&rescan_merged, cap);
      ExpectBitIdentical(heap_merged, rescan_merged);
      ExpectBitIdentical(blocked_merged, rescan_merged);
    }
  }
}

TEST(GreedyMergeTest, NoOpWithinCapOrZeroCap) {
  Rng rng(7);
  const Buckets input = RandomBuckets(12, &rng);
  GreedyMergeScratch scratch;
  Buckets same_cap = input;
  GreedyMergeToCap(&same_cap, input.size(), &scratch);
  ExpectBitIdentical(same_cap, input);
  Buckets zero_cap = input;
  GreedyMergeToCap(&zero_cap, 0, &scratch);
  ExpectBitIdentical(zero_cap, input);
}

TEST(GreedyMergeTest, ScratchReuseAcrossSizesAndStrategies) {
  // One warm scratch serving shrinking and growing jobs — and alternating
  // strategies — must not leak state between runs (the sweeper reuses one
  // instance per thread).
  Rng rng(99);
  GreedyMergeScratch scratch;
  bool use_heap = false;
  for (size_t n : {120u, 3u, 60u, 2u, 90u}) {
    const Buckets input = RandomBuckets(n, &rng);
    Buckets merged = input;
    Buckets rescan_merged = input;
    if (use_heap) {
      GreedyMergeHeap(&merged, 2, &scratch);
    } else {
      GreedyMergeBlocked(&merged, 2, &scratch);
    }
    use_heap = !use_heap;
    GreedyMergeToCapRescan(&rescan_merged, 2);
    ExpectBitIdentical(merged, rescan_merged);
  }
}

}  // namespace
}  // namespace hist
}  // namespace pcde
