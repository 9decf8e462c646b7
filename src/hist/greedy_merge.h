// The greedy cheapest-adjacent-merge loop of the flatten kernel's
// compaction step (hist/flatten.h), which every flatten in the library runs
// through: merge the adjacent bucket pair whose merge
// increases the L2 density error the least (MergeCost), until at most
// `cap` buckets remain.
//
// GreedyMergeToCap dispatches on job size between two strategies with an
// *identical* merge sequence:
//
//   * GreedyMergeBlocked — cached cost per surviving pair (left-indexed)
//     with per-block minima: a merge touches at most three cost entries,
//     so it rescans those blocks (O(block)) and the global pick scans
//     block minima (O(n/block)). The scans are contiguous double compares,
//     so for jobs up to a few thousand entries (the chain sweep's
//     compactions live here) its constant factor beats any heap — swapping
//     it for the heap across the board measured the whole chain kernel
//     ~45% slower.
//   * GreedyMergeHeap — a lazy pair min-heap over adjacent survivors plus
//     a doubly-linked survivor list: O(n log n) instead of O(n²/block),
//     taking over where the blocked scan's linear global pick starts to
//     dominate.
//
// Identical because (a) a merge only changes the costs of the pairs
// touching the merged bucket — the blocked path recomputes exactly those
// entries, the heap path detects stale entries by per-bucket version
// stamps and drops them — and (b) exact cost ties break toward the
// smaller left index, the left-to-right rescan's first-minimum rule (the
// blocked path keeps the first minimum within a block and the earlier
// block across blocks; the heap orders by (cost, index); survivor order
// never changes, so original indices compare like scan positions). All
// working storage lives in a caller-owned GreedyMergeScratch, so
// steady-state callers (the flatten kernel's scratch) allocate nothing.
//
// GreedyMergeToCapRescan is the frozen reference loop (global rescan per
// merge) that defines the semantics; the randomized equivalence test
// (tests/greedy_merge_test.cc) checks all three against each other.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "hist/histogram1d.h"

namespace pcde {
namespace hist {

struct GreedyMergeScratch {
  /// One adjacent-pair candidate of the heap path; stale once either
  /// endpoint's version moved past the recorded stamp.
  struct PairEntry {
    double cost;
    uint32_t left, right;
    uint32_t left_ver, right_ver;
  };
  std::vector<PairEntry> heap;
  std::vector<uint32_t> next, prev, ver;
  std::vector<char> alive;
  // Blocked-argmin path.
  std::vector<double> cost;        // per-pair cost, left-indexed
  std::vector<double> block_cost;  // per-block minimum of cost
  std::vector<uint32_t> block_idx; // index of that minimum
};

/// Above this entry count GreedyMergeToCap switches from the blocked
/// argmin to the lazy pair heap: the blocked global pick costs O(n/block)
/// per merge, so its total is O(n²/block) — fine into the thousands,
/// heap-bound beyond.
inline constexpr size_t kGreedyMergeHeapThreshold = 4096;

/// The blocked-argmin strategy (see the header comment). Call through
/// GreedyMergeToCap unless pinning the strategy (tests).
inline void GreedyMergeBlocked(std::vector<Bucket>* entries, size_t cap,
                               GreedyMergeScratch* scratch) {
  const size_t n = entries->size();
  if (n <= cap || cap == 0) return;
  std::vector<Bucket>& bs = *entries;
  GreedyMergeScratch& sc = *scratch;
  auto merge_cost = [&bs](size_t i, size_t j) {
    return MergeCost(bs[i].range, bs[i].prob, bs[j].range, bs[j].prob);
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr size_t kBlock = 64;
  sc.next.resize(n);
  sc.prev.resize(n);
  sc.alive.assign(n, 1);
  sc.cost.resize(n);
  for (size_t i = 0; i < n; ++i) {
    sc.next[i] = static_cast<uint32_t>(i + 1);  // n == end sentinel
    sc.prev[i] = static_cast<uint32_t>(i == 0 ? n : i - 1);
    sc.cost[i] = i + 1 < n ? merge_cost(i, i + 1) : kInf;
  }
  const size_t n_blocks = (n + kBlock - 1) / kBlock;
  sc.block_cost.resize(n_blocks);
  sc.block_idx.resize(n_blocks);
  auto rescan_block = [&sc, n](size_t blk) {
    const size_t lo = blk * kBlock;
    const size_t hi = std::min(n, lo + kBlock);
    const double* const costs = sc.cost.data();
    double best_cost = kInf;
    size_t best = lo;
    for (size_t k = lo; k < hi; ++k) {
      if (costs[k] < best_cost) {
        best_cost = costs[k];
        best = k;
      }
    }
    sc.block_cost[blk] = best_cost;
    sc.block_idx[blk] = static_cast<uint32_t>(best);
  };
  for (size_t blk = 0; blk < n_blocks; ++blk) rescan_block(blk);

  size_t remaining = n;
  while (remaining > cap) {
    double best_cost = kInf;
    size_t best_blk = 0;
    for (size_t blk = 0; blk < n_blocks; ++blk) {
      if (sc.block_cost[blk] < best_cost) {
        best_cost = sc.block_cost[blk];
        best_blk = blk;
      }
    }
    if (best_cost == kInf) break;  // no mergeable pair left
    const uint32_t i = sc.block_idx[best_blk];
    const uint32_t j = sc.next[i];
    bs[i] = Bucket(bs[i].range.lo, bs[j].range.hi, bs[i].prob + bs[j].prob);
    sc.alive[j] = 0;
    sc.cost[j] = kInf;
    sc.next[i] = sc.next[j];
    if (sc.next[j] < n) sc.prev[sc.next[j]] = i;
    sc.cost[i] = sc.next[i] < n ? merge_cost(i, sc.next[i]) : kInf;
    const uint32_t left_nbr = sc.prev[i];
    if (left_nbr < n) sc.cost[left_nbr] = merge_cost(left_nbr, i);
    --remaining;
    rescan_block(j / kBlock);
    if (i / kBlock != j / kBlock) rescan_block(i / kBlock);
    if (left_nbr < n && left_nbr / kBlock != i / kBlock &&
        left_nbr / kBlock != j / kBlock) {
      rescan_block(left_nbr / kBlock);
    }
  }
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    if (sc.alive[i] != 0) bs[out++] = bs[i];
  }
  bs.resize(out);
}

/// The lazy pair-heap strategy (see the header comment). Call through
/// GreedyMergeToCap unless pinning the strategy (tests).
inline void GreedyMergeHeap(std::vector<Bucket>* entries, size_t cap,
                            GreedyMergeScratch* scratch) {
  const size_t n = entries->size();
  if (n <= cap || cap == 0) return;
  std::vector<Bucket>& bs = *entries;
  GreedyMergeScratch& sc = *scratch;

  auto merge_cost = [&bs](size_t i, size_t j) {
    return MergeCost(bs[i].range, bs[i].prob, bs[j].range, bs[j].prob);
  };
  // Min-heap via the std heap algorithms on scratch storage (the front is
  // the smallest (cost, left) under the inverted comparator).
  auto later = [](const GreedyMergeScratch::PairEntry& a,
                  const GreedyMergeScratch::PairEntry& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.left > b.left;
  };

  sc.next.resize(n);
  sc.prev.resize(n);
  sc.ver.assign(n, 0);
  sc.alive.assign(n, 1);
  for (size_t i = 0; i < n; ++i) {
    sc.next[i] = static_cast<uint32_t>(i + 1);  // n == end sentinel
    sc.prev[i] = static_cast<uint32_t>(i == 0 ? n : i - 1);
  }
  sc.heap.clear();
  sc.heap.reserve(2 * n);
  for (size_t i = 0; i + 1 < n; ++i) {
    sc.heap.push_back(GreedyMergeScratch::PairEntry{
        merge_cost(i, i + 1), static_cast<uint32_t>(i),
        static_cast<uint32_t>(i + 1), 0, 0});
  }
  std::make_heap(sc.heap.begin(), sc.heap.end(), later);

  size_t remaining = n;
  while (remaining > cap && !sc.heap.empty()) {
    std::pop_heap(sc.heap.begin(), sc.heap.end(), later);
    const GreedyMergeScratch::PairEntry top = sc.heap.back();
    sc.heap.pop_back();
    const uint32_t i = top.left, j = top.right;
    if (sc.alive[i] == 0 || sc.alive[j] == 0 || sc.next[i] != j ||
        sc.ver[i] != top.left_ver || sc.ver[j] != top.right_ver) {
      continue;  // stale entry
    }
    bs[i] = Bucket(bs[i].range.lo, bs[j].range.hi, bs[i].prob + bs[j].prob);
    sc.alive[j] = 0;
    ++sc.ver[i];
    sc.next[i] = sc.next[j];
    if (sc.next[j] < n) sc.prev[sc.next[j]] = i;
    --remaining;
    if (sc.prev[i] < n) {
      sc.heap.push_back(GreedyMergeScratch::PairEntry{
          merge_cost(sc.prev[i], i), sc.prev[i], i, sc.ver[sc.prev[i]],
          sc.ver[i]});
      std::push_heap(sc.heap.begin(), sc.heap.end(), later);
    }
    if (sc.next[i] < n) {
      sc.heap.push_back(GreedyMergeScratch::PairEntry{
          merge_cost(i, sc.next[i]), i, sc.next[i], sc.ver[i],
          sc.ver[sc.next[i]]});
      std::push_heap(sc.heap.begin(), sc.heap.end(), later);
    }
  }

  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    if (sc.alive[i] != 0) bs[out++] = bs[i];
  }
  bs.resize(out);
}

/// Merges `entries` (disjoint, sorted, positive-width buckets) down to at
/// most `cap` buckets in place, dispatching on job size. No-op when
/// already within the cap or when `cap` is 0.
inline void GreedyMergeToCap(std::vector<Bucket>* entries, size_t cap,
                             GreedyMergeScratch* scratch) {
  if (entries->size() <= kGreedyMergeHeapThreshold) {
    GreedyMergeBlocked(entries, cap, scratch);
  } else {
    GreedyMergeHeap(entries, cap, scratch);
  }
}

/// The reference loop: full rescan per merge, first minimum wins. O(n²);
/// exists to pin the production strategies' semantics in the equivalence
/// test.
inline void GreedyMergeToCapRescan(std::vector<Bucket>* entries, size_t cap) {
  if (cap == 0) return;
  std::vector<Bucket>& bs = *entries;
  while (bs.size() > cap) {
    size_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i + 1 < bs.size(); ++i) {
      const double c =
          MergeCost(bs[i].range, bs[i].prob, bs[i + 1].range, bs[i + 1].prob);
      if (c < best_cost) {
        best_cost = c;
        best = i;
      }
    }
    bs[best] = Bucket(bs[best].range.lo, bs[best + 1].range.hi,
                      bs[best].prob + bs[best + 1].prob);
    bs.erase(bs.begin() + static_cast<ptrdiff_t>(best) + 1);
  }
}

}  // namespace hist
}  // namespace pcde
