// The paper's Sec. 4.2 reduction as one kernel: the Fig. 7 rearrangement of
// overlapping weighted intervals into disjoint buckets, then compaction to
// a bucket cap. Every flatten in the library runs through it:
// hist::FlattenToDisjoint, hist::Convolve, HistogramND::SumDistribution,
// and the chain sweeper's progressive compaction and finalization.
//
// FlattenAndCompact reads n intervals as three lanes (lo, hi, prob) and
// leaves its answer in the caller-held scratch, so a caller that keeps one
// scratch per thread (the chain sweeper) allocates nothing in steady state.
// Its steps, in order:
//   1. Validate: every bound finite, every mass finite and non-negative,
//      no interval narrower than the cut tolerance with positive mass, and
//      positive total mass.
//   2. Order all 2n bounds with the sort-free monotone grid
//      (hist/cut_binning.h), keep the first cut of every run within the
//      cut tolerance, and record each bound's kept cut.
//   3. Accumulate per-slice density in a difference array. Each bound's
//      slice comes from step 2's record, verified with two comparisons; a
//      binary search settles the rare mismatch. A cover counter keeps
//      slices no interval covers at exactly zero.
//   4. Emit positive-mass slices, merging equal-density neighbours (this
//      keeps the paper's [70,90) bucket whole in Fig. 7).
//   5. Divide by the input mass, check that the result sums to 1 within
//      tolerance, and renormalize.
//   6. Greedily merge down to the cap (hist/greedy_merge.h), then
//      renormalize.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "hist/cut_binning.h"
#include "hist/greedy_merge.h"
#include "hist/histogram1d.h"

namespace pcde {
namespace hist {

/// Caller-held storage of FlattenAndCompact: its output, its working
/// buffers, and three input lanes a caller may fill and pass in (the kernel
/// only reads its inputs, so they may alias these).
struct FlattenScratch {
  /// Input staging lanes for callers without lanes of their own.
  std::vector<double> lo, hi, prob;
  /// The last successful call's answer: disjoint, sorted, positive-width
  /// buckets whose masses sum to 1 up to rounding.
  std::vector<Bucket> buckets;
  // Working storage.
  std::vector<double> width, density, cuts, diff;
  std::vector<int32_t> cover;
  std::vector<uint32_t> order, slice_of;
  CutBinningScratch bins;
  GreedyMergeScratch merge;
};

/// \brief Flattens the n weighted intervals [lo[i], hi[i]) of mass prob[i]
/// into disjoint buckets and compacts them to at most `max_buckets` (0: no
/// cap), leaving the normalized result in scratch->buckets. Returns
/// InvalidArgument, with scratch->buckets unspecified, for empty input, a
/// non-finite bound or mass, a negative mass, an interval narrower than
/// 1e-12 with positive mass, zero total mass, or a flatten that keeps no
/// mass. Degenerate intervals are the caller's to inflate
/// (Interval::Inflated).
Status FlattenAndCompact(const double* lo, const double* hi,
                         const double* prob, size_t n, size_t max_buckets,
                         FlattenScratch* scratch);

}  // namespace hist
}  // namespace pcde
