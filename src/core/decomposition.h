// Path decompositions (Sec. 4.1): the candidate array of spatially and
// temporally relevant instantiated variables, the shift-and-enlarge
// procedure for temporal relevance (Eq. 3), and Algorithm 1, which selects
// the coarsest decomposition (provably the most accurate, Theorems 1-4).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/model_view.h"
#include "roadnet/path.h"

namespace pcde {
namespace core {

/// \brief One row of the candidate array (Table 1): the variables whose
/// paths start at the row's edge, indexed by rank (by_rank[r-1] is the rank-r
/// variable or nullptr), plus the row's updated departure window UI_k. A
/// row is as wide as the longest variable starting at its edge, capped by
/// the rest of the query and the rank cap (at least 1), so a query's rows
/// take space linear in its length.
struct CandidateRow {
  std::vector<const InstantiatedVariable*> by_rank;
  Interval departure_window;  // UI_k from Eq. 3

  /// Highest-rank variable of the row; never nullptr after a successful
  /// BuildCandidateArray (rank 1 always exists via the fallback).
  const InstantiatedVariable* Highest() const {
    for (size_t r = by_rank.size(); r-- > 0;) {
      if (by_rank[r] != nullptr) return by_rank[r];
    }
    return nullptr;
  }
};

/// \brief Candidate array for a (query path, departure time) pair.
struct CandidateArray {
  roadnet::Path query;
  double departure_time = 0.0;
  std::vector<CandidateRow> rows;  // one per edge of `query`
};

/// \brief One element of a decomposition: an instantiated variable whose
/// path equals query.Slice(start, variable->rank()).
struct DecompositionPart {
  const InstantiatedVariable* variable = nullptr;
  size_t start = 0;  // edge offset within the query path

  size_t rank() const { return variable->rank(); }
  size_t end() const { return start + rank(); }  // exclusive
};

/// A decomposition DE = (P1, ..., Pk) in left-to-right order.
using Decomposition = std::vector<DecompositionPart>;

/// \brief Relevance of `v` to the query slice starting at `start`, whose
/// departure window is `window` (Sec. 4.1.3). 0 unless v's path is
/// query.Slice(start, v.rank()) (spatial relevance). Otherwise its temporal
/// relevance: 1e-12 for an all-day fallback variable, so any overlapping
/// data variable outranks it; else the overlap ratio of `window` with v's
/// interval, or, for a point window, 1 if that interval contains it and 0
/// if not. Requires start + v.rank() <= query.size(). Inline: OI and every
/// routing extension call it once per candidate variable.
inline double Relevance(const InstantiatedVariable& v,
                        const roadnet::Path& query, size_t start,
                        const Interval& window, const TimeBinning& binning) {
  for (size_t d = 0; d < v.rank(); ++d) {
    if (v.path[d] != query[start + d]) return 0.0;
  }
  if (v.interval == kAllDayInterval) return 1e-12;
  const Interval ij = binning.IntervalOf(v.interval);
  return window.width() > 0.0 ? window.OverlapRatioOf(ij)
                              : (ij.Contains(window.lo) ? 1.0 : 0.0);
}

/// \brief Builds candidate arrays and decompositions against a weight
/// function (one frozen model or a manifest's shards).
class DecompositionBuilder {
 public:
  explicit DecompositionBuilder(ModelView view) : view_(view) {}

  /// \brief The candidate array: for every row (edge position) the
  /// spatially relevant variables (paths that are sub-paths of the query
  /// starting at the row) that are temporally relevant to the progressively
  /// shifted-and-enlarged departure window (Eq. 3). `rank_cap` > 0 limits
  /// variable rank (the OD-x methods of Fig. 16); 0 means unlimited.
  StatusOr<CandidateArray> BuildCandidateArray(const roadnet::Path& query,
                                               double departure_time,
                                               size_t rank_cap = 0) const;

  /// \brief Per-position unit coverage of `query`: result[k] != 0 iff some
  /// rank-1 variable (trajectory-instantiated or speed-limit fallback)
  /// starts at query[k]. A model instantiated over its serving graph covers
  /// every edge; a zero here is the sparse-coverage condition that makes
  /// BuildCandidateArray fail and that the estimator's degradation ladder
  /// (HybridEstimator::EstimateWithFallback) routes around.
  std::vector<uint8_t> UnitCoverage(const roadnet::Path& query) const;

  /// Algorithm 1: the coarsest decomposition (Theorem 4: unique and
  /// coarsest among decompositions drawn from the instantiated variables).
  static Decomposition Coarsest(const CandidateArray& array);

  /// The RD baseline: picks a uniformly random rank per row, then applies
  /// the same sub-path elimination as Algorithm 1.
  static Decomposition Random(const CandidateArray& array, Rng* rng);

  /// The HP baseline [10]: the full chain of rank-2 variables
  /// (<e1,e2>, <e2,e3>, ...), falling back to unit variables where a pair
  /// was not instantiated.
  static Decomposition PairwiseChain(const CandidateArray& array);

  /// The LB baseline (legacy graph, Sec. 2.3): unit variables only; the
  /// chain estimator then reduces to convolution with arrival-time
  /// progression.
  static Decomposition UnitChain(const CandidateArray& array);

  /// Validates the paper's four decomposition conditions against `query`.
  static Status Validate(const Decomposition& de, const roadnet::Path& query);

  /// True iff `a` is coarser than `b` (Sec. 4.1.1): every path of `b` is a
  /// sub-path of some path of `a`, and at least one inclusion is strict.
  static bool IsCoarser(const Decomposition& a, const Decomposition& b);

 private:
  ModelView view_;
};

}  // namespace core
}  // namespace pcde
