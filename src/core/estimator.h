// HybridEstimator: the query layer of the hybrid graph — the internal
// layer that serving::Engine (src/serving/engine.h) drives; serving
// callers should go through the Engine's typed request/response API
// rather than wiring estimator + caches + pool by hand.
//
// Given a path and a departure time it (i) identifies the optimal
// (coarsest) decomposition over the instantiated variables — phase OI,
// (ii) evaluates
// the decomposable-model joint (Eq. 2) — phase JC, and (iii) reduces it to
// the univariate cost distribution (Sec. 4.2) — phase MC.
//
// The decomposition policy selects between the paper's methods:
//   kCoarsest  — OD, the proposal (Algorithm 1); with rank_cap -> OD-x
//   kRandom    — RD, a random valid decomposition
//   kPairwise  — HP [10], the rank-2 chain
//   kUnit      — LB [22], the legacy edge-granularity convolution
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "core/chain_estimator.h"
#include "core/decomposition.h"
#include "core/model_view.h"
#include "core/query_cache.h"

namespace pcde {
namespace core {

enum class DecompositionPolicy { kCoarsest, kRandom, kPairwise, kUnit };

/// \brief How far EstimateWithFallback's degradation ladder descended for a
/// query (the sparse-trajectory fallback of "Learning to Route with Sparse
/// Trajectory Sets", arXiv 1802.07980): the full-path decomposition first,
/// then the longest unit-covered sub-paths, then bare per-edge convolution.
enum class DegradationLevel : uint8_t {
  kFull = 0,     // normal decomposition over the whole path
  kSubpath = 1,  // >= 1 covered multi-edge run estimated by decomposition,
                 // convolved across synthesized gaps
  kEdge = 2,     // edge-granularity convolution only
};

/// \brief Provenance of a degraded estimate — the serving layer surfaces
/// these fields verbatim (serving::CostSummary), so a caller can audit
/// whether an answer came from the learned joint distributions or a
/// coverage fallback, and how much of the path was actually covered.
struct FallbackProvenance {
  DegradationLevel level = DegradationLevel::kFull;
  /// Unit-covered positions / path length (1.0 at kFull).
  double covered_fraction = 1.0;
  /// Maximal covered runs estimated through the normal decomposition.
  size_t covered_runs = 0;
  /// Positions served from the injected edge synthesizer.
  size_t synthesized_edges = 0;
};

/// \brief Synthesizes a cost distribution for an edge with no instantiated
/// variable at all — the last rung of the ladder. The serving layer injects
/// the graph's free-flow prior (core/instantiation's FreeFlowEdgeHistogram)
/// so core stays free of a graph dependency; an error Status fails the
/// query (no further fallback exists below this one).
using EdgeFallbackFn =
    std::function<StatusOr<hist::Histogram1D>(roadnet::EdgeId)>;

struct EstimateOptions {
  DecompositionPolicy policy = DecompositionPolicy::kCoarsest;
  /// Rank cap for candidate variables (the OD-x methods); 0 = unlimited.
  size_t rank_cap = 0;
  ChainOptions chain;
  uint64_t random_seed = 7;  // decomposition choice for kRandom
};

/// \brief Per-query phase breakdown (Fig. 17) and chain diagnostics.
struct EstimateBreakdown {
  double oi_seconds = 0.0;  // optimal decomposition identification
  double jc_seconds = 0.0;  // joint computation (Eq. 2 sweep)
  double mc_seconds = 0.0;  // marginalization to the cost distribution
  size_t parts = 0;         // |DE|
  bool cache_hit = false;   // served from the attached QueryCache
  ChainDiagnostics chain;
};

/// \brief Facade combining decomposition construction and Eq. 2 evaluation,
/// over one frozen model or a manifest's shards (core/model_view.h).
class HybridEstimator {
 public:
  explicit HybridEstimator(ModelView view,
                           EstimateOptions options = EstimateOptions())
      : view_(view), builder_(view), options_(options) {}

  const EstimateOptions& options() const { return options_; }

  /// Attaches a shared result cache (see query_cache.h): subsequent
  /// estimations look up (decomposition, departure-time bucket) before
  /// sweeping the chain and insert on miss. Results are bit-identical with
  /// and without a cache (estimation is deterministic per decomposition).
  /// Keys carry the view's fingerprint and variable ids, so one cache may
  /// safely be shared across estimators — even over different weight
  /// functions (entries simply never cross models), and entries stay valid
  /// across save/load of the same model artifact. Pass nullptr to detach.
  void set_query_cache(QueryCache* cache) { cache_ = cache; }
  QueryCache* query_cache() const { return cache_; }

  /// The travel cost distribution of `path` departing at `departure_time`
  /// (seconds since midnight) — the paper's core query.
  ///
  /// `cancel` (optional) enables cooperative cancellation: the token is
  /// polled before the decomposition and between chain-part transitions
  /// inside the sweep, and a tripped token unwinds with its Status
  /// (kDeadlineExceeded / kCancelled) — never a partial result. nullptr
  /// means "never cancelled" and changes nothing.
  StatusOr<hist::Histogram1D> EstimateCostDistribution(
      const roadnet::Path& path, double departure_time,
      EstimateBreakdown* breakdown = nullptr,
      const CancelToken* cancel = nullptr) const;

  /// \brief Attaches the per-edge synthesizer of the degradation ladder's
  /// last rung; without one, EstimateWithFallback cannot bridge uncovered
  /// positions and sparse queries keep failing like EstimateCostDistribution.
  /// Pass a default-constructed function to detach.
  void set_edge_fallback(EdgeFallbackFn fn) { edge_fallback_ = std::move(fn); }
  const EdgeFallbackFn& edge_fallback() const { return edge_fallback_; }

  /// \brief EstimateCostDistribution with the sparse-coverage degradation
  /// ladder behind it. A fully covered path is served by the normal
  /// decomposition — bit-identical to EstimateCostDistribution, kFull
  /// provenance. When positions of the path have no unit variable at all,
  /// the path splits into maximal covered runs (each estimated through the
  /// normal decomposition machinery and the attached QueryCache) and
  /// uncovered positions (served by the edge synthesizer); the segments are
  /// convolved left to right under independence, with the departure time
  /// advanced by each segment's mean — deliberately simple degraded
  /// semantics, flagged as such in the provenance rather than hidden.
  /// Errors that are not sparse coverage (or sparse coverage with no
  /// synthesizer attached) pass through unchanged.
  /// `cancel` is additionally polled between ladder segments (per covered
  /// run / synthesized edge), so degraded serving honors deadlines too.
  StatusOr<hist::Histogram1D> EstimateWithFallback(
      const roadnet::Path& path, double departure_time,
      FallbackProvenance* provenance = nullptr,
      EstimateBreakdown* breakdown = nullptr,
      const CancelToken* cancel = nullptr) const;

  /// The decomposition the configured policy selects for this query.
  StatusOr<Decomposition> Decompose(const roadnet::Path& path,
                                    double departure_time) const;

  /// H_DE of the selected decomposition (Theorem 2; Fig. 15).
  StatusOr<double> EstimateEntropy(const roadnet::Path& path,
                                   double departure_time) const;

 private:
  ModelView view_;
  DecompositionBuilder builder_;
  EstimateOptions options_;
  QueryCache* cache_ = nullptr;  // not owned; thread-safe (sharded)
  EdgeFallbackFn edge_fallback_;  // empty = ladder ends at sub-paths
};

/// \brief Incremental estimation for "path + another edge" exploration
/// (Sec. 4.3): stochastic routing algorithms extend candidate paths one
/// edge at a time, and the estimator reuses the chain state of the prefix
/// instead of recomputing from scratch.
///
/// Extension greedily appends the highest-rank variable that ends at the
/// new edge and overlaps only the retained tail of the prefix chain — the
/// incremental counterpart of Algorithm 1.
class IncrementalEstimator {
 public:
  IncrementalEstimator(ModelView view, EstimateOptions options,
                       roadnet::EdgeId first_edge, double departure_time);

  /// Extends the current path by one adjacent edge.
  Status ExtendByEdge(roadnet::EdgeId e);

  const roadnet::Path& path() const { return path_; }

  /// Cost distribution of the current path (finalizes a copy of the chain
  /// state; the estimator itself remains extendable).
  StatusOr<hist::Histogram1D> CurrentDistribution() const;

  /// Smallest possible total cost of the current path (for routing pruning).
  double MinTotalCost() const { return min_total_; }

  /// MinTotalCost() of the hypothetical extension by `e`, computed on the
  /// parent without cloning the chain state: exactly the value a copy would
  /// report after ExtendByEdge(e). Routing's admissible bound check runs on
  /// this before paying the estimator copy, so pruned edges never clone.
  double MinTotalCostWithEdge(roadnet::EdgeId e) const;

  /// Optimistic upper bound on P(total path cost <= budget) over every
  /// extension of the current prefix whose own (remaining) cost is at least
  /// `remaining_lower_bound` — the incumbent-pruning probe: the streamed
  /// prefix CDF evaluated at budget - remaining_lower_bound, with the
  /// not-yet-streamed prefix positions charged at their unit-variable
  /// minima (the same per-position support bounds MinTotalCost sums).
  /// Exact while the chain sweep conserves its mass; once separator
  /// mismatch destroys mass (the independence-fallback regime) the probe
  /// degrades to 1.0 — "no information", never a wrong prune at probe
  /// time. Cost: one pass over the streamed sweeper states.
  double ArrivalProbabilityUpperBound(double budget,
                                      double remaining_lower_bound) const;

  /// Support envelope of the current prefix-cost distribution as raw
  /// (cost, mass) points: `optimistic` places every streamed state at its
  /// smallest possible cost (its CDF step sketch upper-bounds the true
  /// prefix CDF), `pessimistic` at its largest (lower bound). Unstreamed
  /// positions are charged at their unit minima / maxima. Returns false —
  /// envelope unusable — when a prefix position has no unit variable (no
  /// per-position maximum exists) or when the sweep has lost mass; the
  /// dominance pruner then simply neither prunes nor records this prefix.
  bool PrefixCostEnvelope(
      std::vector<std::pair<double, double>>* optimistic,
      std::vector<std::pair<double, double>>* pessimistic) const;

 private:
  /// Parts at positions this far behind the path end can still be absorbed
  /// by a future part of at most this rank; everything earlier is streamed
  /// into the chain sweeper once. A longer part (a model instantiated
  /// above the default rank) restarts the stream instead.
  size_t MaxAbsorbRank() const;
  void AdvanceStablePrefix();
  /// First path position NOT yet accounted for by the streamed sweeper
  /// state (positions of the applied stable-prefix parts are; stable parts
  /// are never absorbed, so their contributions are final for every
  /// completion of this prefix).
  size_t CountedEnd() const {
    return applied_ == 0 ? 0 : parts_[applied_ - 1].end();
  }
  /// Appends one position's unit-variable support bounds to the prefix
  /// sums (nullptr unit = no per-position bounds: minimum 0, no maximum).
  void PushUnitBounds(const InstantiatedVariable* unit);

  ModelView view_;
  EstimateOptions options_;
  roadnet::Path path_;
  // Shift-and-enlarged departure window per edge position (Eq. 3);
  // windows_[k] is the arrival window at edge k, windows_.back() is the
  // window at the (not yet appended) next edge.
  std::vector<Interval> windows_;
  Decomposition parts_;
  // Chain state streamed through the stable prefix parts_[0..applied_):
  // extending by one edge costs one part transition (amortized), and
  // CurrentDistribution only replays the short unstable tail.
  ChainSweeper sweeper_;
  size_t applied_ = 0;
  double min_total_ = 0.0;
  // Cumulative per-position unit-variable support bounds
  // (unit_lo_prefix_[k] = sum of unit minima over positions < k, so
  // min_total_ == unit_lo_prefix_.back()): the pruning probes split these
  // sums at the counted/uncounted boundary (CountedEnd).
  std::vector<double> unit_lo_prefix_{0.0};
  std::vector<double> unit_hi_prefix_{0.0};
  // Positions with no unit variable at all: their maxima are unknown, so
  // the pessimistic envelope is unusable while this is nonzero.
  size_t units_missing_ = 0;
};

}  // namespace core
}  // namespace pcde
