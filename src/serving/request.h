// Typed request/response value types of the serving Engine (engine.h) —
// the paper's deliverable phrased as a query service: given a path (or an
// OD pair) and a departure time, return the travel-cost distribution and
// the statistics users actually ask for — P(arrive within budget) as in
// Hua & Pei's probabilistic budget routing, quantiles, mean/variance —
// plus the stochastic-routing answer built on them.
//
// Histogram1D stays an internal representation: responses lead with a
// CostSummary of derived numbers, and the full distribution rides along
// only when a request opts in (`want_distribution`).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/cancel_token.h"
#include "core/estimator.h"
#include "hist/histogram1d.h"
#include "roadnet/graph.h"
#include "roadnet/path.h"
#include "routing/pruning.h"

namespace pcde {
namespace serving {

/// \brief The path of an estimate request: either an explicit edge path or
/// an origin/destination pair the Engine resolves via the free-flow
/// shortest path (roadnet/shortest_path.h) — the OD-query scenario, where
/// clients know endpoints, not edge ids.
struct PathSpec {
  roadnet::Path edges;  // explicit form (ignored when is_od)
  roadnet::VertexId from = 0;
  roadnet::VertexId to = 0;
  bool is_od = false;

  static PathSpec ExplicitPath(roadnet::Path path) {
    PathSpec spec;
    spec.edges = std::move(path);
    return spec;
  }
  static PathSpec OdPair(roadnet::VertexId from, roadnet::VertexId to) {
    PathSpec spec;
    spec.is_od = true;
    spec.from = from;
    spec.to = to;
    return spec;
  }
};

/// Bitmask selecting which CostSummary statistics a request wants; fields
/// not selected stay NaN / empty (their computation is skipped).
enum Stat : uint32_t {
  kStatMean = 1u << 0,
  kStatVariance = 1u << 1,
  kStatSupport = 1u << 2,       // support_lo / support_hi
  kStatQuantiles = 1u << 3,     // one value per requested level
  kStatCdfAtBudget = 1u << 4,   // P(cost <= budget_seconds)
  kStatAll = (1u << 5) - 1,
};
using StatsMask = uint32_t;

/// \brief One cost-distribution query.
struct EstimateRequest {
  PathSpec path;
  double departure_time = 0.0;  // seconds since midnight
  StatsMask stats = kStatAll;
  /// Budget for kStatCdfAtBudget — the "arrive within 60 min" question.
  /// NaN (the default) leaves prob_within_budget unset.
  double budget_seconds = std::numeric_limits<double>::quiet_NaN();
  /// Quantile levels for kStatQuantiles; response quantiles align with
  /// this vector index for index.
  std::vector<double> quantiles{0.5, 0.9, 0.95};
  /// Attach the full distribution to the response (off by default — the
  /// summary is the serving contract, the histogram the internal type).
  bool want_distribution = false;
  /// Fill the response's per-phase EstimateBreakdown (Estimate and each
  /// request of an EstimateBatch alike).
  bool want_breakdown = false;
  /// Wall-clock deadline budget, in seconds from request entry; <= 0 (the
  /// default) means no deadline. An expired request unwinds cooperatively
  /// with kDeadlineExceeded at the next estimator checkpoint (between
  /// chain-part transitions / ladder segments), never a partial response;
  /// the overshoot past the deadline is bounded by one checkpoint gap
  /// (see docs/serving.md "Deadlines & overload"). In a batch, each
  /// request's deadline runs from its own task start.
  double timeout_seconds = 0.0;
  /// Optional external cancellation (client disconnect, shutdown): the
  /// request trips when the token does, unwinding with kCancelled. Not
  /// owned; must outlive the call. Combines with timeout_seconds —
  /// whichever trips first wins.
  const CancelToken* cancel = nullptr;
};

/// \brief The serving-visible statistics of a cost distribution, derived
/// from the internal Histogram1D (hist/histogram1d.h). Unrequested fields
/// are NaN (scalars) or empty (quantiles).
struct CostSummary {
  double mean = std::numeric_limits<double>::quiet_NaN();
  double variance = std::numeric_limits<double>::quiet_NaN();
  double support_lo = std::numeric_limits<double>::quiet_NaN();
  double support_hi = std::numeric_limits<double>::quiet_NaN();
  /// P(cost <= EstimateRequest::budget_seconds); NaN without a budget.
  double prob_within_budget = std::numeric_limits<double>::quiet_NaN();
  /// Aligned with EstimateRequest::quantiles.
  std::vector<double> quantiles;
  /// Bucket count of the underlying distribution (its resolution).
  size_t num_buckets = 0;
  /// Degradation provenance (core/estimator.h): kFull means the normal
  /// full-path decomposition served this summary; kSubpath/kEdge mean the
  /// sparse-coverage fallback chain did — the answer is explicitly degraded
  /// rather than an error, and callers can audit how far the ladder fell.
  core::DegradationLevel degradation = core::DegradationLevel::kFull;
  /// Unit-covered positions / path length (1.0 at kFull).
  double covered_fraction = 1.0;

  /// Exact (bitwise) equality, treating NaN fields as equal when both are
  /// NaN — the divergence gate of the save -> reload -> serve round trip:
  /// a summary served from a reloaded artifact must ExactlyEqual the
  /// built model's (estimation is bit-identical across save/load).
  bool ExactlyEquals(const CostSummary& other) const {
    auto same = [](double a, double b) {
      return (std::isnan(a) && std::isnan(b)) || a == b;
    };
    if (!same(mean, other.mean) || !same(variance, other.variance) ||
        !same(support_lo, other.support_lo) ||
        !same(support_hi, other.support_hi) ||
        !same(prob_within_budget, other.prob_within_budget) ||
        num_buckets != other.num_buckets ||
        degradation != other.degradation ||
        !same(covered_fraction, other.covered_fraction) ||
        quantiles.size() != other.quantiles.size()) {
      return false;
    }
    for (size_t i = 0; i < quantiles.size(); ++i) {
      if (!same(quantiles[i], other.quantiles[i])) return false;
    }
    return true;
  }
};

struct EstimateResponse {
  CostSummary summary;
  /// The edge path actually costed: the resolved shortest path for OD
  /// requests, the request's own edges otherwise.
  roadnet::Path resolved_path;
  /// The full distribution, only when the request set want_distribution.
  std::optional<hist::Histogram1D> distribution;
  /// Per-phase breakdown (only when the request set want_breakdown).
  core::EstimateBreakdown breakdown;
  /// Served from the engine's QueryCache instead of sweeping the chain.
  bool served_from_cache = false;
  /// Wall-clock serving latency of this request (in a batch: the
  /// per-query latency recorded inside the fan-out).
  double serve_seconds = 0.0;
  /// Model provenance: the fingerprint of the frozen model and the engine
  /// epoch that served this response. Every response is computed entirely
  /// within one pinned epoch — under concurrent Engine::Swap these fields
  /// always name exactly one published model, never a mix.
  uint64_t model_fingerprint = 0;
  uint64_t epoch = 0;
  /// Engine load observation: requests in flight (this one included) when
  /// this request was admitted — the per-response slice of EngineStats.
  uint64_t inflight_at_admit = 0;
};

/// \brief One stochastic-routing query: the path from `from` to `to`
/// maximizing P(travel time <= budget) departing at `departure_time`.
struct RouteRequest {
  roadnet::VertexId from = 0;
  roadnet::VertexId to = 0;
  double departure_time = 0.0;
  double budget_seconds = 0.0;
  /// Deadline / cancellation, as on EstimateRequest. The router polls once
  /// per DFS expansion, so the overshoot is bounded by one expansion; a
  /// tripped search returns kDeadlineExceeded / kCancelled, never the
  /// partial best-so-far.
  double timeout_seconds = 0.0;
  const CancelToken* cancel = nullptr;  // not owned; may be null
  /// Per-request pruner override: when set, `pruning` replaces the
  /// engine-level EngineOptions::route_pruning for this request only
  /// (including turning pruning off with a default-constructed value).
  bool use_pruning_override = false;
  routing::PruningOptions pruning;
};

struct RouteResponse {
  roadnet::Path best_path;
  double on_time_probability = 0.0;  // P(travel time <= budget)
  size_t expansions = 0;
  size_t candidate_paths = 0;
  bool truncated = false;  // DFS expansion cap hit
  /// Per-pruner attribution counters (routing::RouteResult): admissible
  /// free-flow bound cuts, incumbent-CDF cuts, stochastic-dominance cuts,
  /// and the estimator clones actually paid. The cut counters other than
  /// bound_pruned stay zero unless their pruner is enabled.
  uint64_t bound_pruned = 0;
  uint64_t incumbent_pruned = 0;
  uint64_t dominance_pruned = 0;
  uint64_t estimator_clones = 0;
  /// Model provenance, as on EstimateResponse: the routing search ran
  /// start to finish against this one pinned epoch's model.
  uint64_t model_fingerprint = 0;
  uint64_t epoch = 0;
  /// Requests in flight (this one included) at admission.
  uint64_t inflight_at_admit = 0;
};

}  // namespace serving
}  // namespace pcde
