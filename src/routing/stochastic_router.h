// DFS-based stochastic routing after Hua & Pei (EDBT 2010) [10] — the
// routing algorithm the paper integrates its estimator into (Sec. 4.3,
// Fig. 18): find the path that maximizes the probability of arriving
// within a travel-time budget.
//
// The search explores simple paths depth-first, extending "path + another
// edge" with an IncrementalEstimator, and prunes a prefix when even its
// fastest possible completion (prefix support minimum + admissible
// reverse-Dijkstra lower bound to the destination) exceeds the budget.
// Each call searches that reverse Dijkstra only out to the budget: a
// vertex beyond it is pruned whatever its exact bound, so the search
// needs exact bounds only within the budget, plus, beyond it, whether a
// vertex can reach the destination at all. Reachability depends only on
// the graph, so the router reads it from the graph's strongly connected
// components, computed once per router on its first Route.
//
// A call pays for one bounded tree when the oracle drives the search (see
// oracle_weight_seconds_) and settles the origin within the budget: every
// oracle weight is at least the free-flow bound's, so the free-flow tree
// would find the origin feasible too, and it runs only when the oracle
// leaves the origin beyond the budget, to tell the two NotFound cases
// apart.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "common/cancel_token.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/estimator.h"
#include "roadnet/components.h"
#include "roadnet/graph.h"
#include "roadnet/shortest_path.h"
#include "routing/pruning.h"

namespace pcde {
namespace routing {

struct RouterConfig {
  /// Hard cap on DFS expansions; the search space of simple paths within a
  /// generous budget is exponential (also true of [10]).
  size_t max_expansions = 500000;
  size_t max_path_edges = 150;
  /// Pool for the root fan-out (not owned): the DFS subtrees under
  /// distinct first edges run as its ParallelFor items — serving::Engine
  /// passes its shared pool here. nullptr searches sequentially on the
  /// calling thread, as does a 1-thread pool.
  ThreadPool* pool = nullptr;
  /// Opt-in search pruners (routing/pruning.h). All default off, which is
  /// bit-identical to the pre-pruning router. In a sequential search,
  /// incumbent and dominance pruning return exactly the same
  /// (path, probability) as the plain search; cheap_first (an exploration
  /// reorder) and the parallel fan-out preserve the probability exactly
  /// but may resolve an exact probability tie to a different equally-good
  /// path.
  PruningOptions pruning;
};

struct RouteResult {
  roadnet::Path best_path;
  double best_probability = 0.0;  // P(travel time <= budget)
  size_t expansions = 0;
  size_t candidate_paths = 0;     // complete paths whose distribution was
                                  // evaluated
  bool truncated = false;         // expansion cap hit
  /// Per-pruner attribution counters (summed over root branches).
  /// bound_pruned counts admissible free-flow bound cuts (always active);
  /// the other cut counters stay zero unless their pruner is enabled.
  uint64_t bound_pruned = 0;
  uint64_t incumbent_pruned = 0;
  uint64_t dominance_pruned = 0;
  /// IncrementalEstimator copies actually paid (pruned edges never clone).
  uint64_t estimator_clones = 0;
};

/// \brief The argument checks of DfsStochasticRouter::Route, which runs
/// them first: InvalidArgument for a vertex outside `graph`, `from == to`,
/// or a budget or departure time that is not finite. A caller can run them
/// before paying for anything the search needs (serving::Engine does,
/// before it attaches a manifest's shards).
Status CheckRouteArguments(const roadnet::Graph& graph, roadnet::VertexId from,
                           roadnet::VertexId to, double departure_time,
                           double budget_seconds);

/// \brief The completion bound Route's search reads: the reverse Dijkstra
/// into `to` over `weight` (roadnet::ReverseShortestPathTree), searched
/// only out to `budget`. Entries at or below the budget are the unbounded
/// tree's, bit for bit. Every other vertex that can reach `to` reads as
/// the smallest cost above the budget the search met, which is above the
/// budget and still bounds its true cost from below; kInfCost is left only
/// where `to` is unreachable. `components` must be `graph`'s.
std::vector<double> CompletionBound(
    const roadnet::Graph& graph,
    const roadnet::StronglyConnectedComponents& components,
    roadnet::VertexId to, const roadnet::EdgeWeightFn& weight, double budget);

/// \brief Probabilistic budget routing with a pluggable cost-distribution
/// estimator (LB / HP / OD — Fig. 18 compares them by total routing time).
/// The view must cover every edge of `graph`: a manifest view needs all of
/// its shards attached. `graph` must outlive the router and must not grow
/// after its first Route.
class DfsStochasticRouter {
 public:
  DfsStochasticRouter(const roadnet::Graph& graph, core::ModelView view,
                      core::EstimateOptions estimate_options,
                      RouterConfig config = RouterConfig());

  /// Finds the path from `from` to `to`, departing at `departure_time`,
  /// with the highest probability of total travel time <= `budget_seconds`.
  /// Returns NotFound when no path can make the budget, InvalidArgument as
  /// CheckRouteArguments says, and FailedPrecondition when the graph grew
  /// after the first call.
  ///
  /// `cancel` (optional) is polled once per DFS expansion across every root
  /// branch; a tripped token makes the whole search unwind with the token's
  /// Status (kDeadlineExceeded / kCancelled) — never a partial best-path —
  /// with overshoot bounded by one expansion (one estimator extension +
  /// one candidate distribution).
  ///
  /// `pruning_override` (optional) replaces `config.pruning` for this call
  /// only — serving::Engine uses it for per-request pruning knobs.
  StatusOr<RouteResult> Route(roadnet::VertexId from, roadnet::VertexId to,
                              double departure_time, double budget_seconds,
                              const CancelToken* cancel = nullptr,
                              const PruningOptions* pruning_override =
                                  nullptr) const;

 private:
  /// The graph's strongly connected components, built on the first Route
  /// rather than in the constructor: serving::Engine builds a router on
  /// every model swap, and a swap should not pay for a graph fact.
  const roadnet::StronglyConnectedComponents& Components() const;

  const roadnet::Graph& graph_;
  core::ModelView view_;
  core::EstimateOptions estimate_options_;
  RouterConfig config_;
  /// Shared lower-bound oracle (built once in the constructor): per edge,
  /// the larger of factor * free-flow and the minimum support cost over
  /// the edge's unit variables — still admissible, usually much tighter.
  /// Route() runs its reverse Dijkstra over these weights, out to the
  /// budget, when incumbent or dominance pruning is on, and runs it first:
  /// each weight is at least the free-flow bound's, so where this tree
  /// settles the origin within the budget the free-flow tree would too,
  /// and Route skips it. Cuts from the tighter bound remove only
  /// zero-probability completions, so route quality is unchanged.
  std::vector<double> oracle_weight_seconds_;
  mutable std::once_flag components_once_;
  mutable std::optional<roadnet::StronglyConnectedComponents> components_;
};

}  // namespace routing
}  // namespace pcde
