#include "routing/stochastic_router.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "routing/frontier.h"

namespace pcde {
namespace routing {

using core::IncrementalEstimator;
using roadnet::EdgeId;
using roadnet::Graph;
using roadnet::Path;
using roadnet::VertexId;

namespace {

/// Safety factor (< 1) on free-flow edge times for the admissible lower
/// bound; sampled travel can beat the speed limit slightly.
constexpr double kLowerBoundFactor = 0.8;
/// Max nondominated entries the dominance pruner keeps per vertex (per
/// branch).
constexpr size_t kDominanceFrontierSize = 4;
/// Max breakpoints per dominance CDF sketch (coarser sketches prune less
/// but compare faster; never unsound — coarsening is direction-aware).
constexpr size_t kDominanceSketchPoints = 16;

}  // namespace

DfsStochasticRouter::DfsStochasticRouter(const Graph& graph,
                                         core::ModelView view,
                                         core::EstimateOptions estimate_options,
                                         RouterConfig config)
    : graph_(graph),
      view_(view),
      estimate_options_(estimate_options),
      config_(config) {
  // Shared lower-bound oracle for the pruned search: per edge, the larger
  // (tighter) of the two admissible traversal-time lower bounds available
  // — the scaled free-flow time the baseline bound uses, and the minimum
  // support cost over the edge's unit variables (every distribution the
  // estimator produces streams some unit variable of the edge, and joint
  // marginals only restrict the trajectory set, so no realization costs
  // less). Built once per router and shared by every Route call's
  // reverse-Dijkstra completion bound when incumbent or dominance pruning
  // is on; model minima usually sit well above factor * free-flow, so the
  // residual budgets the pruners reason about shrink substantially.
  oracle_weight_seconds_.assign(graph_.NumEdges(), roadnet::kInfCost);
  for (EdgeId e = 0; e < oracle_weight_seconds_.size(); ++e) {
    for (const core::InstantiatedVariable* var : view_.StartingAt(e)) {
      if (var->rank() != 1) continue;
      oracle_weight_seconds_[e] =
          std::min(oracle_weight_seconds_[e], var->joint.DimRange(0).lo);
    }
    const double free_flow_bound =
        graph_.edge(e).FreeFlowSeconds() * kLowerBoundFactor;
    oracle_weight_seconds_[e] =
        oracle_weight_seconds_[e] == roadnet::kInfCost
            ? free_flow_bound
            : std::max(oracle_weight_seconds_[e], free_flow_bound);
  }
}

namespace {

/// Expansion slots a branch reserves from the shared budget per fetch_add
/// (routing/pruning.h's ExpansionBudget), clamped per search to
/// max_expansions / 8 + 1 so small caps still truncate near the cap.
constexpr size_t kExpansionStride = 64;

/// Search state shared by all root branches: the expansion budget is
/// global, so the parallel search does the same total work as the
/// sequential one.
struct SharedSearch {
  /// Reservation cursor for the strided per-branch expansion budget
  /// (routing/pruning.h); may overshoot max_expansions, the per-branch
  /// consumed() counts are the true expansion tally.
  std::atomic<size_t> expansions{0};
  std::atomic<bool> truncated{false};
  /// Cooperative cancellation (not owned, may be null): polled once per
  /// expansion. `cancelled` latches the observation so every branch stops
  /// at its next checkpoint without re-reading the clock.
  const CancelToken* cancel = nullptr;
  std::atomic<bool> cancelled{false};
  /// Best arrival probability found by any branch so far; only written
  /// (and only read) when incumbent pruning is enabled, so the plain
  /// search stays free of the extra atomic traffic.
  SharedIncumbent incumbent;
};

struct SearchContext {
  const Graph* graph;
  const RouterConfig* config;
  const PruningOptions* prune;             // effective pruner set
  const std::vector<double>* lower_bound;  // admissible min time to dest
  VertexId destination;
  double budget;
  SharedSearch* shared;
  RouteResult* result;            // this branch's local result
  std::vector<bool>* visited;     // this branch's visited set
  ExpansionBudget* budget_counter;          // this branch's strided budget
  DominanceFrontier* frontier;              // per-branch; null unless on
  std::vector<VertexId>* path_vertices;     // current path incl. origin
};

/// Out-edge surviving the pre-clone admissible bound check, with the data
/// the expansion loop needs: the reverse-Dijkstra completion bound and the
/// child's support minimum (parent min + edge unit minimum).
struct ChildEdge {
  EdgeId e;
  VertexId to;
  double lb;
  double next_min;
};

void Dfs(SearchContext* ctx, const IncrementalEstimator& estimator,
         VertexId at, size_t depth) {
  RouteResult& res = *ctx->result;
  const PruningOptions& prune = *ctx->prune;
  if (ctx->shared->truncated.load(std::memory_order_relaxed)) return;
  // Per-expansion cancellation checkpoint: the deepest recursion still
  // polls once per node it expands, so the overshoot past a deadline is
  // bounded by one expansion's work.
  if (ctx->shared->cancelled.load(std::memory_order_relaxed)) return;
  if (CancelToken::Check(ctx->shared->cancel)) {
    ctx->shared->cancelled.store(true, std::memory_order_relaxed);
    return;
  }
  if (!ctx->budget_counter->TryConsume()) {
    ctx->shared->truncated.store(true, std::memory_order_relaxed);
    return;
  }

  if (at == ctx->destination) {
    if (prune.incumbent) {
      // Optimistic arrival-probability bound for this complete candidate:
      // if even the upper bound cannot beat the incumbent, skip the
      // (expensive) distribution finalization. Sound because the true
      // probability is <= the bound <= the incumbent <= the final best,
      // and the merge requires strictly greater to win.
      const double ub =
          estimator.ArrivalProbabilityUpperBound(ctx->budget, 0.0);
      if (ub <= ctx->shared->incumbent.Load()) {
        ++res.incumbent_pruned;
        return;
      }
    }
    ++res.candidate_paths;
    auto dist = estimator.CurrentDistribution();
    if (dist.ok()) {
      const double p = dist.value().ProbWithin(ctx->budget);
      if (p > res.best_probability) {
        res.best_probability = p;
        res.best_path = estimator.path();
      }
      if (prune.incumbent) ctx->shared->incumbent.Update(p);
    }
    return;  // extending past the destination cannot arrive earlier
  }
  if (depth >= ctx->config->max_path_edges) return;

  if (prune.dominance && ctx->frontier != nullptr) {
    // First-order stochastic-dominance pruning: cut this prefix when a
    // previously explored prefix at the same vertex with a subset visited
    // set (so every completion of ours is available to it) has a
    // pessimistic cost CDF that dominates our optimistic one. The
    // envelope is unavailable (returns false) when the model lacks unit
    // variables for some position or the chain state lost mass.
    std::vector<std::pair<double, double>> optimistic;
    std::vector<std::pair<double, double>> pessimistic;
    if (estimator.PrefixCostEnvelope(&optimistic, &pessimistic)) {
      std::vector<VertexId> visited_sorted(*ctx->path_vertices);
      std::sort(visited_sorted.begin(), visited_sorted.end());
      const CdfSketch opt = CdfSketch::FromPoints(
          std::move(optimistic), kDominanceSketchPoints,
          /*round_down=*/true);
      if (ctx->frontier->IsDominated(at, opt, visited_sorted)) {
        ++res.dominance_pruned;
        return;
      }
      ctx->frontier->Insert(
          at,
          CdfSketch::FromPoints(std::move(pessimistic),
                                kDominanceSketchPoints,
                                /*round_down=*/false),
          std::move(visited_sorted));
    }
  }

  // Gather surviving out-edges before cloning anything: the admissible
  // bound uses the parent's support minimum plus the edge's unit minimum
  // (== the child's MinTotalCost()), so pruned edges never pay an
  // estimator copy.
  const double prefix_min = estimator.MinTotalCost();
  std::vector<ChildEdge> children;
  for (EdgeId e : ctx->graph->OutEdges(at)) {
    const roadnet::Edge& edge = ctx->graph->edge(e);
    if ((*ctx->visited)[edge.to]) continue;
    const double bound = (*ctx->lower_bound)[edge.to];
    if (bound == roadnet::kInfCost) continue;
    const double next_min = estimator.MinTotalCostWithEdge(e);
    if (next_min + bound > ctx->budget) {
      ++res.bound_pruned;
      continue;
    }
    children.push_back(ChildEdge{e, edge.to, bound, next_min});
  }
  if (prune.cheap_first) {
    // Cheapest completion first: strong incumbents land early, so the
    // incumbent pruner bites sooner. Stable, so equal bounds keep graph
    // order.
    std::stable_sort(children.begin(), children.end(),
                     [](const ChildEdge& a, const ChildEdge& b) {
                       return a.lb < b.lb;
                     });
  }
  for (const ChildEdge& c : children) {
    if (prune.incumbent) {
      // Optimistic bound on any arrival through this child: prefix CDF at
      // budget − (completion bound + edge unit minimum). Checked before
      // the clone, so incumbent-pruned edges are as cheap as bound-pruned
      // ones.
      const double ub = estimator.ArrivalProbabilityUpperBound(
          ctx->budget, c.lb + (c.next_min - prefix_min));
      if (ub <= ctx->shared->incumbent.Load()) {
        ++res.incumbent_pruned;
        continue;
      }
    }
    ++res.estimator_clones;
    IncrementalEstimator next = estimator;
    if (!next.ExtendByEdge(c.e).ok()) continue;
    (*ctx->visited)[c.to] = true;
    ctx->path_vertices->push_back(c.to);
    Dfs(ctx, next, c.to, depth + 1);
    ctx->path_vertices->pop_back();
    (*ctx->visited)[c.to] = false;
    if (ctx->shared->truncated.load(std::memory_order_relaxed)) return;
    if (ctx->shared->cancelled.load(std::memory_order_relaxed)) return;
  }
}

}  // namespace

Status CheckRouteArguments(const Graph& graph, VertexId from, VertexId to,
                           double departure_time, double budget_seconds) {
  if (from >= graph.NumVertices() || to >= graph.NumVertices()) {
    return Status::InvalidArgument("Route: unknown vertex");
  }
  if (from == to) return Status::InvalidArgument("Route: from == to");
  // Every bound check compares with the budget, and a NaN or infinite
  // budget would fail them all: the search would run to the expansion cap.
  if (!std::isfinite(budget_seconds) || !std::isfinite(departure_time)) {
    return Status::InvalidArgument(
        "Route: budget and departure time must be finite");
  }
  return Status::OK();
}

std::vector<double> CompletionBound(
    const Graph& graph, const roadnet::StronglyConnectedComponents& components,
    VertexId to, const roadnet::EdgeWeightFn& weight, double budget) {
  std::vector<double> bound =
      roadnet::ReverseShortestPathTree(graph, to, weight, budget);
  // Where the budget stopped the search, it stopped at the smallest
  // tentative cost above the budget, and a vertex it never reached may
  // still reach `to` through the vertices it left at tentative costs. Where
  // no tentative cost is left, the search ran out of vertices first, and
  // kInfCost already means unreachable.
  double beyond = roadnet::kInfCost;
  for (double b : bound) {
    if (b > budget && b < beyond) beyond = b;
  }
  if (beyond == roadnet::kInfCost) return bound;
  const std::vector<uint8_t> reaches = components.ComponentsReaching(to);
  for (VertexId v = 0; v < bound.size(); ++v) {
    if (bound[v] > budget) {
      bound[v] = reaches[components.ComponentOf(v)] ? beyond
                                                    : roadnet::kInfCost;
    }
  }
  return bound;
}

const roadnet::StronglyConnectedComponents& DfsStochasticRouter::Components()
    const {
  std::call_once(components_once_, [this] { components_.emplace(graph_); });
  return *components_;
}

StatusOr<RouteResult> DfsStochasticRouter::Route(
    VertexId from, VertexId to, double departure_time, double budget_seconds,
    const CancelToken* cancel, const PruningOptions* pruning_override) const {
  PCDE_RETURN_NOT_OK(
      CheckRouteArguments(graph_, from, to, departure_time, budget_seconds));
  if (CancelToken::Check(cancel)) return CancelToken::StatusOf(cancel);
  const roadnet::StronglyConnectedComponents& components = Components();
  if (components.NumVertices() != graph_.NumVertices() ||
      components.NumEdges() != graph_.NumEdges()) {
    return Status::FailedPrecondition(
        "Route: the graph grew after the router's first route");
  }

  const PruningOptions& prune =
      pruning_override != nullptr ? *pruning_override : config_.pruning;
  const bool use_oracle = (prune.incumbent || prune.dominance) &&
                          oracle_weight_seconds_.size() == graph_.NumEdges();

  // With incumbent or dominance pruning on, the search reads the shared
  // lower-bound oracle (constructor): the same bounded reverse Dijkstra
  // over per-edge weights that fold in the model's unit support minima.
  // The tighter bound stays admissible, so the extra cuts remove only
  // prefixes whose every completion exceeds the budget with certainty
  // (arrival probability exactly zero) — the returned route and its
  // probability are unchanged.
  std::vector<double> search_bound;
  if (use_oracle) {
    search_bound = CompletionBound(
        graph_, components, to,
        [this](const roadnet::Edge& e) { return oracle_weight_seconds_[e.id]; },
        budget_seconds);
  }
  // The feasibility checks read the admissible free-flow bound, so
  // NotFound reporting matches the plain search. Each oracle weight is the
  // max of the same free-flow bound and a model minimum, and rounding is
  // monotone, so an origin the oracle settled within the budget has a
  // free-flow bound within it too: both checks would pass, and that tree
  // is not built.
  if (!use_oracle || search_bound[from] > budget_seconds) {
    std::vector<double> lower_bound = CompletionBound(
        graph_, components, to,
        [](const roadnet::Edge& e) {
          return e.FreeFlowSeconds() * kLowerBoundFactor;
        },
        budget_seconds);
    if (lower_bound[from] == roadnet::kInfCost) {
      return Status::NotFound("Route: destination unreachable");
    }
    if (lower_bound[from] > budget_seconds) {
      return Status::NotFound("Route: budget infeasible even at free flow");
    }
    if (!use_oracle) search_bound = std::move(lower_bound);
  }

  // Root fan-out: the DFS subtrees under distinct first edges are
  // independent (each branch owns its visited set), so they run as
  // parallel pool tasks sharing only the expansion budget (and, when
  // incumbent pruning is on, the incumbent). Budget pruning alone does
  // not depend on exploration order, so with pruning off the branch
  // partition does not change which paths are explored; a truncated
  // search explores whichever prefix of the work the scheduler reached,
  // so its result (like any anytime cutoff) can vary run to run.
  std::vector<EdgeId> roots;
  for (EdgeId e : graph_.OutEdges(from)) {
    const roadnet::Edge& edge = graph_.edge(e);
    if (edge.to == from) continue;
    if (search_bound[edge.to] == roadnet::kInfCost) continue;
    roots.push_back(e);
  }
  if (prune.cheap_first) {
    std::stable_sort(roots.begin(), roots.end(), [&](EdgeId a, EdgeId b) {
      return search_bound[graph_.edge(a).to] <
             search_bound[graph_.edge(b).to];
    });
  }

  // Clamp the reservation stride so small expansion caps still truncate
  // at (not far past) the cap; total consumable slots across branches is
  // exactly max_expansions either way.
  const size_t stride = std::max<size_t>(
      1, std::min(kExpansionStride, config_.max_expansions / 8 + 1));

  SharedSearch shared;
  shared.cancel = cancel;
  std::vector<RouteResult> branch_results(roots.size());
  auto run_branch = [&](size_t i) {
    const EdgeId e = roots[i];
    const roadnet::Edge& edge = graph_.edge(e);
    IncrementalEstimator estimator(view_, estimate_options_, e,
                                   departure_time);
    ++branch_results[i].estimator_clones;  // the root estimator itself
    if (estimator.MinTotalCost() + search_bound[edge.to] > budget_seconds) {
      ++branch_results[i].bound_pruned;
      return;
    }
    std::vector<bool> visited(graph_.NumVertices(), false);
    visited[from] = true;
    visited[edge.to] = true;
    std::vector<VertexId> path_vertices{from, edge.to};

    ExpansionBudget budget(&shared.expansions, config_.max_expansions, stride);
    std::unique_ptr<DominanceFrontier> frontier;
    if (prune.dominance) {
      frontier = std::make_unique<DominanceFrontier>(kDominanceFrontierSize);
    }

    SearchContext ctx;
    ctx.graph = &graph_;
    ctx.config = &config_;
    ctx.prune = &prune;
    ctx.lower_bound = &search_bound;
    ctx.destination = to;
    ctx.budget = budget_seconds;
    ctx.shared = &shared;
    ctx.result = &branch_results[i];
    ctx.visited = &visited;
    ctx.budget_counter = &budget;
    ctx.frontier = frontier.get();
    ctx.path_vertices = &path_vertices;
    Dfs(&ctx, estimator, edge.to, 1);
    branch_results[i].expansions = budget.consumed();
  };
  if (config_.pool != nullptr) {
    config_.pool->ParallelFor(roots.size(), run_branch);
  } else {
    for (size_t i = 0; i < roots.size(); ++i) run_branch(i);
  }

  // A cancelled search unwinds with the token's Status — an anytime cutoff
  // would otherwise return whichever partial best the scheduler happened to
  // reach, which the deadline contract forbids.
  if (shared.cancelled.load(std::memory_order_relaxed) ||
      CancelToken::Check(cancel)) {
    return CancelToken::StatusOf(cancel);
  }

  // Merge in root-edge order, so for non-truncated searches ties resolve
  // exactly as the sequential search did regardless of thread scheduling.
  RouteResult result;
  size_t total_expansions = 0;
  for (const RouteResult& br : branch_results) {
    total_expansions += br.expansions;
    result.candidate_paths += br.candidate_paths;
    result.bound_pruned += br.bound_pruned;
    result.incumbent_pruned += br.incumbent_pruned;
    result.dominance_pruned += br.dominance_pruned;
    result.estimator_clones += br.estimator_clones;
    if (br.best_probability > result.best_probability) {
      result.best_probability = br.best_probability;
      result.best_path = br.best_path;
    }
  }
  // Per-branch consumed() never double-counts reserved-but-unused slots,
  // so the sum is the true expansion tally; clamp anyway so the old
  // invariant expansions <= max_expansions holds for callers.
  result.expansions = std::min(total_expansions, config_.max_expansions);
  result.truncated = shared.truncated.load(std::memory_order_relaxed);

  if (result.best_path.empty()) {
    return Status::NotFound("Route: no path within budget found");
  }
  return result;
}

}  // namespace routing
}  // namespace pcde
