// Tests for the DFS stochastic router (Sec. 4.3 / Fig. 18): probability
// maximization under a travel-time budget, risk-aware path choice (the
// Fig. 1(a) scenario), pruning, the completion bounds on one-way graphs,
// estimator interchangeability, and the parallel root fan-out on a
// caller-owned pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "baselines/methods.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/instantiation.h"
#include "hist/histogram_nd.h"
#include "one_way_graph.h"
#include "roadnet/components.h"
#include "roadnet/generators.h"
#include "routing/stochastic_router.h"
#include "traj/store.h"

namespace pcde {
namespace routing {
namespace {

using core::EstimateOptions;
using core::InstantiatedVariable;
using core::PathWeightFunction;
using core::TimeBinning;
using hist::Histogram1D;
using hist::HistogramND;
using roadnet::EdgeId;
using roadnet::Graph;
using roadnet::Path;
using roadnet::VertexId;

/// The Fig. 1(a) scenario as a diamond graph:
///   s -> m1 -> t  ("P1", reliable: 48..56 min total)
///   s -> m2 -> t  ("P2", risky: usually 40..55, sometimes 65..80)
struct DiamondFixture {
  Graph g;
  VertexId s, m1, m2, t;
  EdgeId p1a, p1b, p2a, p2b;
  PathWeightFunction wp;

  DiamondFixture() : wp(BuildModel()) {}

 private:
  PathWeightFunction BuildModel() {
    s = g.AddVertex(0, 0);
    m1 = g.AddVertex(1000, 500);
    m2 = g.AddVertex(1000, -500);
    t = g.AddVertex(2000, 0);
    p1a = g.AddEdge(s, m1, 1200, 13.9).value();
    p1b = g.AddEdge(m1, t, 1200, 13.9).value();
    p2a = g.AddEdge(s, m2, 1200, 13.9).value();
    p2b = g.AddEdge(m2, t, 1200, 13.9).value();

    core::WeightFunctionBuilder builder{TimeBinning(30.0)};
    auto add_unit = [&](EdgeId e, Histogram1D h) {
      InstantiatedVariable v;
      v.path = Path({e});
      v.interval = core::kAllDayInterval;  // valid at any departure
      v.joint = HistogramND::FromHistogram1D(std::move(h));
      v.support = 0;
      v.from_speed_limit = true;
      builder.Add(std::move(v));
    };
    // P1 edges: 24..28 min each (reliable).
    const Histogram1D reliable =
        Histogram1D::Make({{24 * 60.0, 28 * 60.0, 1.0}}).value();
    add_unit(p1a, reliable);
    add_unit(p1b, reliable);
    // P2 edges: 90%: 20..27.5 min, 10%: 32.5..40 min.
    const Histogram1D risky =
        Histogram1D::Make({{20 * 60.0, 27.5 * 60.0, 0.9},
                           {32.5 * 60.0, 40 * 60.0, 0.1}})
            .value();
    add_unit(p2a, risky);
    add_unit(p2b, risky);
    return std::move(builder).Freeze();
  }
};

TEST(RouterTest, PrefersReliablePathUnderTightBudget) {
  DiamondFixture f;
  DfsStochasticRouter router(f.g, f.wp, EstimateOptions());
  // 60-minute budget: P1 always makes it; P2 misses when a slow mode hits.
  auto result = router.Route(f.s, f.t, 8 * 3600.0, 60 * 60.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().best_path, Path({f.p1a, f.p1b}));
  EXPECT_NEAR(result.value().best_probability, 1.0, 1e-9);
  EXPECT_EQ(result.value().candidate_paths, 2u);
}

TEST(RouterTest, PrefersFastPathUnderLooseRiskTradeoff) {
  DiamondFixture f;
  DfsStochasticRouter router(f.g, f.wp, EstimateOptions());
  // 50-minute budget: P1 can NEVER make it (min 48·… wait: P1 total is
  // 48..56 min, so P(<=50) ~ 0.2-ish); P2 makes it with ~0.81 when both
  // edges stay in the fast mode and partial credit otherwise.
  auto result = router.Route(f.s, f.t, 8 * 3600.0, 50 * 60.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().best_path, Path({f.p2a, f.p2b}));
  EXPECT_GT(result.value().best_probability, 0.5);
}

TEST(RouterTest, InfeasibleBudgetIsNotFound) {
  DiamondFixture f;
  DfsStochasticRouter router(f.g, f.wp, EstimateOptions());
  auto result = router.Route(f.s, f.t, 8 * 3600.0, 10 * 60.0);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RouterTest, UnreachableDestination) {
  DiamondFixture f;
  const VertexId lonely = f.g.AddVertex(9999, 9999);
  DfsStochasticRouter router(f.g, f.wp, EstimateOptions());
  EXPECT_FALSE(router.Route(f.s, lonely, 0.0, 3600.0).ok());
}

TEST(RouterTest, TrivialAndInvalidQueries) {
  DiamondFixture f;
  DfsStochasticRouter router(f.g, f.wp, EstimateOptions());
  EXPECT_FALSE(router.Route(f.s, f.s, 0.0, 3600.0).ok());
  EXPECT_FALSE(router.Route(999, f.t, 0.0, 3600.0).ok());
}

TEST(RouterTest, ProbabilityMonotoneInBudget) {
  DiamondFixture f;
  DfsStochasticRouter router(f.g, f.wp, EstimateOptions());
  double prev = 0.0;
  for (double budget_min : {52.0, 55.0, 58.0, 62.0}) {
    auto result = router.Route(f.s, f.t, 8 * 3600.0, budget_min * 60.0);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result.value().best_probability, prev - 1e-9);
    prev = result.value().best_probability;
  }
}

/// A one-way graph for the completion-bound contract (free-flow seconds
/// on each edge, every unit variable spanning [1, 1.2] x free flow):
///   s -100-> a -100-> t    the route
///   a -50-> d              one-way spur: d is a dead end, cannot reach t
///   s -50-> c, a -50-> c   c reaches t only through b,
///   c -100-> b -400-> t    whose long edge puts both beyond the budget
/// Under a 260 s budget the DFS expands a, meets d (skipped: cannot reach
/// t) and c (bound-pruned), and prunes the root s -> c at its first bound
/// check.
struct SpurFixture {
  Graph g;
  VertexId s, a, t, d, c, b;
  EdgeId sa, at;
  PathWeightFunction wp;

  SpurFixture() : wp(BuildModel()) {}

 private:
  PathWeightFunction BuildModel() {
    s = g.AddVertex(0, 0);
    a = g.AddVertex(1000, 0);
    t = g.AddVertex(2000, 0);
    d = g.AddVertex(1000, 500);
    c = g.AddVertex(500, -500);
    b = g.AddVertex(1500, -500);
    core::WeightFunctionBuilder builder{TimeBinning(30.0)};
    auto connect = [&](VertexId from, VertexId to, double length_m) {
      const EdgeId e = g.AddEdge(from, to, length_m, 10.0).value();
      const double free_flow = length_m / 10.0;
      InstantiatedVariable v;
      v.path = Path({e});
      v.interval = core::kAllDayInterval;
      v.joint = HistogramND::FromHistogram1D(
          Histogram1D::Make({{free_flow, 1.2 * free_flow, 1.0}}).value());
      v.from_speed_limit = true;
      builder.Add(std::move(v));
      return e;
    };
    sa = connect(s, a, 1000);
    at = connect(a, t, 1000);
    connect(a, d, 500);
    connect(a, c, 500);
    connect(s, c, 500);
    connect(c, b, 1000);
    connect(b, t, 4000);
    return std::move(builder).Freeze();
  }
};

TEST(RouterBoundTest, SpurCountersAndNotFoundMessagesAreExact) {
  SpurFixture f;
  RouterConfig plain;
  RouterConfig pruned;
  pruned.pruning.incumbent = true;
  pruned.pruning.dominance = true;
  pruned.pruning.cheap_first = true;
  for (const RouterConfig& config : {plain, pruned}) {
    SCOPED_TRACE(config.pruning.incumbent ? "all pruners" : "no pruners");
    DfsStochasticRouter router(f.g, f.wp, EstimateOptions(), config);
    auto result = router.Route(f.s, f.t, 8 * 3600.0, 260.0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const RouteResult& r = result.value();
    EXPECT_EQ(r.best_path, Path({f.sa, f.at}));
    EXPECT_EQ(r.best_probability, 1.0);
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.expansions, 2u);       // a, then t
    EXPECT_EQ(r.candidate_paths, 1u);
    EXPECT_EQ(r.bound_pruned, 2u);     // root s -> c, then a -> c
    EXPECT_EQ(r.estimator_clones, 3u); // both roots, then a -> t
    EXPECT_EQ(r.incumbent_pruned, 0u);
    EXPECT_EQ(r.dominance_pruned, 0u);

    auto dead_end = router.Route(f.d, f.t, 8 * 3600.0, 260.0);
    EXPECT_EQ(dead_end.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(dead_end.status().message(), "Route: destination unreachable");
    auto beyond = router.Route(f.c, f.t, 8 * 3600.0, 260.0);
    EXPECT_EQ(beyond.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(beyond.status().message(),
              "Route: budget infeasible even at free flow");
  }
}

TEST(RouterBoundTest, NonFiniteBudgetOrDepartureIsInvalid) {
  SpurFixture f;
  DfsStochasticRouter router(f.g, f.wp, EstimateOptions());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double budget : {nan, inf, -inf}) {
    EXPECT_EQ(router.Route(f.s, f.t, 8 * 3600.0, budget).status().code(),
              StatusCode::kInvalidArgument)
        << budget;
  }
  for (double departure : {nan, inf, -inf}) {
    EXPECT_EQ(router.Route(f.s, f.t, departure, 260.0).status().code(),
              StatusCode::kInvalidArgument)
        << departure;
  }
}

/// Unit variables spanning [1, 1.2] x free flow on every edge of `g`, so the
/// lower-bound oracle's weight is the free-flow time, above the free-flow
/// bound's 0.8 x free flow.
PathWeightFunction FreeFlowModel(const Graph& g) {
  core::WeightFunctionBuilder builder{TimeBinning(30.0)};
  for (const roadnet::Edge& e : g.edges()) {
    const double free_flow = e.FreeFlowSeconds();
    InstantiatedVariable v;
    v.path = Path({e.id});
    v.interval = core::kAllDayInterval;
    v.joint = HistogramND::FromHistogram1D(
        Histogram1D::Make({{free_flow, 1.2 * free_flow, 1.0}}).value());
    v.from_speed_limit = true;
    builder.Add(std::move(v));
  }
  return std::move(builder).Freeze();
}

TEST(RouterBoundTest, CompletionBoundsMatchTheFullTreeAndReachability) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Graph g = roadnet::MakeOneWayGraph(seed);
    const roadnet::StronglyConnectedComponents components(g);
    ASSERT_GT(components.NumComponents(), 1u);
    Rng rng(seed);
    std::vector<double> scale(g.NumEdges());
    for (double& s : scale) s = rng.Uniform(0.8, 1.5);
    const roadnet::EdgeWeightFn weights[] = {
        [](const roadnet::Edge& e) { return e.FreeFlowSeconds() * 0.8; },
        [&scale](const roadnet::Edge& e) {
          return e.FreeFlowSeconds() * scale[e.id];
        }};
    size_t beyond_reachable = 0;
    size_t beyond_unreachable = 0;
    for (const roadnet::EdgeWeightFn& weight : weights) {
      for (VertexId to = 0; to < g.NumVertices(); ++to) {
        const std::vector<double> full =
            roadnet::ReverseShortestPathTree(g, to, weight);
        const std::vector<bool> reach = roadnet::CanReach(g, to);
        for (double budget : {-1.0, 0.0, 20.0, 60.0, 150.0, 400.0, 1e6}) {
          const std::vector<double> bound =
              CompletionBound(g, components, to, weight, budget);
          ASSERT_EQ(bound.size(), full.size());
          for (VertexId v = 0; v < g.NumVertices(); ++v) {
            if (full[v] <= budget || bound[v] <= budget) {
              EXPECT_EQ(bound[v], full[v])
                  << "vertex " << v << " to " << to << " budget " << budget;
              continue;
            }
            EXPECT_GT(bound[v], budget) << "vertex " << v << " to " << to;
            EXPECT_LE(bound[v], full[v]) << "vertex " << v << " to " << to;
            EXPECT_EQ(bound[v] != roadnet::kInfCost, reach[v])
                << "vertex " << v << " to " << to << " budget " << budget;
            ++(reach[v] ? beyond_reachable : beyond_unreachable);
          }
        }
      }
    }
    EXPECT_GT(beyond_reachable, 0u);
    EXPECT_GT(beyond_unreachable, 0u);
  }
}

/// Every route of a one-way graph, plain and with all pruners, against
/// reference searches: "destination unreachable" exactly where
/// breadth-first search finds no path, "budget infeasible" exactly where
/// the full free-flow tree puts the origin beyond the budget, and
/// otherwise the same answer from both searches. At 0.9 x the free-flow
/// time the oracle leaves the origin beyond the budget while the free-flow
/// bound does not, so the pruned search falls back to the free-flow tree.
TEST(RouterBoundTest, OneWayRoutesMatchTheReference) {
  RouterConfig pruned;
  pruned.pruning.incumbent = true;
  pruned.pruning.dominance = true;
  pruned.pruning.cheap_first = true;
  const PruningOptions plain;
  const auto free_flow_bound = [](const roadnet::Edge& e) {
    return e.FreeFlowSeconds() * 0.8;
  };
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Graph g = roadnet::MakeOneWayGraph(seed);
    const PathWeightFunction wp = FreeFlowModel(g);
    const DfsStochasticRouter router(g, wp, EstimateOptions(), pruned);
    size_t unreachable = 0;
    size_t infeasible = 0;
    size_t oracle_beyond = 0;
    size_t routed = 0;
    for (VertexId to = 0; to < g.NumVertices(); ++to) {
      const std::vector<bool> reach = roadnet::CanReach(g, to);
      const std::vector<double> lower =
          roadnet::ReverseShortestPathTree(g, to, free_flow_bound);
      const std::vector<double> free_flow =
          roadnet::ReverseShortestPathTree(g, to, roadnet::FreeFlowWeight(g));
      for (VertexId from = 0; from < g.NumVertices(); ++from) {
        if (from == to) continue;
        for (double factor : {0.7, 0.9, 1.1, 1.3}) {
          // An unreachable pair gets a budget that stops most searches
          // early, so "unreachable" rests on the components.
          const double budget =
              (reach[from] ? free_flow[from] : 100.0) * factor;
          SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to) +
                       " at " + std::to_string(factor));
          auto with_pruners = router.Route(from, to, 8 * 3600.0, budget);
          auto without = router.Route(from, to, 8 * 3600.0, budget, nullptr,
                                      &plain);
          ASSERT_EQ(with_pruners.status().ToString(),
                    without.status().ToString());
          if (!reach[from]) {
            EXPECT_EQ(without.status().message(),
                      "Route: destination unreachable");
            ++unreachable;
          } else if (lower[from] > budget) {
            EXPECT_EQ(without.status().message(),
                      "Route: budget infeasible even at free flow");
            ++infeasible;
          } else {
            if (free_flow[from] > budget) ++oracle_beyond;
            if (!without.ok()) {
              EXPECT_EQ(without.status().message(),
                        "Route: no path within budget found");
              continue;
            }
            EXPECT_EQ(with_pruners->best_probability,
                      without->best_probability);
            EXPECT_TRUE(
                roadnet::ValidatePath(g, with_pruners->best_path.edges())
                    .ok());
            ++routed;
          }
        }
      }
    }
    EXPECT_GT(unreachable, 0u);
    EXPECT_GT(infeasible, 0u);
    EXPECT_GT(oracle_beyond, 0u);
    EXPECT_GT(routed, 0u);
  }
}

/// A 12-edge line v0 -> v12, every edge [10, 20) s in two buckets, with a
/// unit variable per edge, a correlated pair variable per adjacent pair,
/// and one all-day variable over the last `rank` edges. A part longer than
/// the estimator's streaming horizon (8) absorbs parts the incremental
/// estimator has already streamed.
struct LongVariableLine {
  Graph g;
  std::vector<EdgeId> edges;
  PathWeightFunction wp;

  explicit LongVariableLine(size_t rank) : wp(BuildModel(rank)) {}

 private:
  PathWeightFunction BuildModel(size_t rank) {
    VertexId prev = g.AddVertex(0, 0);
    for (int k = 0; k < 12; ++k) {
      const VertexId next = g.AddVertex(150.0 * (k + 1), 0);
      edges.push_back(g.AddEdge(prev, next, 150.0, 10.0).value());
      prev = next;
    }
    core::WeightFunctionBuilder builder{TimeBinning(30.0)};
    // Cell weights over `dims` two-bucket dimensions, never zero, so every
    // separator cell keeps mass, and unequal, so conditioning matters.
    auto add = [&](size_t start, size_t dims) {
      std::vector<HistogramND::HyperBucket> cells;
      double total = 0.0;
      for (uint32_t bits = 0; bits < (1u << dims); ++bits) {
        HistogramND::HyperBucket cell;
        for (size_t d = 0; d < dims; ++d) cell.idx.push_back((bits >> d) & 1);
        cell.prob = 1.0 + __builtin_popcount(bits ^ (bits >> 1)) +
                    (bits & 1 ? 0.5 : 0.0);
        total += cell.prob;
        cells.push_back(std::move(cell));
      }
      for (HistogramND::HyperBucket& cell : cells) cell.prob /= total;
      InstantiatedVariable v;
      v.path = Path(std::vector<EdgeId>(edges.begin() + start,
                                        edges.begin() + start + dims));
      v.interval = core::kAllDayInterval;
      v.joint = HistogramND::Make(std::vector<std::vector<double>>(
                                      dims, std::vector<double>{10, 15, 20}),
                                  std::move(cells))
                    .value();
      builder.Add(std::move(v));
    };
    for (size_t k = 0; k < 12; ++k) add(k, 1);
    for (size_t k = 0; k + 1 < 12; ++k) add(k, 2);
    add(12 - rank, rank);  // replaces the last pair when rank == 2
    return std::move(builder).Freeze();
  }
};

TEST(RouterLongVariableTest, IncrementalAndRoutedAnswersMatchTheBatchEstimate) {
  for (size_t rank : {2, 8, 9, 10, 11, 12}) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    LongVariableLine f(rank);
    const double depart = 8 * 3600.0;
    auto expected = core::HybridEstimator(f.wp).EstimateCostDistribution(
        Path(f.edges), depart);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    core::IncrementalEstimator incremental(f.wp, EstimateOptions(),
                                           f.edges[0], depart);
    for (size_t k = 1; k < f.edges.size(); ++k) {
      ASSERT_TRUE(incremental.ExtendByEdge(f.edges[k]).ok());
    }
    auto streamed = incremental.CurrentDistribution();
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    const Histogram1D& got = streamed.value();
    const Histogram1D& want = expected.value();
    EXPECT_EQ(got.NumBuckets(), want.NumBuckets());
    for (size_t b = 0; b < std::min(got.NumBuckets(), want.NumBuckets()); ++b) {
      EXPECT_EQ(got.bucket(b).range, want.bucket(b).range);
      EXPECT_EQ(got.bucket(b).prob, want.bucket(b).prob);
    }
    EXPECT_EQ(want.Min(), 120.0);
    EXPECT_EQ(want.Max(), 240.0);

    RouterConfig pruned;
    pruned.pruning.incumbent = true;
    pruned.pruning.dominance = true;
    pruned.pruning.cheap_first = true;
    for (const RouterConfig& config : {RouterConfig(), pruned}) {
      DfsStochasticRouter router(f.g, f.wp, EstimateOptions(), config);
      auto routed = router.Route(f.g.edge(f.edges.front()).from,
                                 f.g.edge(f.edges.back()).to, depart, 170.0);
      ASSERT_TRUE(routed.ok()) << routed.status().ToString();
      EXPECT_EQ(routed.value().best_path, Path(f.edges));
      EXPECT_EQ(routed.value().best_probability, want.ProbWithin(170.0));
    }
  }
}

// On a real city with speed-limit fallbacks only, the router must find
// budget-feasible paths and pruning must keep the search bounded.
class CityRoutingTest : public ::testing::Test {
 protected:
  CityRoutingTest()
      : graph_(roadnet::MakeCity(roadnet::CityAConfig())),
        wp_(core::InstantiateWeightFunction(graph_, traj::TrajectoryStore(),
                                            core::HybridParams())) {}
  Graph graph_;
  PathWeightFunction wp_;
};

TEST_F(CityRoutingTest, FindsPathWithinGenerousBudget) {
  DfsStochasticRouter router(graph_, wp_, EstimateOptions());
  const VertexId from = 0;
  const VertexId to = 30;
  const double min_time =
      roadnet::ShortestPathCost(graph_, from, to, roadnet::FreeFlowWeight(graph_));
  ASSERT_LT(min_time, roadnet::kInfCost);
  auto result = router.Route(from, to, 8 * 3600.0, min_time * 1.3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().best_probability, 0.0);
  EXPECT_FALSE(result.value().best_path.empty());
  EXPECT_TRUE(roadnet::ValidatePath(graph_, result.value().best_path.edges()).ok());
}

TEST_F(CityRoutingTest, TighterBudgetPrunesHarder) {
  DfsStochasticRouter router(graph_, wp_, EstimateOptions());
  const VertexId from = 0;
  const VertexId to = 60;
  const double min_time =
      roadnet::ShortestPathCost(graph_, from, to, roadnet::FreeFlowWeight(graph_));
  auto tight = router.Route(from, to, 8 * 3600.0, min_time * 1.1);
  auto loose = router.Route(from, to, 8 * 3600.0, min_time * 1.6);
  ASSERT_TRUE(tight.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_LT(tight.value().expansions, loose.value().expansions);
}

TEST_F(CityRoutingTest, ExpansionCapTruncatesGracefully) {
  RouterConfig config;
  config.max_expansions = 50;
  DfsStochasticRouter router(graph_, wp_, EstimateOptions(), config);
  const VertexId from = 0;
  const VertexId to = static_cast<VertexId>(graph_.NumVertices() - 1);
  const double min_time =
      roadnet::ShortestPathCost(graph_, from, to, roadnet::FreeFlowWeight(graph_));
  auto result = router.Route(from, to, 8 * 3600.0, min_time * 2.0);
  // Either a (possibly suboptimal) path was found before the cap, or the
  // cap fired without a result; both must be reported coherently.
  if (result.ok()) {
    EXPECT_LE(result.value().expansions, 50u);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  }
}

TEST_F(CityRoutingTest, EstimatorPoliciesInterchangeable) {
  const VertexId from = 5;
  const VertexId to = 40;
  const double min_time =
      roadnet::ShortestPathCost(graph_, from, to, roadnet::FreeFlowWeight(graph_));
  for (auto policy :
       {core::DecompositionPolicy::kCoarsest, core::DecompositionPolicy::kUnit,
        core::DecompositionPolicy::kPairwise}) {
    EstimateOptions options;
    options.policy = policy;
    options.rank_cap =
        policy == core::DecompositionPolicy::kUnit
            ? 1
            : (policy == core::DecompositionPolicy::kPairwise ? 2 : 0);
    DfsStochasticRouter router(graph_, wp_, options);
    auto result = router.Route(from, to, 8 * 3600.0, min_time * 1.25);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result.value().best_probability, 0.0);
  }
}

/// A 4x4 grid with per-edge unit variables, every edge pointing right or
/// down: the corner source has two out-edges, so the root fan-out runs
/// two independent branches.
struct GridFixture {
  static constexpr int kSide = 4;
  Graph g;
  std::vector<VertexId> v;
  PathWeightFunction wp;

  GridFixture() : wp(BuildModel()) {}

 private:
  PathWeightFunction BuildModel() {
    for (int i = 0; i < kSide; ++i) {
      for (int j = 0; j < kSide; ++j) {
        v.push_back(g.AddVertex(1000.0 * i, 1000.0 * j));
      }
    }
    Rng rng(11);
    core::WeightFunctionBuilder wp_builder{TimeBinning(30.0)};
    auto connect = [&](VertexId a, VertexId b) {
      const EdgeId e = g.AddEdge(a, b, 1000.0, 13.9).value();
      const double fast = rng.Uniform(60.0, 90.0);
      InstantiatedVariable var;
      var.path = Path({e});
      var.interval = core::kAllDayInterval;
      var.joint = HistogramND::FromHistogram1D(
          Histogram1D::Make({{fast, fast + 30.0, 0.8},
                             {fast + 60.0, fast + 120.0, 0.2}})
              .value());
      var.from_speed_limit = true;
      wp_builder.Add(std::move(var));
    };
    for (int i = 0; i < kSide; ++i) {
      for (int j = 0; j < kSide; ++j) {
        if (i + 1 < kSide) connect(v[i * kSide + j], v[(i + 1) * kSide + j]);
        if (j + 1 < kSide) connect(v[i * kSide + j], v[i * kSide + j + 1]);
      }
    }
    return std::move(wp_builder).Freeze();
  }
};

TEST(ParallelRoutingTest, RootFanOutMatchesSingleThreaded) {
  // The merged result must match the single-threaded run exactly (pruning
  // is budget-driven, so the branch partition cannot change the answer).
  const GridFixture f;
  ThreadPool pool(4);
  RouterConfig parallel;
  parallel.pool = &pool;
  const DfsStochasticRouter router_seq(f.g, f.wp, EstimateOptions());
  const DfsStochasticRouter router_par(f.g, f.wp, EstimateOptions(), parallel);
  size_t compared = 0;
  for (double budget_s : {500.0, 700.0, 900.0, 1200.0}) {
    auto seq =
        router_seq.Route(f.v.front(), f.v.back(), 8 * 3600.0, budget_s);
    auto par =
        router_par.Route(f.v.front(), f.v.back(), 8 * 3600.0, budget_s);
    ASSERT_EQ(seq.ok(), par.ok()) << budget_s;
    if (!seq.ok()) continue;
    EXPECT_FALSE(seq.value().truncated);
    EXPECT_FALSE(par.value().truncated);
    EXPECT_DOUBLE_EQ(seq.value().best_probability,
                     par.value().best_probability)
        << budget_s;
    EXPECT_EQ(seq.value().best_path.edges(), par.value().best_path.edges())
        << budget_s;
    EXPECT_EQ(seq.value().candidate_paths, par.value().candidate_paths)
        << budget_s;
    EXPECT_EQ(seq.value().expansions, par.value().expansions) << budget_s;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

TEST(ParallelRoutingTest, FirstRoutesOfAFreshRouterAgreeAcrossThreads) {
  // The router computes the graph's components on its first Route: four
  // threads that make the first calls of a fresh router at once, on its
  // pool, must all get the sequential answer (and run clean under TSan).
  const GridFixture f;
  const double budget = 900.0;
  const DfsStochasticRouter sequential(f.g, f.wp, EstimateOptions());
  const auto want = sequential.Route(f.v.front(), f.v.back(), 8 * 3600.0,
                                     budget);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ThreadPool pool(4);
  RouterConfig config;
  config.pool = &pool;
  config.pruning.incumbent = true;
  for (int round = 0; round < 8; ++round) {
    const DfsStochasticRouter router(f.g, f.wp, EstimateOptions(), config);
    constexpr int kCallers = 4;
    std::atomic<int> ready{0};
    std::vector<StatusOr<RouteResult>> got(
        kCallers, Status::Internal("route not run"));
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        ready.fetch_add(1);
        while (ready.load() < kCallers) std::this_thread::yield();
        got[c] = router.Route(f.v.front(), f.v.back(), 8 * 3600.0, budget);
      });
    }
    for (std::thread& t : callers) t.join();
    for (int c = 0; c < kCallers; ++c) {
      ASSERT_TRUE(got[c].ok()) << got[c].status().ToString();
      EXPECT_EQ(got[c]->best_probability, want->best_probability);
      EXPECT_EQ(got[c]->best_path.edges(), want->best_path.edges());
      EXPECT_FALSE(got[c]->truncated);
    }
  }
}

}  // namespace
}  // namespace routing
}  // namespace pcde
