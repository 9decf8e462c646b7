// Tests for the opt-in DFS pruners (routing/pruning.h, routing/frontier.h):
// quality parity with the plain search (exact, per the sequential
// determinism contract), per-pruner counters, expansion-budget
// truncation, dominance machinery, and the serving::Engine surface.
#include <gtest/gtest.h>

#include <vector>

#include "common/cancel_token.h"
#include "common/thread_pool.h"
#include "core/instantiation.h"
#include "hist/histogram_nd.h"
#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"
#include "routing/frontier.h"
#include "routing/stochastic_router.h"
#include "serving/engine.h"
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

// ---------------------------------------------------------------------------
// CdfSketch / DominanceFrontier unit tests.

std::vector<std::pair<double, double>> Points(
    std::initializer_list<std::pair<double, double>> pts) {
  return std::vector<std::pair<double, double>>(pts);
}

TEST(CdfSketchTest, AtIsRightContinuousStepFunction) {
  const CdfSketch s =
      CdfSketch::FromPoints(Points({{10.0, 0.25}, {20.0, 0.75}}), 16, true);
  EXPECT_EQ(s.At(9.0), 0.0);
  EXPECT_EQ(s.At(10.0), 0.25);
  EXPECT_EQ(s.At(19.9), 0.25);
  EXPECT_EQ(s.At(20.0), 1.0);
  EXPECT_EQ(s.At(1e9), 1.0);
}

TEST(CdfSketchTest, CoalescesEqualCosts) {
  const CdfSketch s = CdfSketch::FromPoints(
      Points({{5.0, 0.5}, {5.0, 0.25}, {7.0, 0.25}}), 16, true);
  EXPECT_EQ(s.At(5.0), 0.75);
  EXPECT_EQ(s.At(7.0), 1.0);
}

TEST(CdfSketchTest, CompressionIsDirectionAware) {
  // 100 distinct points squeezed into 4 bins: the optimistic sketch may
  // only move mass to cheaper costs (CDF >= exact), the pessimistic one
  // only to costlier costs (CDF <= exact).
  std::vector<std::pair<double, double>> pts;
  for (int i = 0; i < 100; ++i) {
    pts.emplace_back(100.0 + i, 0.01);
  }
  const CdfSketch opt = CdfSketch::FromPoints(pts, 4, /*round_down=*/true);
  const CdfSketch pes = CdfSketch::FromPoints(pts, 4, /*round_down=*/false);
  for (double x : {100.0, 120.0, 150.0, 180.0, 199.0, 250.0}) {
    double exact = 0.0;
    for (const auto& p : pts) {
      if (p.first <= x) exact += p.second;
    }
    EXPECT_GE(opt.At(x), exact - 1e-12) << "x=" << x;
    EXPECT_LE(pes.At(x), exact + 1e-12) << "x=" << x;
  }
}

TEST(CdfSketchTest, DominatesEverywhere) {
  const CdfSketch fast =
      CdfSketch::FromPoints(Points({{10.0, 1.0}}), 16, false);
  const CdfSketch slow =
      CdfSketch::FromPoints(Points({{20.0, 1.0}}), 16, true);
  const CdfSketch mixed =
      CdfSketch::FromPoints(Points({{5.0, 0.5}, {30.0, 0.5}}), 16, true);
  EXPECT_TRUE(fast.DominatesEverywhere(slow));
  EXPECT_FALSE(slow.DominatesEverywhere(fast));
  // `mixed` is ahead of `fast` below 10 but behind at [10, 30): neither
  // dominates.
  EXPECT_FALSE(fast.DominatesEverywhere(mixed));
  EXPECT_FALSE(mixed.DominatesEverywhere(fast));
  EXPECT_TRUE(fast.DominatesEverywhere(fast));
}

TEST(DominanceFrontierTest, SubsetAndCapSemantics) {
  EXPECT_TRUE(DominanceFrontier::IsSubset({1, 3}, {0, 1, 2, 3}));
  EXPECT_TRUE(DominanceFrontier::IsSubset({}, {0, 1}));
  EXPECT_FALSE(DominanceFrontier::IsSubset({1, 4}, {0, 1, 2, 3}));
  EXPECT_FALSE(DominanceFrontier::IsSubset({0, 1}, {1}));

  DominanceFrontier frontier(1);
  const CdfSketch fast =
      CdfSketch::FromPoints(Points({{10.0, 1.0}}), 16, false);
  const CdfSketch slow =
      CdfSketch::FromPoints(Points({{20.0, 1.0}}), 16, true);
  frontier.Insert(7, fast, {0, 7});
  // Dominated: stored visited {0,7} is a subset and fast dominates slow.
  EXPECT_TRUE(frontier.IsDominated(7, slow, {0, 3, 7}));
  // Different vertex, or visited set missing a stored vertex: no cut.
  EXPECT_FALSE(frontier.IsDominated(8, slow, {0, 3, 8}));
  EXPECT_FALSE(frontier.IsDominated(7, slow, {3, 7}));
  // Cap of 1 reached: further inserts are dropped, lookups still work.
  frontier.Insert(7, fast, {7});
  EXPECT_FALSE(frontier.IsDominated(7, slow, {3, 7}));
}

// ---------------------------------------------------------------------------
// Search-quality parity on a real city graph.

class CityPruningTest : public ::testing::Test {
 protected:
  CityPruningTest()
      : graph_(roadnet::MakeCity(roadnet::CityAConfig())),
        wp_(core::InstantiateWeightFunction(graph_, traj::TrajectoryStore(),
                                            core::HybridParams())) {}

  double MinTime(VertexId from, VertexId to) const {
    return roadnet::ShortestPathCost(graph_, from, to,
                                     roadnet::FreeFlowWeight(graph_));
  }

  Graph graph_;
  PathWeightFunction wp_;
};

PruningOptions AllPruners() {
  PruningOptions p;
  p.incumbent = true;
  p.dominance = true;
  p.cheap_first = true;
  return p;
}

TEST_F(CityPruningTest, EveryPrunerComboMatchesPlainExactly) {
  // Sequential determinism contract: without a pool, any pruner
  // combination returns exactly the same (path, probability) as the plain
  // search — pruned candidates provably cannot beat the final best.
  struct Combo {
    const char* name;
    PruningOptions prune;
  };
  std::vector<Combo> combos;
  combos.push_back({"none", PruningOptions()});
  {
    PruningOptions p;
    p.incumbent = true;
    combos.push_back({"incumbent", p});
  }
  {
    PruningOptions p;
    p.dominance = true;
    combos.push_back({"dominance", p});
  }
  {
    PruningOptions p;
    p.cheap_first = true;
    combos.push_back({"cheap_first", p});
  }
  combos.push_back({"all", AllPruners()});

  const std::vector<std::pair<VertexId, VertexId>> ods = {
      {0, 30}, {5, 40}, {0, 60}};
  for (const auto& od : ods) {
    for (double slack : {1.1, 1.3}) {
      const double budget = MinTime(od.first, od.second) * slack;
      RouterConfig plain_config;
      DfsStochasticRouter plain(graph_, wp_, EstimateOptions(), plain_config);
      auto base = plain.Route(od.first, od.second, 8 * 3600.0, budget);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      ASSERT_FALSE(base.value().truncated);
      for (const Combo& combo : combos) {
        RouterConfig config;
        config.pruning = combo.prune;
        DfsStochasticRouter pruned(graph_, wp_, EstimateOptions(), config);
        auto result = pruned.Route(od.first, od.second, 8 * 3600.0, budget);
        ASSERT_TRUE(result.ok())
            << combo.name << ": " << result.status().ToString();
        SCOPED_TRACE(std::string(combo.name) + " od=" +
                     std::to_string(od.first) + "->" +
                     std::to_string(od.second) + " slack=" +
                     std::to_string(slack));
        EXPECT_GE(result.value().best_probability,
                  base.value().best_probability);
        EXPECT_EQ(result.value().best_probability,
                  base.value().best_probability);
        if (!combo.prune.cheap_first) {
          // Incumbent and dominance cannot cut the optimum, so the exact
          // path survives. Cheap-first reorders exploration, which may
          // resolve an exact probability tie to a different (equally
          // good) path — only the probability is contractual there.
          EXPECT_EQ(result.value().best_path, base.value().best_path);
        } else {
          EXPECT_TRUE(
              roadnet::ValidatePath(graph_, result.value().best_path.edges())
                  .ok());
        }
        // Pruners only ever remove work.
        EXPECT_LE(result.value().expansions, base.value().expansions);
        EXPECT_LE(result.value().estimator_clones,
                  base.value().estimator_clones);
        if (!combo.prune.any()) {
          // Defaults-off config is the plain search bit for bit.
          EXPECT_EQ(result.value().expansions, base.value().expansions);
          EXPECT_EQ(result.value().candidate_paths,
                    base.value().candidate_paths);
          EXPECT_EQ(result.value().estimator_clones,
                    base.value().estimator_clones);
          EXPECT_EQ(result.value().incumbent_pruned, 0u);
          EXPECT_EQ(result.value().dominance_pruned, 0u);
        }
      }
    }
  }
}

TEST_F(CityPruningTest, ParallelPrunedPreservesProbability) {
  const VertexId from = 0;
  const VertexId to = 30;
  const double budget = MinTime(from, to) * 1.3;
  RouterConfig plain_config;
  DfsStochasticRouter plain(graph_, wp_, EstimateOptions(), plain_config);
  auto base = plain.Route(from, to, 8 * 3600.0, budget);
  ASSERT_TRUE(base.ok());

  ThreadPool pool(4);
  RouterConfig config;
  config.pool = &pool;
  config.pruning = AllPruners();
  DfsStochasticRouter pruned(graph_, wp_, EstimateOptions(), config);
  for (int rep = 0; rep < 3; ++rep) {
    auto result = pruned.Route(from, to, 8 * 3600.0, budget);
    ASSERT_TRUE(result.ok());
    // The shared incumbent races across branches, but the probability is
    // preserved exactly (only exact ties may pick another path).
    EXPECT_EQ(result.value().best_probability, base.value().best_probability);
    EXPECT_TRUE(
        roadnet::ValidatePath(graph_, result.value().best_path.edges()).ok());
  }
}

TEST_F(CityPruningTest, TruncationKeepsExpansionInvariant) {
  for (bool with_pruning : {false, true}) {
    RouterConfig config;
    config.max_expansions = 50;
    if (with_pruning) config.pruning = AllPruners();
    DfsStochasticRouter router(graph_, wp_, EstimateOptions(), config);
    const VertexId from = 0;
    const VertexId to = static_cast<VertexId>(graph_.NumVertices() - 1);
    auto result = router.Route(from, to, 8 * 3600.0, MinTime(from, to) * 2.0);
    if (result.ok()) {
      EXPECT_LE(result.value().expansions, 50u);
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
    }
  }
}

TEST_F(CityPruningTest, PruningRespectsCancellationAndDeadlines) {
  RouterConfig config;
  config.pruning = AllPruners();
  DfsStochasticRouter router(graph_, wp_, EstimateOptions(), config);
  const VertexId from = 0;
  const VertexId to = static_cast<VertexId>(graph_.NumVertices() - 1);
  const double budget = MinTime(from, to) * 1.5;

  CancelToken cancelled;
  cancelled.Cancel();
  auto result = router.Route(from, to, 8 * 3600.0, budget, &cancelled);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  CancelToken expired = CancelToken::WithTimeout(1e-9);
  result = router.Route(from, to, 8 * 3600.0, budget, &expired);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Pruner-specific behavior on constructed graphs.

/// Diamond of tests/routing_test.cc: two 2-edge paths s->t, P1 reliable
/// (prob 1 within an hour), P2 risky.
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
      v.interval = core::kAllDayInterval;
      v.joint = HistogramND::FromHistogram1D(std::move(h));
      v.support = 0;
      v.from_speed_limit = true;
      builder.Add(std::move(v));
    };
    const Histogram1D reliable =
        Histogram1D::Make({{24 * 60.0, 28 * 60.0, 1.0}}).value();
    add_unit(p1a, reliable);
    add_unit(p1b, reliable);
    const Histogram1D risky =
        Histogram1D::Make({{20 * 60.0, 27.5 * 60.0, 0.9},
                           {32.5 * 60.0, 40 * 60.0, 0.1}})
            .value();
    add_unit(p2a, risky);
    add_unit(p2b, risky);
    return std::move(builder).Freeze();
  }
};

TEST(IncumbentPruningTest, CutsBranchesThatCannotBeatTheIncumbent) {
  DiamondFixture f;
  RouterConfig plain_config;
  DfsStochasticRouter plain(f.g, f.wp, EstimateOptions(), plain_config);
  auto base = plain.Route(f.s, f.t, 8 * 3600.0, 60 * 60.0);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base.value().candidate_paths, 2u);

  RouterConfig config;
  config.pruning.incumbent = true;
  DfsStochasticRouter pruned(f.g, f.wp, EstimateOptions(), config);
  // P1 (prob 1.0 within the hour) is found first; the P2 branch can then
  // never strictly beat the incumbent and must be cut without evaluating
  // its distribution.
  auto result = pruned.Route(f.s, f.t, 8 * 3600.0, 60 * 60.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().best_path, base.value().best_path);
  EXPECT_EQ(result.value().best_probability, base.value().best_probability);
  EXPECT_GE(result.value().incumbent_pruned, 1u);
  EXPECT_LT(result.value().candidate_paths, base.value().candidate_paths);
  EXPECT_LT(result.value().estimator_clones, base.value().estimator_clones);
}

/// Chain s->x->v->t with a strictly worse detour x->a->v: the detour
/// prefix reaches v with a visited superset and a dominated CDF, so the
/// dominance pruner must cut it before it spawns the v->t subtree.
struct DetourFixture {
  Graph g;
  VertexId s, x, a, v, t;
  EdgeId sx, xv, xa, av, vt;
  PathWeightFunction wp;

  DetourFixture() : wp(BuildModel()) {}

 private:
  PathWeightFunction BuildModel() {
    s = g.AddVertex(0, 0);
    x = g.AddVertex(1000, 0);
    a = g.AddVertex(1500, 800);
    v = g.AddVertex(2000, 0);
    t = g.AddVertex(3000, 0);
    sx = g.AddEdge(s, x, 1200, 13.9).value();
    xv = g.AddEdge(x, v, 1200, 13.9).value();  // direct, cheap
    xa = g.AddEdge(x, a, 1200, 13.9).value();  // detour, expensive
    av = g.AddEdge(a, v, 1200, 13.9).value();
    vt = g.AddEdge(v, t, 1200, 13.9).value();

    core::WeightFunctionBuilder builder{TimeBinning(30.0)};
    auto add_unit = [&](EdgeId e, double lo, double hi) {
      InstantiatedVariable var;
      var.path = Path({e});
      var.interval = core::kAllDayInterval;
      var.joint = HistogramND::FromHistogram1D(
          Histogram1D::Make({{lo, hi, 1.0}}).value());
      var.support = 0;
      var.from_speed_limit = true;
      builder.Add(std::move(var));
    };
    add_unit(sx, 100.0, 110.0);
    add_unit(xv, 100.0, 110.0);
    add_unit(xa, 200.0, 220.0);
    add_unit(av, 200.0, 220.0);
    add_unit(vt, 100.0, 110.0);
    return std::move(builder).Freeze();
  }
};

TEST(DominancePruningTest, CutsDominatedDetourPrefix) {
  DetourFixture f;
  RouterConfig plain_config;
  DfsStochasticRouter plain(f.g, f.wp, EstimateOptions(), plain_config);
  auto base = plain.Route(f.s, f.t, 8 * 3600.0, 2000.0);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base.value().candidate_paths, 2u);  // direct + detour

  RouterConfig config;
  config.pruning.dominance = true;
  DfsStochasticRouter pruned(f.g, f.wp, EstimateOptions(), config);
  auto result = pruned.Route(f.s, f.t, 8 * 3600.0, 2000.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().best_path, base.value().best_path);
  EXPECT_EQ(result.value().best_probability, base.value().best_probability);
  EXPECT_GE(result.value().dominance_pruned, 1u);
  EXPECT_LT(result.value().candidate_paths, base.value().candidate_paths);
}

// ---------------------------------------------------------------------------
// serving::Engine surface: knobs, response counters, stats accumulation,
// per-request override.

TEST(EnginePruningTest, CountersFlowThroughResponsesAndStats) {
  Graph graph = roadnet::MakeCity(roadnet::CityAConfig());
  PathWeightFunction model = core::InstantiateWeightFunction(
      graph, traj::TrajectoryStore(), core::HybridParams());
  serving::EngineOptions options;
  options.graph = &graph;
  options.num_threads = 1;
  options.query_cache_bytes = 0;
  auto engine = serving::Engine::Open(std::move(model), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  serving::RouteRequest request;
  request.from = 0;
  request.to = 30;
  request.departure_time = 8 * 3600.0;
  request.budget_seconds =
      roadnet::ShortestPathCost(graph, 0, 30, roadnet::FreeFlowWeight(graph)) *
      1.3;

  // Engine-level pruning is off: a plain route, with attribution counters
  // still populated (bound pruning and clone counting are always active).
  auto plain = engine.value()->Route(request);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_GE(plain.value().estimator_clones, 1u);
  EXPECT_EQ(plain.value().incumbent_pruned, 0u);
  EXPECT_EQ(plain.value().dominance_pruned, 0u);

  // Per-request override turns every pruner on: same answer, fewer clones.
  serving::RouteRequest pruned_request = request;
  pruned_request.use_pruning_override = true;
  pruned_request.pruning = AllPruners();
  auto pruned = engine.value()->Route(pruned_request);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned.value().on_time_probability,
            plain.value().on_time_probability);
  EXPECT_LE(pruned.value().estimator_clones, plain.value().estimator_clones);

  const serving::EngineStats stats = engine.value()->stats();
  EXPECT_EQ(stats.route_bound_pruned,
            plain.value().bound_pruned + pruned.value().bound_pruned);
  EXPECT_EQ(stats.route_incumbent_pruned,
            plain.value().incumbent_pruned + pruned.value().incumbent_pruned);
  EXPECT_EQ(stats.route_dominance_pruned,
            plain.value().dominance_pruned + pruned.value().dominance_pruned);
  EXPECT_EQ(stats.route_estimator_clones,
            plain.value().estimator_clones + pruned.value().estimator_clones);
}

TEST(EnginePruningTest, EngineLevelPruningMatchesPlainEngine) {
  Graph graph = roadnet::MakeCity(roadnet::CityAConfig());
  auto build_model = [&] {
    return core::InstantiateWeightFunction(graph, traj::TrajectoryStore(),
                                           core::HybridParams());
  };

  serving::EngineOptions plain_options;
  plain_options.graph = &graph;
  plain_options.num_threads = 1;
  plain_options.query_cache_bytes = 0;
  auto plain_engine = serving::Engine::Open(build_model(), plain_options);
  ASSERT_TRUE(plain_engine.ok());

  serving::EngineOptions pruned_options = plain_options;
  pruned_options.route_pruning = AllPruners();
  auto pruned_engine = serving::Engine::Open(build_model(), pruned_options);
  ASSERT_TRUE(pruned_engine.ok());

  serving::RouteRequest request;
  request.from = 5;
  request.to = 40;
  request.departure_time = 8 * 3600.0;
  request.budget_seconds =
      roadnet::ShortestPathCost(graph, 5, 40, roadnet::FreeFlowWeight(graph)) *
      1.25;
  auto base = plain_engine.value()->Route(request);
  auto pruned = pruned_engine.value()->Route(request);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned.value().on_time_probability,
            base.value().on_time_probability);
  EXPECT_EQ(pruned.value().best_path, base.value().best_path);

  // Pruning composes with the deadline machinery of the engine: a
  // microscopically small timeout unwinds with kDeadlineExceeded.
  serving::RouteRequest hurried = request;
  hurried.timeout_seconds = 1e-9;
  auto result = pruned_engine.value()->Route(hurried);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace routing
}  // namespace pcde
