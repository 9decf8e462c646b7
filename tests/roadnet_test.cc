// Unit tests for src/roadnet: graph construction, the paper's path algebra
// (Sec. 2.1 examples), generators, spatial index, shortest paths, and
// strongly connected components.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "one_way_graph.h"
#include "roadnet/components.h"
#include "roadnet/generators.h"
#include "roadnet/graph.h"
#include "roadnet/path.h"
#include "roadnet/shortest_path.h"
#include "roadnet/spatial_index.h"

namespace pcde {
namespace roadnet {
namespace {

/// The Fig. 2(a) road network: a small graph with labelled edges e1..e6.
/// Layout (coordinates only matter for geometry tests):
///   VA -e1-> VB -e2-> VC -e3-> VD -e4-> VE -e5-> VF, and VB -e6-> VE... we
/// only need the adjacency structure: e1..e4 chain, e4-e5 adjacent, e6-e5
/// adjacent.
struct PaperGraph {
  Graph g;
  VertexId va, vb, vc, vd, ve, vf, vg;
  EdgeId e1, e2, e3, e4, e5, e6;

  PaperGraph() {
    va = g.AddVertex(0, 0);
    vb = g.AddVertex(100, 0);
    vc = g.AddVertex(200, 0);
    vd = g.AddVertex(300, 0);
    ve = g.AddVertex(400, 0);
    vf = g.AddVertex(500, 0);
    vg = g.AddVertex(400, 100);  // start of e6
    e1 = g.AddEdge(va, vb, 100, 13.9).value();
    e2 = g.AddEdge(vb, vc, 100, 13.9).value();
    e3 = g.AddEdge(vc, vd, 100, 13.9).value();
    e4 = g.AddEdge(vd, ve, 100, 13.9).value();
    e5 = g.AddEdge(ve, vf, 100, 13.9).value();
    e6 = g.AddEdge(vg, ve, 100, 13.9).value();
  }
};

// ---------------------------------------------------------------------------
// Graph
// ---------------------------------------------------------------------------

TEST(GraphTest, AddVertexAssignsDenseIds) {
  Graph g;
  EXPECT_EQ(g.AddVertex(0, 0), 0u);
  EXPECT_EQ(g.AddVertex(1, 1), 1u);
  EXPECT_EQ(g.NumVertices(), 2u);
}

TEST(GraphTest, AddEdgeValidation) {
  Graph g;
  const VertexId a = g.AddVertex(0, 0);
  const VertexId b = g.AddVertex(100, 0);
  EXPECT_FALSE(g.AddEdge(a, 99, 100, 13.9).ok());   // unknown endpoint
  EXPECT_FALSE(g.AddEdge(a, a, 100, 13.9).ok());    // self loop
  EXPECT_FALSE(g.AddEdge(a, b, -5, 13.9).ok());     // bad length
  EXPECT_FALSE(g.AddEdge(a, b, 100, 0.0).ok());     // bad speed
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(g.AddEdge(a, b, nan, 13.9).ok());     // non-finite length
  EXPECT_FALSE(g.AddEdge(a, b, inf, 13.9).ok());
  EXPECT_FALSE(g.AddEdge(a, b, 100, nan).ok());      // non-finite speed
  EXPECT_FALSE(g.AddEdge(a, b, 100, inf).ok());
  EXPECT_TRUE(g.AddEdge(a, b, 100, 13.9).ok());
}

TEST(GraphTest, IncidenceLists) {
  PaperGraph p;
  EXPECT_EQ(p.g.OutEdges(p.vb).size(), 1u);
  EXPECT_EQ(p.g.OutEdges(p.vb)[0], p.e2);
  EXPECT_EQ(p.g.InEdges(p.ve).size(), 2u);  // e4 and e6
  EXPECT_TRUE(p.g.AreAdjacent(p.e1, p.e2));
  EXPECT_TRUE(p.g.AreAdjacent(p.e4, p.e5));
  EXPECT_TRUE(p.g.AreAdjacent(p.e6, p.e5));
  EXPECT_FALSE(p.g.AreAdjacent(p.e1, p.e3));
}

TEST(GraphTest, FindEdge) {
  PaperGraph p;
  EXPECT_EQ(p.g.FindEdge(p.va, p.vb), p.e1);
  EXPECT_EQ(p.g.FindEdge(p.vb, p.va), kInvalidEdge);
}

TEST(GraphTest, FreeFlowSeconds) {
  PaperGraph p;
  EXPECT_NEAR(p.g.edge(p.e1).FreeFlowSeconds(), 100.0 / 13.9, 1e-9);
}

TEST(GraphTest, EdgeGeometry) {
  PaperGraph p;
  double x = 0, y = 0;
  p.g.PointAlongEdge(p.e1, 0.5, &x, &y);
  EXPECT_DOUBLE_EQ(x, 50.0);
  EXPECT_DOUBLE_EQ(y, 0.0);
  double frac = -1;
  const double d = p.g.DistanceToEdge(p.e1, 30.0, 40.0, &frac);
  EXPECT_DOUBLE_EQ(d, 40.0);
  EXPECT_DOUBLE_EQ(frac, 0.3);
  // Beyond the segment end, distance is to the endpoint.
  EXPECT_DOUBLE_EQ(p.g.DistanceToEdge(p.e1, 120.0, 0.0), 20.0);
}

// ---------------------------------------------------------------------------
// Path algebra (the paper's Sec. 2.1 examples)
// ---------------------------------------------------------------------------

TEST(PathTest, MakeValidatesAdjacency) {
  PaperGraph p;
  EXPECT_TRUE(Path::Make(p.g, {p.e1, p.e2, p.e3}).ok());
  EXPECT_FALSE(Path::Make(p.g, {p.e1, p.e3}).ok());  // not adjacent
  EXPECT_FALSE(Path::Make(p.g, {}).ok());            // empty
}

TEST(PathTest, MakeRejectsVertexRevisit) {
  Graph g;
  const VertexId a = g.AddVertex(0, 0);
  const VertexId b = g.AddVertex(1, 0);
  const VertexId c = g.AddVertex(1, 1);
  const EdgeId ab = g.AddEdge(a, b, 1, 10).value();
  const EdgeId bc = g.AddEdge(b, c, 1, 10).value();
  const EdgeId ca = g.AddEdge(c, a, 1, 10).value();
  const EdgeId abx = g.AddEdge(a, b, 1, 10).value();  // parallel edge
  EXPECT_FALSE(Path::Make(g, {ab, bc, ca, abx}).ok());  // revisits a and b
}

TEST(PathTest, OutOfRangeIdsAfterTheFirstAreUnknownEdges) {
  // The adjacency test used to read the next id before it was range
  // checked: {e, NumEdges()} answered "not adjacent", and an id far past
  // the edge array crashed.
  const Graph g = MakeCity(CityAConfig());
  const EdgeId e = 0;
  for (const EdgeId bad :
       {static_cast<EdgeId>(g.NumEdges()), EdgeId{0x7ffffff0}}) {
    const Status status = ValidatePath(g, {e, bad});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(status.message(), "unknown edge id in path") << bad;
  }
}

TEST(PathTest, ValidatePathStatusesAreStable) {
  // Every malformed shape with its Status message, in scan order: the
  // first defect wins, and at one position adjacency is reported before a
  // revisit. Only the rows with an unknown id after the first position
  // read differently from the hash-set implementation this replaced,
  // which reached into the edge array before range checking them.
  Graph g;
  const VertexId a = g.AddVertex(0, 0);
  const VertexId b = g.AddVertex(1, 0);
  const VertexId c = g.AddVertex(1, 1);
  const VertexId d = g.AddVertex(2, 2);
  const EdgeId ab = g.AddEdge(a, b, 1, 10).value();
  const EdgeId bc = g.AddEdge(b, c, 1, 10).value();
  const EdgeId ca = g.AddEdge(c, a, 1, 10).value();
  const EdgeId abx = g.AddEdge(a, b, 1, 10).value();  // parallel edge
  const EdgeId cd = g.AddEdge(c, d, 1, 10).value();
  const EdgeId unknown = static_cast<EdgeId>(g.NumEdges());
  const std::string kUnknown = "unknown edge id in path";
  struct Case {
    const char* name;
    std::vector<EdgeId> edges;
    std::string message;  // "" for OK
  };
  const std::vector<Case> cases = {
      {"valid", {ab, bc, cd}, ""},
      {"empty", {}, "path must contain at least one edge"},
      {"unknown first", {unknown, bc}, kUnknown},
      {"unknown middle", {ab, unknown, cd}, kUnknown},
      {"unknown last", {ab, bc, unknown}, kUnknown},
      {"not adjacent", {ab, cd}, "edges are not adjacent at position 0"},
      {"not adjacent later", {ab, bc, ca, bc},
       "edges are not adjacent at position 2"},
      {"revisits a vertex", {ab, bc, ca, abx},
       "path revisits a vertex (not simple)"},
      {"revisits its final vertex", {ab, bc, ca},
       "path revisits its final vertex"},
      {"revisit and not adjacent at one position", {ab, bc, ca, abx, ab},
       "edges are not adjacent at position 3"},
      {"not adjacent before a revisit", {ab, cd, ca, abx},
       "edges are not adjacent at position 0"},
      {"unknown after a non-adjacent pair", {ab, cd, unknown}, kUnknown},
  };
  for (const Case& tc : cases) {
    const Status status = ValidatePath(g, tc.edges);
    if (tc.message.empty()) {
      EXPECT_TRUE(status.ok()) << tc.name << ": " << status.ToString();
      continue;
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << tc.name;
    EXPECT_EQ(status.message(), tc.message) << tc.name;
  }
}

TEST(PathTest, ValidatePathKeepsNoStateAcrossCallsOrGraphs) {
  // The visited marks are reused per thread: a vertex visited in one call
  // must not count as revisited in the next, on the same graph or on a
  // larger one, and threads must not see each other's marks.
  PaperGraph p;
  const Graph city = MakeCity(CityAConfig());
  const auto city_path = ShortestPath(city, 0, static_cast<VertexId>(
                                                   city.NumVertices() - 1),
                                      FreeFlowWeight(city));
  ASSERT_TRUE(city_path.ok());
  auto validate_all = [&] {
    for (int round = 0; round < 3; ++round) {
      if (!ValidatePath(p.g, {p.e1, p.e2, p.e3}).ok()) return false;
      if (!ValidatePath(city, city_path.value().edges()).ok()) return false;
      if (ValidatePath(p.g, {p.e1, p.e2, p.e1}).ok()) return false;
    }
    return true;
  };
  EXPECT_TRUE(validate_all());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (!validate_all()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(PathTest, IntersectPaperExample) {
  // <e1,e2,e3> ∩ <e2,e3,e4> = <e2,e3>
  PaperGraph p;
  const Path a({p.e1, p.e2, p.e3});
  const Path b({p.e2, p.e3, p.e4});
  EXPECT_EQ(a.Intersect(b), Path({p.e2, p.e3}));
  EXPECT_EQ(b.Intersect(a), Path({p.e2, p.e3}));
}

TEST(PathTest, SubtractPaperExample) {
  // <e1,e2,e3> \ <e2,e3,e4> = <e1>
  PaperGraph p;
  const Path a({p.e1, p.e2, p.e3});
  const Path b({p.e2, p.e3, p.e4});
  auto diff = a.Subtract(b);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value(), Path({p.e1}));
}

TEST(PathTest, SubtractNonContiguousFails) {
  PaperGraph p;
  const Path a({p.e1, p.e2, p.e3, p.e4});
  const Path mid({p.e2, p.e3});
  EXPECT_FALSE(a.Subtract(mid).ok());  // remainder e1 | e4 is not a path
}

TEST(PathTest, SubPathRelation) {
  PaperGraph p;
  const Path whole({p.e1, p.e2, p.e3, p.e4});
  EXPECT_TRUE(whole.ContainsSubPath(Path({p.e2, p.e3})));
  EXPECT_TRUE(whole.ContainsSubPath(whole));
  EXPECT_FALSE(whole.ContainsSubPath(Path({p.e2, p.e4})));  // not contiguous
  EXPECT_EQ(whole.FindSubPath(Path({p.e3, p.e4})), 2u);
  EXPECT_EQ(whole.FindSubPath(Path({p.e5})), Path::npos);
}

TEST(PathTest, SliceIsSubPath) {
  PaperGraph p;
  const Path whole({p.e1, p.e2, p.e3, p.e4});
  EXPECT_EQ(whole.Slice(1, 2), Path({p.e2, p.e3}));
  EXPECT_EQ(whole.Slice(3, 10), Path({p.e4}));  // clamped
  EXPECT_TRUE(whole.Slice(9, 1).empty());
}

TEST(PathTest, ConcatAndAppend) {
  PaperGraph p;
  const Path a({p.e1, p.e2});
  const Path b({p.e3, p.e4});
  auto joined = a.Concat(p.g, b);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().size(), 4u);
  auto extended = joined.value().Append(p.g, p.e5);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended.value().back(), p.e5);
  // Appending a non-adjacent edge fails.
  EXPECT_FALSE(a.Append(p.g, p.e5).ok());
}

TEST(PathTest, VerticesAndLengths) {
  PaperGraph p;
  const Path path({p.e1, p.e2, p.e3});
  const auto vs = path.Vertices(p.g);
  ASSERT_EQ(vs.size(), 4u);
  EXPECT_EQ(vs.front(), p.va);
  EXPECT_EQ(vs.back(), p.vd);
  EXPECT_DOUBLE_EQ(path.LengthMeters(p.g), 300.0);
  EXPECT_NEAR(path.FreeFlowSeconds(p.g), 300.0 / 13.9, 1e-9);
}

TEST(PathTest, HashConsistency) {
  PaperGraph p;
  PathHash h;
  EXPECT_EQ(h(Path({p.e1, p.e2})), h(Path({p.e1, p.e2})));
  EXPECT_NE(h(Path({p.e1, p.e2})), h(Path({p.e2, p.e1})));
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

TEST(GeneratorsTest, CityAShape) {
  const Graph g = MakeCity(CityAConfig());
  EXPECT_EQ(g.NumVertices(), 26u * 26u);
  EXPECT_GT(g.NumEdges(), 1500u);
  // Bidirectional edges come in pairs.
  EXPECT_EQ(g.NumEdges() % 2, 0u);
}

TEST(GeneratorsTest, CityBIsFasterAndCoarser) {
  const Graph a = MakeCity(CityAConfig());
  const Graph b = MakeCity(CityBConfig());
  EXPECT_LT(b.NumVertices(), a.NumVertices());
  double mean_speed_a = 0, mean_speed_b = 0;
  for (const Edge& e : a.edges()) mean_speed_a += e.speed_limit_mps;
  for (const Edge& e : b.edges()) mean_speed_b += e.speed_limit_mps;
  mean_speed_a /= static_cast<double>(a.NumEdges());
  mean_speed_b /= static_cast<double>(b.NumEdges());
  EXPECT_GT(mean_speed_b, mean_speed_a);
}

TEST(GeneratorsTest, DeterministicUnderSeed) {
  const Graph g1 = MakeCity(CityAConfig());
  const Graph g2 = MakeCity(CityAConfig());
  ASSERT_EQ(g1.NumEdges(), g2.NumEdges());
  for (size_t i = 0; i < g1.NumEdges(); ++i) {
    EXPECT_EQ(g1.edge(i).from, g2.edge(i).from);
    EXPECT_EQ(g1.edge(i).to, g2.edge(i).to);
  }
}

TEST(GeneratorsTest, ContainsAllRoadClasses) {
  const Graph g = MakeCity(CityAConfig());
  std::set<RoadClass> classes;
  for (const Edge& e : g.edges()) classes.insert(e.road_class);
  EXPECT_EQ(classes.size(), 3u);
}

TEST(GeneratorsTest, LargeNetworkIsStronglyConnectedEnough) {
  // Every vertex should reach a central hub via the arterial skeleton.
  const Graph g = MakeCity(CityAConfig());
  const auto dist = ShortestPathTree(g, 0, FreeFlowWeight(g));
  size_t reachable = 0;
  for (double d : dist) reachable += d != kInfCost ? 1 : 0;
  EXPECT_GT(static_cast<double>(reachable) / g.NumVertices(), 0.99);
}

// Property sweep: random simple paths of every requested cardinality are
// valid simple paths of exactly that cardinality.
class RandomPathProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(RandomPathProperty, ProducesValidSimplePath) {
  const Graph g = MakeCity(CityAConfig());
  Rng rng(GetParam() * 7919 + 1);
  auto path = RandomSimplePath(g, GetParam(), &rng);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path.value().size(), GetParam());
  EXPECT_TRUE(ValidatePath(g, path.value().edges()).ok());
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, RandomPathProperty,
                         ::testing::Values(1, 2, 3, 5, 10, 20, 40, 60, 80,
                                           100));

// ---------------------------------------------------------------------------
// Spatial index
// ---------------------------------------------------------------------------

TEST(SpatialIndexTest, FindsNearestEdge) {
  PaperGraph p;
  SpatialIndex index(p.g, 100.0);
  const auto c = index.NearestEdge(50.0, 5.0, 50.0);
  EXPECT_EQ(c.edge, p.e1);
  EXPECT_DOUBLE_EQ(c.distance_m, 5.0);
  EXPECT_DOUBLE_EQ(c.fraction, 0.5);
}

TEST(SpatialIndexTest, RadiusFiltering) {
  PaperGraph p;
  SpatialIndex index(p.g, 100.0);
  EXPECT_TRUE(index.EdgesNear(50.0, 500.0, 10.0).empty());
  EXPECT_FALSE(index.EdgesNear(50.0, 5.0, 10.0).empty());
}

class SpatialIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpatialIndexProperty, MatchesBruteForce) {
  const Graph g = MakeCity(CityAConfig());
  SpatialIndex index(g, 80.0);
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const double x = rng.Uniform(0.0, 25.0 * 150.0);
    const double y = rng.Uniform(0.0, 25.0 * 150.0);
    const double radius = rng.Uniform(20.0, 120.0);
    std::unordered_set<EdgeId> brute;
    for (const Edge& e : g.edges()) {
      if (g.DistanceToEdge(e.id, x, y) <= radius) brute.insert(e.id);
    }
    const auto found = index.EdgesNear(x, y, radius);
    EXPECT_EQ(found.size(), brute.size());
    for (const auto& c : found) EXPECT_TRUE(brute.count(c.edge));
    // Sorted ascending by distance.
    for (size_t i = 1; i < found.size(); ++i) {
      EXPECT_LE(found[i - 1].distance_m, found[i].distance_m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialIndexProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Shortest paths
// ---------------------------------------------------------------------------

TEST(ShortestPathTest, ChainGraphExact) {
  PaperGraph p;
  auto sp = ShortestPath(p.g, p.va, p.vf, FreeFlowWeight(p.g));
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(sp.value(), Path({p.e1, p.e2, p.e3, p.e4, p.e5}));
  EXPECT_NEAR(ShortestPathCost(p.g, p.va, p.vf, FreeFlowWeight(p.g)),
              500.0 / 13.9, 1e-9);
}

TEST(ShortestPathTest, UnreachableReturnsNotFound) {
  PaperGraph p;
  // vg has no incoming edges.
  EXPECT_FALSE(ShortestPath(p.g, p.va, p.vg, FreeFlowWeight(p.g)).ok());
  EXPECT_EQ(ShortestPathCost(p.g, p.va, p.vg, FreeFlowWeight(p.g)), kInfCost);
}

TEST(ShortestPathTest, TreeAndPairwiseAgree) {
  const Graph g = MakeCity(CityAConfig());
  const auto weight = FreeFlowWeight(g);
  const auto tree = ShortestPathTree(g, 17, weight);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const VertexId v = static_cast<VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    EXPECT_NEAR(tree[v], ShortestPathCost(g, 17, v, weight), 1e-9);
  }
}

TEST(ShortestPathTest, ReverseTreeMatchesForward) {
  const Graph g = MakeCity(CityAConfig());
  const auto weight = FreeFlowWeight(g);
  const VertexId dest = 42;
  const auto rtree = ReverseShortestPathTree(g, dest, weight);
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    const VertexId v = static_cast<VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    EXPECT_NEAR(rtree[v], ShortestPathCost(g, v, dest, weight), 1e-9);
  }
}

/// A tree searched out to `max_cost` against the unbounded one: entries at
/// or below `max_cost` (on either side) equal bit for bit, every other
/// entry lies above it (kInfCost included), and unreachable stays kInfCost.
void ExpectBoundedTreeMatches(const std::vector<double>& bounded,
                              const std::vector<double>& full,
                              double max_cost) {
  ASSERT_EQ(bounded.size(), full.size());
  for (size_t v = 0; v < full.size(); ++v) {
    if (full[v] <= max_cost || bounded[v] <= max_cost) {
      EXPECT_EQ(bounded[v], full[v]) << "vertex " << v << " max " << max_cost;
    } else {
      EXPECT_GT(bounded[v], max_cost) << "vertex " << v;
    }
    if (full[v] == kInfCost) {
      EXPECT_EQ(bounded[v], kInfCost) << "vertex " << v;
    }
  }
}

TEST(ShortestPathTest, BoundedTreesMatchUnboundedWithinMaxCost) {
  const Graph city = MakeCity(CityAConfig());
  const auto city_weight = FreeFlowWeight(city);
  for (VertexId root : {0u, 17u, 42u, 300u, 675u}) {
    const auto forward = ShortestPathTree(city, root, city_weight);
    const auto reverse = ReverseShortestPathTree(city, root, city_weight);
    for (double max_cost : {-1.0, 0.0, 25.0, 60.0, 150.0, 400.0}) {
      ExpectBoundedTreeMatches(
          ShortestPathTree(city, root, city_weight, max_cost), forward,
          max_cost);
      ExpectBoundedTreeMatches(
          ReverseShortestPathTree(city, root, city_weight, max_cost),
          reverse, max_cost);
    }
  }

  // Fig. 2(a): vg has no incoming edges, and an edge costs exactly
  // 100 / 13.9 s, so max_cost can sit on an entry.
  PaperGraph p;
  const auto weight = FreeFlowWeight(p.g);
  const double edge = 100.0 / 13.9;
  for (VertexId root = 0; root < p.g.NumVertices(); ++root) {
    const auto forward = ShortestPathTree(p.g, root, weight);
    const auto reverse = ReverseShortestPathTree(p.g, root, weight);
    for (double max_cost : {-1.0, 0.0, edge, 2.5 * edge, 10 * edge}) {
      ExpectBoundedTreeMatches(ShortestPathTree(p.g, root, weight, max_cost),
                               forward, max_cost);
      ExpectBoundedTreeMatches(
          ReverseShortestPathTree(p.g, root, weight, max_cost), reverse,
          max_cost);
    }
  }
}

// ---------------------------------------------------------------------------
// Strongly connected components
// ---------------------------------------------------------------------------

/// The components of `g` against breadth-first reachability from every
/// destination: a component reaches `to` exactly where its vertices do, two
/// vertices share a component exactly when each reaches the other, and
/// every edge between components runs from the higher number to the lower.
void ExpectComponentsMatchReachability(const Graph& g,
                                       const StronglyConnectedComponents& scc) {
  ASSERT_EQ(scc.NumVertices(), g.NumVertices());
  ASSERT_EQ(scc.NumEdges(), g.NumEdges());
  std::vector<std::vector<bool>> reaches_to;
  for (VertexId to = 0; to < g.NumVertices(); ++to) {
    reaches_to.push_back(CanReach(g, to));
    const std::vector<uint8_t> marks = scc.ComponentsReaching(to);
    ASSERT_EQ(marks.size(), scc.NumComponents());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(marks[scc.ComponentOf(v)] == 1, reaches_to[to][v])
          << "vertex " << v << " to " << to;
    }
  }
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    ASSERT_LT(scc.ComponentOf(u), scc.NumComponents());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(scc.ComponentOf(u) == scc.ComponentOf(v),
                reaches_to[v][u] && reaches_to[u][v])
          << u << " and " << v;
    }
  }
  for (const Edge& e : g.edges()) {
    EXPECT_GE(scc.ComponentOf(e.from), scc.ComponentOf(e.to)) << e.id;
  }
}

TEST(ComponentsTest, MatchBreadthFirstReachabilityOnOneWayGraphs) {
  size_t multi_vertex_components = 0;
  size_t single_vertex_components = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Graph g = MakeOneWayGraph(seed);
    const StronglyConnectedComponents scc(g);
    ExpectComponentsMatchReachability(g, scc);
    std::vector<size_t> sizes(scc.NumComponents(), 0);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ++sizes[scc.ComponentOf(v)];
    }
    for (size_t size : sizes) {
      ++(size > 1 ? multi_vertex_components : single_vertex_components);
    }
    for (VertexId v = kOneWayVertices - kOneWayDeadEnds; v < kOneWayVertices;
         ++v) {
      ASSERT_TRUE(g.OutEdges(v).empty());
      EXPECT_EQ(sizes[scc.ComponentOf(v)], 1u);
    }
  }
  // The graphs have the shapes the test is for: several strongly connected
  // rings, and singletons beside them.
  EXPECT_GE(multi_vertex_components, 16u);
  EXPECT_GE(single_vertex_components, 8u * kOneWayDeadEnds);
}

TEST(ComponentsTest, CityAIsOneComponent) {
  const Graph g = MakeCity(CityAConfig());
  const StronglyConnectedComponents scc(g);
  EXPECT_EQ(scc.NumComponents(), 1u);
  for (VertexId to : {0u, 42u, 675u}) {
    EXPECT_EQ(scc.ComponentsReaching(to), std::vector<uint8_t>{1});
    const std::vector<bool> reach = CanReach(g, to);
    EXPECT_EQ(std::count(reach.begin(), reach.end(), true),
              static_cast<std::ptrdiff_t>(g.NumVertices()));
  }
}

TEST(ShortestPathTest, PathCostMatchesReportedCost) {
  const Graph g = MakeCity(CityAConfig());
  const auto weight = FreeFlowWeight(g);
  auto sp = ShortestPath(g, 0, static_cast<VertexId>(g.NumVertices() - 1),
                         weight);
  ASSERT_TRUE(sp.ok());
  double total = 0;
  for (EdgeId e : sp.value()) total += weight(g.edge(e));
  EXPECT_NEAR(total,
              ShortestPathCost(g, 0,
                               static_cast<VertexId>(g.NumVertices() - 1),
                               weight),
              1e-9);
}

}  // namespace
}  // namespace roadnet
}  // namespace pcde
