// Seeded random road graphs with one-way streets, for the reachability
// tests of roadnet_test and routing_test. City A has every road in both
// directions, so it is one strongly connected component; these graphs are
// not. Each has rings of four vertices (each ring strongly connected,
// several merged by the links), single vertices, random one-way links,
// and dead ends that only have in-edges.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "roadnet/graph.h"

namespace pcde {
namespace roadnet {

constexpr size_t kOneWayRings = 8;
constexpr size_t kOneWayRingSize = 4;
constexpr size_t kOneWaySingles = 10;
constexpr size_t kOneWayDeadEnds = 4;
constexpr size_t kOneWayLinks = 30;
constexpr size_t kOneWayVertices =
    kOneWayRings * kOneWayRingSize + kOneWaySingles + kOneWayDeadEnds;

/// The dead ends are the last kOneWayDeadEnds vertices.
inline Graph MakeOneWayGraph(uint64_t seed) {
  Rng rng(seed);
  Graph g;
  for (size_t i = 0; i < kOneWayVertices; ++i) {
    g.AddVertex(rng.Uniform(0.0, 5000.0), rng.Uniform(0.0, 5000.0));
  }
  auto connect = [&](size_t from, size_t to) {
    const double length_m = rng.Uniform(100.0, 1000.0);
    const double speed_mps = rng.Uniform(8.0, 20.0);
    g.AddEdge(static_cast<VertexId>(from), static_cast<VertexId>(to),
              length_m, speed_mps)
        .value();
  };
  for (size_t r = 0; r < kOneWayRings; ++r) {
    for (size_t k = 0; k < kOneWayRingSize; ++k) {
      connect(r * kOneWayRingSize + k,
              r * kOneWayRingSize + (k + 1) % kOneWayRingSize);
    }
  }
  const int64_t last_with_out_edges =
      static_cast<int64_t>(kOneWayVertices - kOneWayDeadEnds) - 1;
  for (size_t l = 0; l < kOneWayLinks; ++l) {
    const auto from = static_cast<size_t>(rng.UniformInt(0, last_with_out_edges));
    const auto to = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kOneWayVertices) - 1));
    if (from != to) connect(from, to);
  }
  return g;
}

/// Whether each vertex can reach `to`: breadth-first over in-edges.
inline std::vector<bool> CanReach(const Graph& g, VertexId to) {
  std::vector<bool> reach(g.NumVertices(), false);
  std::queue<VertexId> queue;
  reach[to] = true;
  queue.push(to);
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop();
    for (EdgeId e : g.InEdges(v)) {
      const VertexId u = g.edge(e).from;
      if (reach[u]) continue;
      reach[u] = true;
      queue.push(u);
    }
  }
  return reach;
}

}  // namespace roadnet
}  // namespace pcde
