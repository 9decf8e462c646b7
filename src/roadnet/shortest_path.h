// Dijkstra shortest paths over the road network. Shared substrate: the
// trajectory generator routes trips with it, the HMM map matcher uses
// bounded searches for transition probabilities, and the stochastic router
// uses reverse-Dijkstra lower bounds for pruning.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "common/status.h"
#include "roadnet/graph.h"
#include "roadnet/path.h"

namespace pcde {
namespace roadnet {

/// Edge weight callback; must return a non-negative weight.
using EdgeWeightFn = std::function<double(const Edge&)>;

/// Weight = free-flow travel time (length / speed limit).
EdgeWeightFn FreeFlowWeight(const Graph& g);

/// Weight = length in meters.
EdgeWeightFn LengthWeight(const Graph& g);

constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// \brief Single-pair shortest path; returns NotFound if unreachable.
/// The result is a valid Path unless the shortest edge walk revisits a
/// vertex (impossible with positive weights).
StatusOr<Path> ShortestPath(const Graph& g, VertexId from, VertexId to,
                            const EdgeWeightFn& weight);

/// \brief Cost of the shortest path between two vertices (kInfCost if
/// unreachable). `max_cost` bounds the search (early exit) when finite.
double ShortestPathCost(const Graph& g, VertexId from, VertexId to,
                        const EdgeWeightFn& weight,
                        double max_cost = kInfCost);

/// \brief One-to-all costs from `from`; entry is kInfCost when unreachable.
///
/// A finite `max_cost` stops the search at the first settled cost above
/// it. Entries at or below `max_cost` are then exactly the unbounded
/// tree's, bit for bit. Every other entry is above `max_cost`: the cost of
/// some path the search found but did not settle (not necessarily the
/// shortest), or kInfCost when the search never reached the vertex, which
/// no longer implies that it is unreachable.
std::vector<double> ShortestPathTree(const Graph& g, VertexId from,
                                     const EdgeWeightFn& weight,
                                     double max_cost = kInfCost);

/// \brief All-to-one costs into `to` (runs Dijkstra on reversed edges);
/// this is the admissible lower bound used by the stochastic router.
/// `max_cost` bounds the search exactly as in ShortestPathTree: entries at
/// or below it are exact, every other entry is above it or kInfCost, and
/// kInfCost no longer implies that `to` is unreachable.
std::vector<double> ReverseShortestPathTree(const Graph& g, VertexId to,
                                            const EdgeWeightFn& weight,
                                            double max_cost = kInfCost);

}  // namespace roadnet
}  // namespace pcde
