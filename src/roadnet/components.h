// Strongly connected components of the road network and the condensation
// DAG over them. Reachability between vertices depends only on the graph,
// so a search that needs it per query (the stochastic router asks which
// vertices can reach its destination) computes the components once and
// answers each query on the condensation, which has one node per
// component: a single node on a city whose every road has its reverse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "roadnet/graph.h"

namespace pcde {
namespace roadnet {

/// \brief Tarjan's strongly connected components of a directed graph, with
/// the condensation's in-edges. Components are numbered in reverse
/// topological order: an edge between two components runs from the higher
/// number to the lower.
class StronglyConnectedComponents {
 public:
  /// O(V + E) once, plus sorting the condensation's edges.
  explicit StronglyConnectedComponents(const Graph& g);

  size_t NumComponents() const { return pred_offsets_.size() - 1; }
  /// The graph's size when the components were computed.
  size_t NumVertices() const { return component_.size(); }
  size_t NumEdges() const { return num_edges_; }

  uint32_t ComponentOf(VertexId v) const { return component_[v]; }

  /// One flag per component: 1 where the component's vertices can reach
  /// `to` (its own component included), 0 where they cannot. Visits only
  /// the components it marks and their condensation in-edges.
  std::vector<uint8_t> ComponentsReaching(VertexId to) const;

 private:
  std::vector<uint32_t> component_;
  size_t num_edges_ = 0;
  /// Condensation in-edges, deduplicated: the components with an edge into
  /// component c are preds_[pred_offsets_[c] .. pred_offsets_[c + 1]).
  std::vector<uint32_t> pred_offsets_;
  std::vector<uint32_t> preds_;
};

}  // namespace roadnet
}  // namespace pcde
