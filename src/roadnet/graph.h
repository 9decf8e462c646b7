// Road network model (Sec. 2.1 of the paper): a directed graph G = (V, E)
// where vertices are intersections / road ends positioned on a planar
// coordinate system (meters) and edges are directed road segments with
// length, speed limit, and road class.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"

namespace pcde {
namespace roadnet {

using VertexId = uint32_t;
using EdgeId = uint32_t;

constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();
constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// Functional class of a road segment; used by the generators and the
/// traffic model (arterials congest differently from residential streets).
enum class RoadClass : uint8_t {
  kResidential = 0,
  kArterial = 1,
  kHighway = 2,
};

/// \brief A road intersection (or dead end) with planar coordinates in
/// meters. The synthetic cities use a local tangent plane, which keeps all
/// geometry Euclidean; this is equivalent to projected OSM data.
struct Vertex {
  VertexId id = kInvalidVertex;
  double x = 0.0;
  double y = 0.0;
};

/// \brief A directed road segment from `from` to `to`.
struct Edge {
  EdgeId id = kInvalidEdge;
  VertexId from = kInvalidVertex;  // e.s in the paper
  VertexId to = kInvalidVertex;    // e.d in the paper
  double length_m = 0.0;
  double speed_limit_mps = 13.9;   // 50 km/h default
  RoadClass road_class = RoadClass::kResidential;

  /// Free-flow traversal time at the legal speed limit.
  double FreeFlowSeconds() const { return length_m / speed_limit_mps; }
};

/// \brief Directed road-network graph with O(1) incidence lookups.
///
/// The graph is append-only: vertices and edges receive dense consecutive
/// ids, which the rest of the library uses as array indices.
class Graph {
 public:
  Graph() = default;

  VertexId AddVertex(double x, double y);

  /// Adds a directed edge. Returns InvalidArgument for unknown endpoints, a
  /// self loop, or a length or speed limit that is not positive and finite.
  StatusOr<EdgeId> AddEdge(VertexId from, VertexId to, double length_m,
                           double speed_limit_mps,
                           RoadClass road_class = RoadClass::kResidential);

  size_t NumVertices() const { return vertices_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  const Vertex& vertex(VertexId v) const { return vertices_[v]; }
  const Edge& edge(EdgeId e) const { return edges_[e]; }
  const std::vector<Vertex>& vertices() const { return vertices_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Edges leaving / entering a vertex.
  const std::vector<EdgeId>& OutEdges(VertexId v) const { return out_edges_[v]; }
  const std::vector<EdgeId>& InEdges(VertexId v) const { return in_edges_[v]; }

  /// True iff b can directly follow a (a.to == b.from); "adjacent" in the
  /// paper's terminology.
  bool AreAdjacent(EdgeId a, EdgeId b) const {
    return edges_[a].to == edges_[b].from;
  }

  /// Finds the edge from -> to if present.
  EdgeId FindEdge(VertexId from, VertexId to) const;

  /// Straight-line edge geometry helpers (edges are line segments).
  /// Point at fraction f in [0,1] along the edge.
  void PointAlongEdge(EdgeId e, double fraction, double* x, double* y) const;

  /// Euclidean distance from (x, y) to the edge segment, and the fraction of
  /// the closest point along the edge (out params may be null).
  double DistanceToEdge(EdgeId e, double x, double y,
                        double* closest_fraction = nullptr) const;

 private:
  std::vector<Vertex> vertices_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
};

/// Euclidean distance between two points.
double Distance(double x1, double y1, double x2, double y2);

}  // namespace roadnet
}  // namespace pcde
