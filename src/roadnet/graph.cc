#include "roadnet/graph.h"

#include <algorithm>
#include <cmath>

namespace pcde {
namespace roadnet {

double Distance(double x1, double y1, double x2, double y2) {
  const double dx = x2 - x1;
  const double dy = y2 - y1;
  return std::sqrt(dx * dx + dy * dy);
}

VertexId Graph::AddVertex(double x, double y) {
  const VertexId id = static_cast<VertexId>(vertices_.size());
  vertices_.push_back(Vertex{id, x, y});
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  return id;
}

StatusOr<EdgeId> Graph::AddEdge(VertexId from, VertexId to, double length_m,
                                double speed_limit_mps, RoadClass road_class) {
  if (from >= vertices_.size() || to >= vertices_.size()) {
    return Status::InvalidArgument("AddEdge: unknown endpoint vertex");
  }
  if (from == to) {
    return Status::InvalidArgument("AddEdge: self loops are not road segments");
  }
  if (!(length_m > 0.0) || !std::isfinite(length_m)) {
    return Status::InvalidArgument("AddEdge: non-positive or non-finite length");
  }
  if (!(speed_limit_mps > 0.0) || !std::isfinite(speed_limit_mps)) {
    return Status::InvalidArgument(
        "AddEdge: non-positive or non-finite speed limit");
  }
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{id, from, to, length_m, speed_limit_mps, road_class});
  out_edges_[from].push_back(id);
  in_edges_[to].push_back(id);
  return id;
}

EdgeId Graph::FindEdge(VertexId from, VertexId to) const {
  if (from >= vertices_.size()) return kInvalidEdge;
  for (EdgeId e : out_edges_[from]) {
    if (edges_[e].to == to) return e;
  }
  return kInvalidEdge;
}

void Graph::PointAlongEdge(EdgeId e, double fraction, double* x,
                           double* y) const {
  const Edge& ed = edges_[e];
  const Vertex& a = vertices_[ed.from];
  const Vertex& b = vertices_[ed.to];
  fraction = std::clamp(fraction, 0.0, 1.0);
  *x = a.x + fraction * (b.x - a.x);
  *y = a.y + fraction * (b.y - a.y);
}

double Graph::DistanceToEdge(EdgeId e, double x, double y,
                             double* closest_fraction) const {
  const Edge& ed = edges_[e];
  const Vertex& a = vertices_[ed.from];
  const Vertex& b = vertices_[ed.to];
  const double abx = b.x - a.x;
  const double aby = b.y - a.y;
  const double len2 = abx * abx + aby * aby;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((x - a.x) * abx + (y - a.y) * aby) / len2;
    t = std::clamp(t, 0.0, 1.0);
  }
  const double px = a.x + t * abx;
  const double py = a.y + t * aby;
  if (closest_fraction != nullptr) *closest_fraction = t;
  return Distance(x, y, px, py);
}

}  // namespace roadnet
}  // namespace pcde
