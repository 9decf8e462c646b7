#include "roadnet/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace pcde {
namespace roadnet {

namespace {

/// Packs a cell's coordinates into its key: cx in the high 32 bits, the low
/// 32 bits of cy in the low ones. The shift runs on uint64_t because
/// left-shifting a negative int64_t is undefined before C++20; the key bits
/// are the same either way.
int64_t CellKeyOf(int64_t cx, int64_t cy) {
  return static_cast<int64_t>(
      (static_cast<uint64_t>(cx) << 32) ^
      (static_cast<uint64_t>(cy) & 0xffffffffu));
}

}  // namespace

SpatialIndex::SpatialIndex(const Graph& g, double cell_size_m)
    : graph_(g), cell_size_m_(cell_size_m) {
  for (const Edge& e : g.edges()) {
    const Vertex& a = g.vertex(e.from);
    const Vertex& b = g.vertex(e.to);
    // Insert the edge into every cell its bounding box overlaps. Edges are
    // short relative to cells, so the box is a tight approximation.
    const int64_t cx0 = static_cast<int64_t>(
        std::floor(std::min(a.x, b.x) / cell_size_m_));
    const int64_t cx1 = static_cast<int64_t>(
        std::floor(std::max(a.x, b.x) / cell_size_m_));
    const int64_t cy0 = static_cast<int64_t>(
        std::floor(std::min(a.y, b.y) / cell_size_m_));
    const int64_t cy1 = static_cast<int64_t>(
        std::floor(std::max(a.y, b.y) / cell_size_m_));
    for (int64_t cx = cx0; cx <= cx1; ++cx) {
      for (int64_t cy = cy0; cy <= cy1; ++cy) {
        cells_[CellKeyOf(cx, cy)].push_back(e.id);
      }
    }
  }
}

SpatialIndex::CellKey SpatialIndex::KeyFor(double x, double y) const {
  const int64_t cx = static_cast<int64_t>(std::floor(x / cell_size_m_));
  const int64_t cy = static_cast<int64_t>(std::floor(y / cell_size_m_));
  return CellKeyOf(cx, cy);
}

std::vector<SpatialIndex::Candidate> SpatialIndex::EdgesNear(
    double x, double y, double radius_m) const {
  std::vector<Candidate> result;
  std::unordered_set<EdgeId> seen;
  const int64_t cx0 = static_cast<int64_t>(std::floor((x - radius_m) / cell_size_m_));
  const int64_t cx1 = static_cast<int64_t>(std::floor((x + radius_m) / cell_size_m_));
  const int64_t cy0 = static_cast<int64_t>(std::floor((y - radius_m) / cell_size_m_));
  const int64_t cy1 = static_cast<int64_t>(std::floor((y + radius_m) / cell_size_m_));
  for (int64_t cx = cx0; cx <= cx1; ++cx) {
    for (int64_t cy = cy0; cy <= cy1; ++cy) {
      auto it = cells_.find(CellKeyOf(cx, cy));
      if (it == cells_.end()) continue;
      for (EdgeId e : it->second) {
        if (!seen.insert(e).second) continue;
        double fraction = 0.0;
        const double d = graph_.DistanceToEdge(e, x, y, &fraction);
        if (d <= radius_m) result.push_back(Candidate{e, d, fraction});
      }
    }
  }
  std::sort(result.begin(), result.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.distance_m < b.distance_m;
            });
  return result;
}

SpatialIndex::Candidate SpatialIndex::NearestEdge(double x, double y,
                                                  double radius_m) const {
  std::vector<Candidate> all = EdgesNear(x, y, radius_m);
  if (all.empty()) return Candidate{};
  return all.front();
}

}  // namespace roadnet
}  // namespace pcde
