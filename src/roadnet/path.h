// Paths (Sec. 2.1): sequences of adjacent edges connecting distinct
// vertices, plus the path algebra the paper uses — sub-path testing,
// intersection (Pi ∩ Pj), difference (Pi \ Pj), and concatenation.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "roadnet/graph.h"

namespace pcde {
namespace roadnet {

/// \brief A path: an ordered sequence of edge ids.
///
/// Construction via Path::Make validates the paper's definition: edges are
/// pairwise adjacent (e_i.d == e_{i+1}.s) and the visited vertices are
/// distinct (simple path). A default-constructed Path is empty; an empty
/// path is a valid identity for Append but is not a paper-path (|P| >= 1
/// for unit paths).
class Path {
 public:
  Path() = default;
  /// Unvalidated construction; used internally where validity is implied
  /// (e.g., contiguous slices of an already-valid path).
  explicit Path(std::vector<EdgeId> edges) : edges_(std::move(edges)) {}

  /// Validated construction per the paper's definition.
  static StatusOr<Path> Make(const Graph& g, std::vector<EdgeId> edges);

  size_t size() const { return edges_.size(); }  // |P|, the cardinality
  bool empty() const { return edges_.empty(); }
  EdgeId front() const { return edges_.front(); }
  EdgeId back() const { return edges_.back(); }
  EdgeId operator[](size_t i) const { return edges_[i]; }
  const std::vector<EdgeId>& edges() const { return edges_; }

  auto begin() const { return edges_.begin(); }
  auto end() const { return edges_.end(); }

  /// Contiguous slice [begin, begin+count) — always a valid sub-path of a
  /// valid path.
  Path Slice(size_t begin, size_t count) const;

  /// True iff `other` occurs in this path as a contiguous edge sequence
  /// (the paper's sub-path relation). Empty paths are not sub-paths.
  bool ContainsSubPath(const Path& other) const;

  /// Index of the first edge of `other` within this path, or npos.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t FindSubPath(const Path& other) const;

  /// Pi ∩ Pj: the longest contiguous edge sequence shared by both paths
  /// (e.g., <e1,e2,e3> ∩ <e2,e3,e4> = <e2,e3>). Returns an empty path when
  /// the paths share nothing.
  Path Intersect(const Path& other) const;

  /// Pi minus Pj: the edges of this path that are not in `other`, which form
  /// a contiguous prefix/suffix in the paper's usage (e.g., <e1,e2,e3> minus
  /// <e2,e3,e4> = <e1>). Returns InvalidArgument if the remainder is not
  /// contiguous (so the result would not be a path).
  StatusOr<Path> Subtract(const Path& other) const;

  /// Concatenation P = this ∘ other; valid only if `other` continues where
  /// this path ends and the result is still simple.
  StatusOr<Path> Concat(const Graph& g, const Path& other) const;

  /// Extends the path by one adjacent edge ("path + another edge", the
  /// exploration pattern of stochastic routing algorithms, Sec. 4.3).
  StatusOr<Path> Append(const Graph& g, EdgeId e) const;

  /// Total length in meters.
  double LengthMeters(const Graph& g) const;

  /// Sum of free-flow edge traversal times (lower bound on travel time).
  double FreeFlowSeconds(const Graph& g) const;

  /// Ordered list of visited vertices (|P| + 1 entries for non-empty paths).
  std::vector<VertexId> Vertices(const Graph& g) const;

  std::string ToString() const;

  bool operator==(const Path& o) const { return edges_ == o.edges_; }
  bool operator!=(const Path& o) const { return !(*this == o); }

 private:
  std::vector<EdgeId> edges_;
};

/// Hash functor so paths can key unordered containers (sub-path occurrence
/// counting, instantiated-variable lookup).
struct PathHash {
  size_t operator()(const Path& p) const {
    size_t h = 1469598103934665603ull;  // FNV offset basis
    for (EdgeId e : p.edges()) {
      h ^= static_cast<size_t>(e) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// Validates the paper's path definition on a raw edge sequence:
/// InvalidArgument for an empty path, any edge id outside `g` (checked
/// before anything else reads an edge), the first non-adjacent pair, or a
/// revisited vertex. Thread-safe; it allocates nothing once the calling
/// thread's visited marks (4 bytes per vertex of the largest graph it has
/// validated on) cover `g`.
Status ValidatePath(const Graph& g, const std::vector<EdgeId>& edges);

}  // namespace roadnet
}  // namespace pcde
