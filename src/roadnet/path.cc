#include "roadnet/path.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace pcde {
namespace roadnet {

namespace {

/// Per-thread visited marks for ValidatePath, indexed by vertex id: a
/// vertex is visited in the current call iff its mark equals the call's
/// stamp. Each call takes a fresh stamp, so nothing is cleared between
/// calls and nothing is allocated once the array covers the graph.
struct VisitMarks {
  std::vector<uint32_t> mark;
  uint32_t stamp = 0;

  /// Starts a call over a graph of `num_vertices` vertices.
  void Begin(size_t num_vertices) {
    if (mark.size() < num_vertices) mark.resize(num_vertices, 0);
    if (++stamp == 0) {  // wrapped: old marks could alias the new stamp
      std::fill(mark.begin(), mark.end(), 0);
      stamp = 1;
    }
  }
  /// Marks `v`; false when it was already marked in this call.
  bool Visit(VertexId v) {
    if (mark[v] == stamp) return false;
    mark[v] = stamp;
    return true;
  }
};

}  // namespace

Status ValidatePath(const Graph& g, const std::vector<EdgeId>& edges) {
  if (edges.empty()) {
    return Status::InvalidArgument("path must contain at least one edge");
  }
  // Every id first: the adjacency test below reads both of its edges.
  for (EdgeId e : edges) {
    if (e >= g.NumEdges()) {
      return Status::InvalidArgument("unknown edge id in path");
    }
  }
  thread_local VisitMarks seen;
  seen.Begin(g.NumVertices());
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i + 1 < edges.size() && !g.AreAdjacent(edges[i], edges[i + 1])) {
      return Status::InvalidArgument("edges are not adjacent at position " +
                                     std::to_string(i));
    }
    if (!seen.Visit(g.edge(edges[i]).from)) {
      return Status::InvalidArgument("path revisits a vertex (not simple)");
    }
  }
  if (!seen.Visit(g.edge(edges.back()).to)) {
    return Status::InvalidArgument("path revisits its final vertex");
  }
  return Status::OK();
}

StatusOr<Path> Path::Make(const Graph& g, std::vector<EdgeId> edges) {
  PCDE_RETURN_NOT_OK(ValidatePath(g, edges));
  return Path(std::move(edges));
}

Path Path::Slice(size_t begin, size_t count) const {
  if (begin >= edges_.size()) return Path();
  count = std::min(count, edges_.size() - begin);
  return Path(std::vector<EdgeId>(edges_.begin() + begin,
                                  edges_.begin() + begin + count));
}

size_t Path::FindSubPath(const Path& other) const {
  if (other.empty() || other.size() > edges_.size()) return npos;
  auto it = std::search(edges_.begin(), edges_.end(), other.edges_.begin(),
                        other.edges_.end());
  if (it == edges_.end()) return npos;
  return static_cast<size_t>(it - edges_.begin());
}

bool Path::ContainsSubPath(const Path& other) const {
  return FindSubPath(other) != npos;
}

Path Path::Intersect(const Path& other) const {
  // Longest contiguous common edge sequence. Paths in this library are
  // simple, so each edge occurs at most once per path; an O(n*m) sweep over
  // aligned runs is ample for road-path cardinalities.
  size_t best_len = 0;
  size_t best_start = 0;
  for (size_t i = 0; i < edges_.size(); ++i) {
    for (size_t j = 0; j < other.edges_.size(); ++j) {
      if (edges_[i] != other.edges_[j]) continue;
      size_t len = 0;
      while (i + len < edges_.size() && j + len < other.edges_.size() &&
             edges_[i + len] == other.edges_[j + len]) {
        ++len;
      }
      if (len > best_len) {
        best_len = len;
        best_start = i;
      }
    }
  }
  return Slice(best_start, best_len);
}

StatusOr<Path> Path::Subtract(const Path& other) const {
  std::unordered_set<EdgeId> exclude(other.edges_.begin(), other.edges_.end());
  std::vector<EdgeId> kept;
  // The remainder must be contiguous to be a path; detect gaps.
  bool in_run = false;
  bool run_ended = false;
  for (EdgeId e : edges_) {
    if (exclude.count(e) == 0) {
      if (run_ended) {
        return Status::InvalidArgument(
            "Subtract: remainder is not contiguous; not a path");
      }
      kept.push_back(e);
      in_run = true;
    } else if (in_run) {
      run_ended = true;
      in_run = false;
    }
  }
  return Path(std::move(kept));
}

StatusOr<Path> Path::Concat(const Graph& g, const Path& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  std::vector<EdgeId> joined = edges_;
  joined.insert(joined.end(), other.edges_.begin(), other.edges_.end());
  PCDE_RETURN_NOT_OK(ValidatePath(g, joined));
  return Path(std::move(joined));
}

StatusOr<Path> Path::Append(const Graph& g, EdgeId e) const {
  std::vector<EdgeId> joined = edges_;
  joined.push_back(e);
  PCDE_RETURN_NOT_OK(ValidatePath(g, joined));
  return Path(std::move(joined));
}

double Path::LengthMeters(const Graph& g) const {
  double total = 0.0;
  for (EdgeId e : edges_) total += g.edge(e).length_m;
  return total;
}

double Path::FreeFlowSeconds(const Graph& g) const {
  double total = 0.0;
  for (EdgeId e : edges_) total += g.edge(e).FreeFlowSeconds();
  return total;
}

std::vector<VertexId> Path::Vertices(const Graph& g) const {
  std::vector<VertexId> vs;
  if (empty()) return vs;
  vs.reserve(edges_.size() + 1);
  for (EdgeId e : edges_) vs.push_back(g.edge(e).from);
  vs.push_back(g.edge(edges_.back()).to);
  return vs;
}

std::string Path::ToString() const {
  std::ostringstream os;
  os << "<";
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (i > 0) os << ",";
    os << "e" << edges_[i];
  }
  os << ">";
  return os.str();
}

}  // namespace roadnet
}  // namespace pcde
