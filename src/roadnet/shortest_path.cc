#include "roadnet/shortest_path.h"

#include <algorithm>
#include <queue>

namespace pcde {
namespace roadnet {

EdgeWeightFn FreeFlowWeight(const Graph&) {
  return [](const Edge& e) { return e.FreeFlowSeconds(); };
}

EdgeWeightFn LengthWeight(const Graph&) {
  return [](const Edge& e) { return e.length_m; };
}

namespace {

struct QueueEntry {
  double cost;
  VertexId vertex;
  bool operator>(const QueueEntry& o) const { return cost > o.cost; }
};

using MinQueue =
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>;

}  // namespace

StatusOr<Path> ShortestPath(const Graph& g, VertexId from, VertexId to,
                            const EdgeWeightFn& weight) {
  if (from >= g.NumVertices() || to >= g.NumVertices()) {
    return Status::InvalidArgument("ShortestPath: unknown vertex");
  }
  if (from == to) {
    return Status::InvalidArgument("ShortestPath: trivial query (from == to)");
  }
  std::vector<double> dist(g.NumVertices(), kInfCost);
  std::vector<EdgeId> parent_edge(g.NumVertices(), kInvalidEdge);
  MinQueue queue;
  dist[from] = 0.0;
  queue.push({0.0, from});
  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (top.cost > dist[top.vertex]) continue;
    if (top.vertex == to) break;
    for (EdgeId e : g.OutEdges(top.vertex)) {
      const Edge& edge = g.edge(e);
      const double next = top.cost + weight(edge);
      if (next < dist[edge.to]) {
        dist[edge.to] = next;
        parent_edge[edge.to] = e;
        queue.push({next, edge.to});
      }
    }
  }
  if (parent_edge[to] == kInvalidEdge) {
    return Status::NotFound("ShortestPath: destination unreachable");
  }
  std::vector<EdgeId> edges;
  for (VertexId v = to; v != from;) {
    const EdgeId e = parent_edge[v];
    edges.push_back(e);
    v = g.edge(e).from;
  }
  std::reverse(edges.begin(), edges.end());
  return Path(std::move(edges));
}

double ShortestPathCost(const Graph& g, VertexId from, VertexId to,
                        const EdgeWeightFn& weight, double max_cost) {
  if (from == to) return 0.0;
  std::vector<double> dist(g.NumVertices(), kInfCost);
  MinQueue queue;
  dist[from] = 0.0;
  queue.push({0.0, from});
  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (top.cost > dist[top.vertex]) continue;
    if (top.vertex == to) return top.cost;
    if (top.cost > max_cost) break;
    for (EdgeId e : g.OutEdges(top.vertex)) {
      const Edge& edge = g.edge(e);
      const double next = top.cost + weight(edge);
      if (next < dist[edge.to]) {
        dist[edge.to] = next;
        queue.push({next, edge.to});
      }
    }
  }
  return dist[to];
}

std::vector<double> ShortestPathTree(const Graph& g, VertexId from,
                                     const EdgeWeightFn& weight,
                                     double max_cost) {
  std::vector<double> dist(g.NumVertices(), kInfCost);
  MinQueue queue;
  dist[from] = 0.0;
  queue.push({0.0, from});
  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (top.cost > dist[top.vertex]) continue;
    if (top.cost > max_cost) break;  // everything left costs more
    for (EdgeId e : g.OutEdges(top.vertex)) {
      const Edge& edge = g.edge(e);
      const double next = top.cost + weight(edge);
      if (next < dist[edge.to]) {
        dist[edge.to] = next;
        queue.push({next, edge.to});
      }
    }
  }
  return dist;
}

std::vector<double> ReverseShortestPathTree(const Graph& g, VertexId to,
                                            const EdgeWeightFn& weight,
                                            double max_cost) {
  std::vector<double> dist(g.NumVertices(), kInfCost);
  MinQueue queue;
  dist[to] = 0.0;
  queue.push({0.0, to});
  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (top.cost > dist[top.vertex]) continue;
    if (top.cost > max_cost) break;  // everything left costs more
    for (EdgeId e : g.InEdges(top.vertex)) {
      const Edge& edge = g.edge(e);
      const double next = top.cost + weight(edge);
      if (next < dist[edge.from]) {
        dist[edge.from] = next;
        queue.push({next, edge.from});
      }
    }
  }
  return dist;
}

}  // namespace roadnet
}  // namespace pcde
