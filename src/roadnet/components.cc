#include "roadnet/components.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace pcde {
namespace roadnet {

StronglyConnectedComponents::StronglyConnectedComponents(const Graph& g)
    : num_edges_(g.NumEdges()) {
  constexpr uint32_t kUnvisited = std::numeric_limits<uint32_t>::max();
  const size_t n = g.NumVertices();
  component_.assign(n, kUnvisited);
  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> low(n, 0);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<VertexId> stack;
  // Tarjan's recursion as an explicit stack of (vertex, next out-edge), so
  // a long road chain cannot overflow the call stack.
  std::vector<std::pair<VertexId, size_t>> calls;
  uint32_t next_index = 0;
  uint32_t num_components = 0;
  auto visit = [&](VertexId v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = 1;
    calls.emplace_back(v, 0);
  };
  for (VertexId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    visit(root);
    while (!calls.empty()) {
      const VertexId v = calls.back().first;
      const std::vector<EdgeId>& out = g.OutEdges(v);
      if (calls.back().second < out.size()) {
        const VertexId w = g.edge(out[calls.back().second++]).to;
        if (index[w] == kUnvisited) {
          visit(w);
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      calls.pop_back();
      if (!calls.empty()) {
        const VertexId parent = calls.back().first;
        low[parent] = std::min(low[parent], low[v]);
      }
      if (low[v] != index[v]) continue;
      VertexId w;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[w] = 0;
        component_[w] = num_components;
      } while (w != v);
      ++num_components;
    }
  }

  std::vector<std::pair<uint32_t, uint32_t>> edges;  // (to, from) component
  for (const Edge& e : g.edges()) {
    const uint32_t from = component_[e.from];
    const uint32_t to = component_[e.to];
    if (from != to) edges.emplace_back(to, from);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  pred_offsets_.assign(num_components + 1, 0);
  preds_.reserve(edges.size());
  for (const auto& [to, from] : edges) {
    ++pred_offsets_[to + 1];
    preds_.push_back(from);
  }
  for (uint32_t c = 0; c < num_components; ++c) {
    pred_offsets_[c + 1] += pred_offsets_[c];
  }
}

std::vector<uint8_t> StronglyConnectedComponents::ComponentsReaching(
    VertexId to) const {
  std::vector<uint8_t> reaches(NumComponents(), 0);
  std::vector<uint32_t> stack{component_[to]};
  reaches[component_[to]] = 1;
  while (!stack.empty()) {
    const uint32_t c = stack.back();
    stack.pop_back();
    for (uint32_t i = pred_offsets_[c]; i < pred_offsets_[c + 1]; ++i) {
      if (reaches[preds_[i]]) continue;
      reaches[preds_[i]] = 1;
      stack.push_back(preds_[i]);
    }
  }
  return reaches;
}

}  // namespace roadnet
}  // namespace pcde
