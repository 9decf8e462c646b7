// Figure 18 — stochastic routing time: the DFS budget-routing algorithm
// of [10] runs with LB, HP, and OD as its cost-distribution estimator;
// the hybrid graph accelerates the existing routing algorithm.
#include <cstdio>

#include "bench/bench_common.h"
#include "roadnet/shortest_path.h"
#include "routing/stochastic_router.h"

namespace pcde {
namespace bench {
namespace {

struct Pair {
  roadnet::VertexId from;
  roadnet::VertexId to;
  double min_time;
};

void Run(const char* name, const BenchDataset& ds) {
  core::HybridParams params;
  params.beta = 20;
  const auto wp =
      core::InstantiateWeightFunction(*ds.data.graph, ds.store, params);
  const roadnet::Graph& g = *ds.data.graph;

  // Source-destination pairs with moderate distance (budget-feasible but
  // non-trivial searches).
  Rng rng(818);
  std::vector<Pair> pairs;
  const auto weight = roadnet::FreeFlowWeight(g);
  while (pairs.size() < 20) {
    const auto from = static_cast<roadnet::VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    const auto to = static_cast<roadnet::VertexId>(
        rng.UniformInt(0, static_cast<int64_t>(g.NumVertices()) - 1));
    if (from == to) continue;
    const double t = roadnet::ShortestPathCost(g, from, to, weight);
    if (t == roadnet::kInfCost || t < 120.0 || t > 330.0) continue;
    pairs.push_back(Pair{from, to, t});
  }

  std::printf("Figure 18 (dataset %s): avg routing time over %zu pairs\n",
              name, pairs.size());
  TableWriter table({"budget", "LB-DFS (ms)", "HP-DFS (ms)", "OD-DFS (ms)",
                     "solved LB/HP/OD"});
  struct MethodCfg {
    const char* name;
    core::EstimateOptions options;
  };
  std::vector<MethodCfg> methods(3);
  methods[0].name = "LB";
  methods[0].options.policy = core::DecompositionPolicy::kUnit;
  methods[0].options.rank_cap = 1;
  methods[1].name = "HP";
  methods[1].options.policy = core::DecompositionPolicy::kPairwise;
  methods[1].options.rank_cap = 2;
  methods[2].name = "OD";
  methods[2].options.policy = core::DecompositionPolicy::kCoarsest;

  // No pool: each search runs sequentially on this thread, as the
  // paper's DFS does.
  routing::RouterConfig router_config;
  router_config.max_expansions = 15000;

  for (double scale : {1.1, 1.2, 1.3}) {  // S1 < S2 < S3 budgets
    double ms[3] = {0, 0, 0};
    size_t solved[3] = {0, 0, 0};
    for (int m = 0; m < 3; ++m) {
      routing::DfsStochasticRouter router(g, wp, methods[m].options,
                                          router_config);
      Stopwatch watch;
      for (const Pair& p : pairs) {
        auto result = router.Route(p.from, p.to, traj::HoursToSeconds(8.0),
                                   p.min_time * scale);
        if (result.ok()) ++solved[m];
      }
      ms[m] = watch.ElapsedMillis() / static_cast<double>(pairs.size());
    }
    table.AddRow({"S x " + TableWriter::Num(scale, 2),
                  TableWriter::Num(ms[0], 1), TableWriter::Num(ms[1], 1),
                  TableWriter::Num(ms[2], 1),
                  std::to_string(solved[0]) + "/" + std::to_string(solved[1]) +
                      "/" + std::to_string(solved[2])});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace bench
}  // namespace pcde

int main() {
  using namespace pcde::bench;
  const BenchDataset a = MakeA();
  Run("A", a);
  const BenchDataset b = MakeB();
  Run("B", b);
  std::printf("Paper shape: OD-DFS outperforms HP-DFS and LB-DFS at every\n"
              "budget — swapping the estimator accelerates an existing\n"
              "stochastic routing algorithm.\n");
  return 0;
}
