// Stochastic budget routing (Sec. 4.3): find the path that maximizes the
// probability of arriving within a travel-time budget, with the hybrid
// graph (OD) and the legacy baseline (LB) as the cost estimator — the
// integration the paper's Fig. 18 measures, served through the Engine:
// one frozen artifact, one Engine per estimation policy, RouteRequest in,
// RouteResponse out.
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "common/scoped_file.h"
#include "common/stopwatch.h"
#include "common/table_writer.h"
#include "core/instantiation.h"
#include "core/serialization.h"
#include "roadnet/shortest_path.h"
#include "serving/engine.h"
#include "traj/generator.h"
#include "traj/store.h"

int main() {
  using namespace pcde;
  std::printf("Stochastic budget routing with the hybrid graph\n\n");
  traj::Dataset city = traj::MakeDatasetA(8000);
  traj::TrajectoryStore store(city.MatchedSlice(1.0));
  core::HybridParams params;
  params.beta = 15;
  const core::PathWeightFunction wp =
      core::InstantiateWeightFunction(*city.graph, store, params);
  const roadnet::Graph& g = *city.graph;

  // One frozen artifact; every routing engine below serves from it.
  const std::string artifact = MakeTempArtifactPath("pcde_routing");
  if (auto s = core::SaveWeightFunctionBinary(wp, artifact); !s.ok()) {
    std::printf("save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const ScopedFileRemover cleanup(artifact);

  // A cross-town query during the morning rush, with a budget of the
  // free-flow time: tight enough that every search below finishes well
  // under the expansion cap, so each row is an exact answer rather than an
  // anytime cutoff (at 1.1 x free flow the plain searches hit the cap).
  serving::RouteRequest request;
  request.from = 5;
  request.to = static_cast<roadnet::VertexId>(g.NumVertices() / 2 + 9);
  const double min_time = roadnet::ShortestPathCost(
      g, request.from, request.to, roadnet::FreeFlowWeight(g));
  if (min_time == roadnet::kInfCost) {
    std::printf("unreachable pair\n");
    return 1;
  }
  request.budget_seconds = min_time;
  request.departure_time = traj::HoursToSeconds(8.0);
  std::printf("from v%u to v%u, depart 08:00, free-flow minimum %.0f s, "
              "budget %.0f s\n\n",
              request.from, request.to, min_time, request.budget_seconds);

  TableWriter table({"estimator", "P(on time)", "|path|", "expansions",
                     "candidates", "truncated", "time (ms)"});
  bool all_exact = true;
  for (auto [name, policy, cap] :
       {std::tuple<const char*, core::DecompositionPolicy, size_t>{
            "OD-DFS", core::DecompositionPolicy::kCoarsest, 0},
        {"HP-DFS", core::DecompositionPolicy::kPairwise, 2},
        {"LB-DFS", core::DecompositionPolicy::kUnit, 1}}) {
    serving::EngineOptions options;
    options.model_path = artifact;
    options.graph = &g;
    options.estimate.policy = policy;
    options.estimate.rank_cap = cap;
    options.route_max_expansions = 100000;
    auto engine = serving::Engine::Open(std::move(options));
    if (!engine.ok()) {
      std::printf("Engine::Open failed: %s\n",
                  engine.status().ToString().c_str());
      return 1;
    }
    Stopwatch watch;
    auto response = engine.value()->Route(request);
    const double ms = watch.ElapsedMillis();
    if (!response.ok()) {
      std::printf("%s: Route failed: %s\n", name,
                  response.status().ToString().c_str());
      table.AddRow({name, "-", "-", "-", "-", "-", TableWriter::Num(ms, 1)});
      all_exact = false;
      continue;
    }
    all_exact = all_exact && !response.value().truncated;
    table.AddRow(
        {name, TableWriter::Num(response.value().on_time_probability, 4),
         std::to_string(response.value().best_path.size()),
         std::to_string(response.value().expansions),
         std::to_string(response.value().candidate_paths),
         response.value().truncated ? "yes" : "no", TableWriter::Num(ms, 1)});
  }
  table.Print();
  if (!all_exact) {
    std::printf("\nFAIL: a search failed or stopped at the expansion cap, "
                "so its row is not the most probable path.\n");
    return 1;
  }
  std::printf("\nThe same DFS algorithm runs with each estimator plugged\n"
              "in; every search finished under the expansion cap, so each\n"
              "row is the most probable path under that estimator.\n");
  return 0;
}
