// Figure 16 — efficiency of cost-distribution estimation as the query
// path grows, for OD, RD, HP, LB and the rank-capped OD-2/3/4 variants
// (google-benchmark; one timing series per method and cardinality).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "common/scoped_file.h"
#include "core/serialization.h"
#include "serving/engine.h"

namespace pcde {
namespace bench {
namespace {

struct Fig16State {
  std::unique_ptr<BenchDataset> data;
  std::unique_ptr<core::PathWeightFunction> wp;
  // Pre-generated query paths per cardinality (same paths for all
  // methods, so the series are comparable).
  std::map<size_t, std::vector<roadnet::Path>> queries;
  double depart = traj::HoursToSeconds(8.2);

  Fig16State() {
    data = std::make_unique<BenchDataset>(MakeA());
    core::HybridParams params;
    params.beta = 20;
    wp = std::make_unique<core::PathWeightFunction>(
        core::InstantiateWeightFunction(*data->data.graph, data->store,
                                        params));
    Rng rng(616);
    for (size_t card : {20, 40, 60, 80, 100}) {
      std::vector<roadnet::Path>& list = queries[card];
      while (list.size() < 10) {
        auto p = DataBiasedRandomPath(*data->data.graph, data->store, card,
                                      &rng);
        if (p.ok()) list.push_back(std::move(p).value());
      }
    }
  }
};

Fig16State* state = nullptr;

void EstimateLoop(benchmark::State& bench_state,
                  const core::HybridEstimator& estimator, size_t card) {
  const auto& paths = state->queries[card];
  size_t i = 0;
  for (auto _ : bench_state) {
    auto est = estimator.EstimateCostDistribution(paths[i % paths.size()],
                                                  state->depart);
    benchmark::DoNotOptimize(est);
    ++i;
  }
}

/// The serving-layer shape: all queries of one cardinality issued as one
/// Engine::EstimateBatch on the engine's pool (items/sec is the per-query
/// rate).
void BatchEstimateLoop(benchmark::State& bench_state,
                       const serving::Engine& engine, size_t card) {
  const auto& paths = state->queries[card];
  std::vector<serving::EstimateRequest> requests;
  requests.reserve(paths.size());
  for (const auto& p : paths) {
    serving::EstimateRequest request;
    request.path = serving::PathSpec::ExplicitPath(p);
    request.departure_time = state->depart;
    requests.push_back(std::move(request));
  }
  for (auto _ : bench_state) {
    auto responses = engine.EstimateBatch(requests);
    benchmark::DoNotOptimize(responses);
  }
  bench_state.SetItemsProcessed(
      static_cast<int64_t>(bench_state.iterations() * requests.size()));
}

}  // namespace
}  // namespace bench
}  // namespace pcde

int main(int argc, char** argv) {
  using namespace pcde;
  using namespace pcde::bench;
  std::printf("Figure 16: run time of path cost distribution estimation\n"
              "(dataset A; series per method, Args = |P_query|)\n");
  state = new Fig16State();

  struct Method {
    const char* name;
    core::HybridEstimator estimator;
  };
  std::vector<Method>* methods = new std::vector<Method>();
  methods->push_back({"OD", baselines::MakeOd(*state->wp)});
  methods->push_back({"RD", baselines::MakeRd(*state->wp)});
  methods->push_back({"HP", baselines::MakeHp(*state->wp)});
  methods->push_back({"LB", baselines::MakeLb(*state->wp)});
  methods->push_back({"OD-2", baselines::MakeOdCapped(*state->wp, 2)});
  methods->push_back({"OD-3", baselines::MakeOdCapped(*state->wp, 3)});
  methods->push_back({"OD-4", baselines::MakeOdCapped(*state->wp, 4)});

  for (const auto& m : *methods) {
    auto* bench = benchmark::RegisterBenchmark(
        m.name,
        [&m](benchmark::State& s) {
          pcde::bench::EstimateLoop(s, m.estimator,
                                    static_cast<size_t>(s.range(0)));
        });
    for (size_t card : {20, 40, 60, 80, 100}) {
      bench->Arg(static_cast<int>(card));
    }
    bench->Unit(benchmark::kMillisecond);
  }

  // OD through the parallel batch layer (the multi-user serving path):
  // an Engine over the saved model with OD options, one pool thread per
  // hardware thread, and no query cache, so every request is estimated.
  const std::string artifact = MakeTempArtifactPath("pcde_fig16_model");
  const ScopedFileRemover artifact_cleanup(artifact);
  if (!core::SaveWeightFunctionBinary(*state->wp, artifact).ok()) {
    std::fprintf(stderr, "failed to save the OD-batch model artifact\n");
    return 1;
  }
  serving::EngineOptions engine_options;
  engine_options.model_path = artifact;
  engine_options.estimate = baselines::MakeOd(*state->wp).options();
  engine_options.num_threads = 0;
  engine_options.query_cache_bytes = 0;
  auto opened = serving::Engine::Open(std::move(engine_options));
  if (!opened.ok()) {
    std::fprintf(stderr, "Engine::Open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const serving::Engine* od_batch = opened.value().release();
  auto* batch_bench = benchmark::RegisterBenchmark(
      "OD-batch", [od_batch](benchmark::State& s) {
        pcde::bench::BatchEstimateLoop(s, *od_batch,
                                       static_cast<size_t>(s.range(0)));
      });
  for (size_t card : {20, 40, 60, 80, 100}) {
    batch_bench->Arg(static_cast<int>(card));
  }
  batch_bench->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\nPaper shape: OD is fastest (fewest, coarsest variables);\n"
              "OD-x gets slower as x shrinks; HP and LB are slowest since\n"
              "they touch at least |P_query| variables.\n");
  return 0;
}
