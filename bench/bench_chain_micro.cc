// Chain-estimation microbench: isolates the Eq. 2 sweep (the JC phase that
// dominates Figs. 16-17) on pre-built decompositions of data-rich query
// paths, measures the rewritten ChainSweeper against the pre-rewrite
// reference kernel, then the serving layers on top — the batch and routing
// series run through serving::Engine (the production front door), with a
// paired sequential direct-HybridEstimator series isolating the facade's
// overhead — and writes the BENCH_chain.json perf record at the path given
// by argv[1] (default: ./BENCH_chain.json). See bench/README.md for the
// schema.
//
// Usage: bench_chain_micro [output.json] [reps]
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench/bench_common.h"
#include "common/scoped_file.h"
#include "core/chain_estimator_reference.h"
#include "core/serialization.h"
#include "core/shard_writer.h"
#include "routing/stochastic_router.h"
#include "serving/engine.h"

namespace pcde {
namespace bench {
namespace {

/// One workload query: an explicit path and its departure time.
struct Query {
  roadnet::Path path;
  double departure_time = 0.0;
};

struct Workload {
  std::unique_ptr<BenchDataset> data;
  std::unique_ptr<core::PathWeightFunction> wp;
  std::vector<core::Decomposition> decompositions;
  std::vector<Query> queries;
  core::InstantiationStats build_stats;

  Workload() {
    data = std::make_unique<BenchDataset>(MakeA());
    core::HybridParams params;
    params.beta = 20;  // the Fig. 16 instantiation
    wp = std::make_unique<core::PathWeightFunction>(
        core::InstantiateWeightFunction(*data->data.graph, data->store,
                                        params, &build_stats));
    // The Fig. 16 method mix: OD plus the chain-heavy HP and OD-2
    // baselines (rank-2 parts with a separator at every step are the
    // sweep's hot regime).
    core::EstimateOptions od, od2, hp;
    od2.rank_cap = 2;
    hp.policy = core::DecompositionPolicy::kPairwise;
    const double depart = traj::HoursToSeconds(8.2);
    Rng rng(616);
    for (size_t card : {20, 40, 60, 80}) {
      for (int i = 0; i < 4; ++i) {
        auto p = DataBiasedRandomPath(*data->data.graph, data->store, card,
                                      &rng);
        if (!p.ok()) continue;
        for (const core::EstimateOptions& options : {od, od2, hp}) {
          const core::HybridEstimator estimator(*wp, options);
          auto de = estimator.Decompose(p.value(), depart);
          if (!de.ok()) continue;
          queries.push_back(Query{p.value(), depart});
          decompositions.push_back(std::move(de).value());
        }
      }
    }
  }
};

struct KernelRun {
  std::vector<double> latencies;
  size_t max_states = 0;
  size_t failures = 0;
  PhaseTimer jc, mc;

  KernelSeries Finish(const char* name) {
    if (failures > 0) {
      std::fprintf(stderr, "%s: %zu estimations failed\n", name, failures);
    }
    KernelSeries out =
        KernelSeries::FromLatencies(name, std::move(latencies), max_states);
    out.jc_seconds = jc.total_seconds();
    out.mc_seconds = mc.total_seconds();
    return out;
  }
};

template <typename EstimateFn>
void MeasureOne(KernelRun* run, const core::Decomposition& de,
                EstimateFn&& estimate) {
  Stopwatch watch;
  const size_t states = estimate(de, &run->failures, &run->jc, &run->mc);
  run->latencies.push_back(watch.ElapsedSeconds());
  run->max_states = std::max(run->max_states, states);
}

/// Measures both kernels interleaved, back to back on each decomposition
/// with alternating order, so machine noise (shared single-core boxes)
/// cancels out of the speedup ratio instead of landing on whichever
/// kernel ran in the noisier window.
template <typename NewFn, typename RefFn>
std::pair<KernelSeries, KernelSeries> MeasurePaired(const Workload& w,
                                                    int reps, NewFn&& fn_new,
                                                    RefFn&& fn_ref) {
  KernelRun run_new, run_ref;
  const size_t total =
      w.decompositions.size() * static_cast<size_t>(reps);
  run_new.latencies.reserve(total);
  run_ref.latencies.reserve(total);
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < w.decompositions.size(); ++i) {
      const core::Decomposition& de = w.decompositions[i];
      if ((static_cast<size_t>(r) + i) % 2 == 0) {
        MeasureOne(&run_new, de, fn_new);
        MeasureOne(&run_ref, de, fn_ref);
      } else {
        MeasureOne(&run_ref, de, fn_ref);
        MeasureOne(&run_new, de, fn_new);
      }
    }
  }
  return {run_new.Finish("chain_sweep"),
          run_ref.Finish("chain_sweep_reference")};
}

/// The model series: offline build seconds, artifact save/load latency
/// (buffered and mmap) and size, and the serving-resident footprint of the
/// frozen model. Every reload is checked against the built model's
/// fingerprint — a mismatch means the artifact path is broken, so the
/// bench aborts.
bool MeasureModelSeries(const Workload& w, ModelSeries* out) {
  out->num_variables = w.wp->NumVariables();
  out->resident_bytes = w.wp->ResidentBytes();
  out->build_seconds = w.build_stats.build_seconds;
  const std::string path = MakeTempArtifactPath("pcde_bench_model");
  // Removed on every exit path, including the error returns below.
  const ScopedFileRemover cleanup(path);
  Stopwatch watch;
  const Status saved = core::SaveWeightFunctionBinary(*w.wp, path);
  out->save_seconds = watch.ElapsedSeconds();
  if (!saved.ok()) {
    std::fprintf(stderr, "model save failed: %s\n", saved.ToString().c_str());
    return false;
  }
  out->artifact_bytes = static_cast<size_t>(std::filesystem::file_size(path));
  for (bool use_mmap : {false, true}) {
    watch.Restart();
    auto loaded = core::LoadWeightFunctionBinary(path, use_mmap);
    (use_mmap ? out->mmap_load_seconds : out->load_seconds) =
        watch.ElapsedSeconds();
    if (!loaded.ok() || loaded.value().fingerprint() != w.wp->fingerprint()) {
      std::fprintf(stderr, "%s reload failed or fingerprint mismatch\n",
                   use_mmap ? "mmap" : "buffered");
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace pcde

int main(int argc, char** argv) {
  using namespace pcde;
  using namespace pcde::bench;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_chain.json";
  const int reps = argc > 2 ? std::atoi(argv[2]) : 12;

  std::printf(
      "chain microbench: building workload (dataset A, Fig. 16 mix)...\n");
  Workload w;
  std::printf("  %zu decompositions over %zu queries\n",
              w.decompositions.size(), w.queries.size());
  if (w.decompositions.empty()) {
    std::fprintf(stderr, "no decompositions; aborting\n");
    return 1;
  }

  const core::ChainOptions chain_options;
  std::vector<KernelSeries> series;

  auto paired = MeasurePaired(
      w, reps,
      [&](const core::Decomposition& de, size_t* failures, PhaseTimer* jc,
          PhaseTimer* mc) -> size_t {
        core::ChainDiagnostics diag;
        auto est =
            core::EstimateFromDecomposition(de, chain_options, &diag, jc, mc);
        if (!est.ok()) ++*failures;
        return diag.max_states;
      },
      [&](const core::Decomposition& de, size_t* failures, PhaseTimer* jc,
          PhaseTimer* mc) -> size_t {
        core::ChainDiagnostics diag;
        auto est = core::reference::ReferenceEstimateFromDecomposition(
            de, chain_options, &diag, jc, mc);
        if (!est.ok()) ++*failures;
        return diag.max_states;
      });
  series.push_back(std::move(paired.first));
  series.push_back(std::move(paired.second));

  // The serving layers below all run against the reloaded artifact — the
  // production flow. The loaded model is fingerprint-identical to the
  // built one, so every estimate is bit-identical to direct wiring over
  // w.wp.
  const std::string serving_artifact =
      MakeTempArtifactPath("pcde_bench_serving");
  if (!core::SaveWeightFunctionBinary(*w.wp, serving_artifact).ok()) {
    std::fprintf(stderr, "failed to save the serving artifact\n");
    return 1;
  }
  const ScopedFileRemover serving_cleanup(serving_artifact);
  auto open_engine = [&](size_t threads, size_t cache_bytes,
                         routing::PruningOptions route_pruning =
                             routing::PruningOptions())
      -> std::unique_ptr<serving::Engine> {
    serving::EngineOptions options;
    options.model_path = serving_artifact;
    options.graph = w.data->data.graph.get();
    options.num_threads = threads;
    options.query_cache_bytes = cache_bytes;
    options.route_max_expansions = 150000;
    options.route_max_path_edges = 24;
    options.route_pruning = route_pruning;
    auto engine = serving::Engine::Open(std::move(options));
    if (!engine.ok()) {
      std::fprintf(stderr, "Engine::Open failed: %s\n",
                   engine.status().ToString().c_str());
      return nullptr;
    }
    return std::move(engine).value();
  };

  // The batch layer over the same queries (end-to-end per query, so
  // request resolution + OI + JC + MC + summary, amortized across the
  // pool), served through the Engine, one series per pool size.
  // ops_per_sec is wall-clock batch throughput; p50/p99 are the responses'
  // serve_seconds, recorded per request inside the fan-out.
  std::vector<serving::EstimateRequest> requests;
  requests.reserve(w.queries.size());
  for (const Query& q : w.queries) {
    serving::EstimateRequest request;
    request.path = serving::PathSpec::ExplicitPath(q.path);
    request.departure_time = q.departure_time;
    requests.push_back(std::move(request));
  }
  const int batch_reps = std::max(1, reps / 4);
  struct BatchRun {
    std::vector<double> latencies;
    double wall_seconds = 0.0;
    size_t total = 0;
    uint64_t hits = 0, misses = 0;

    KernelSeries Finish(std::string name) {
      KernelSeries out =
          KernelSeries::FromLatencies(std::move(name), std::move(latencies), 0);
      out.iterations = total;
      out.ops_per_sec =
          static_cast<double>(total) / std::max(wall_seconds, 1e-12);
      out.cache_hits = hits;
      out.cache_misses = misses;
      return out;
    }
  };
  // Both batch runners abort the bench on any failed response (like the
  // routing identity check below): an error response is produced far
  // faster than a real estimate, so counting it as a served op would
  // silently inflate ops_per_sec and the engine_batch_vs_direct gate.
  auto engine_batch_once = [&](const serving::Engine& engine,
                               BatchRun* run) -> bool {
    // The cache columns stay 0 for cacheless engines, matching the direct
    // series' convention (they carry query-cache traffic, not a synthetic
    // all-miss count).
    const bool cache_attached = engine.query_cache() != nullptr;
    Stopwatch watch;
    auto responses = engine.EstimateBatch(requests);
    run->wall_seconds += watch.ElapsedSeconds();
    run->total += responses.size();
    for (const auto& response : responses) {
      if (!response.ok()) {
        std::fprintf(stderr, "engine batch request failed: %s\n",
                     response.status().ToString().c_str());
        return false;
      }
      run->latencies.push_back(response.value().serve_seconds);
      if (cache_attached) {
        (response.value().served_from_cache ? run->hits : run->misses) += 1;
      }
    }
    return true;
  };
  // The direct side of the facade-overhead pair: the same queries through
  // a plain sequential HybridEstimator loop on this thread, each timed
  // like a batch response's serve_seconds.
  auto direct_batch_once = [&](const core::HybridEstimator& estimator,
                               BatchRun* run) -> bool {
    Stopwatch wall;
    for (const Query& q : w.queries) {
      Stopwatch watch;
      auto result = estimator.EstimateCostDistribution(q.path,
                                                       q.departure_time);
      run->latencies.push_back(watch.ElapsedSeconds());
      if (!result.ok()) {
        std::fprintf(stderr, "direct query failed: %s\n",
                     result.status().ToString().c_str());
        return false;
      }
    }
    run->wall_seconds += wall.ElapsedSeconds();
    run->total += w.queries.size();
    return true;
  };

  // Facade-overhead pair on one thread: the Engine batch on a 1-thread
  // pool (every request on the caller) and the direct sequential loop over
  // the same queries, interleaved back to back with alternating order (the
  // MeasurePaired discipline) so the engine-vs-direct ratio is stable on
  // noisy shared machines.
  {
    auto engine = open_engine(/*threads=*/1, /*cache_bytes=*/0);
    if (engine == nullptr) return 1;
    core::HybridEstimator direct(*w.wp);
    BatchRun engine_run, direct_run;
    // Many interleaved reps: the headline is a two-sample ratio of ~25 ms
    // batches whose time a few multi-millisecond queries dominate, so with
    // few reps one preempted query or slow phase of the host decides it.
    const int paired_reps = std::max(32, 4 * reps);
    for (int r = 0; r < paired_reps; ++r) {
      const bool ok =
          r % 2 == 0
              ? engine_batch_once(*engine, &engine_run) &&
                    direct_batch_once(direct, &direct_run)
              : direct_batch_once(direct, &direct_run) &&
                    engine_batch_once(*engine, &engine_run);
      if (!ok) return 1;
    }
    series.push_back(engine_run.Finish("estimate_batch_threads_1"));
    series.push_back(direct_run.Finish("estimate_batch_direct_threads_1"));
  }
  for (size_t threads : {2, 4, 8}) {
    auto engine = open_engine(threads, /*cache_bytes=*/0);
    if (engine == nullptr) return 1;
    BatchRun run;
    for (int r = 0; r < batch_reps; ++r) {
      if (!engine_batch_once(*engine, &run)) return 1;
    }
    series.push_back(
        run.Finish("estimate_batch_threads_" + std::to_string(threads)));
  }
  {
    // The cached serving path: repeated batches against the engine's query
    // cache. The cache stores a result on its second offer, so one untimed
    // batch first offers every distinct request once (the workload asks
    // each path three times, once per method); the first timed batch then
    // inserts and every later one hits, as before admission needed a
    // second offer.
    auto engine = open_engine(/*threads=*/4,
                              /*cache_bytes=*/size_t{64} << 20);
    if (engine == nullptr) return 1;
    std::vector<serving::EstimateRequest> distinct;
    for (const serving::EstimateRequest& request : requests) {
      const bool seen = std::any_of(
          distinct.begin(), distinct.end(),
          [&](const serving::EstimateRequest& d) {
            return d.path.edges == request.path.edges &&
                   d.departure_time == request.departure_time;
          });
      if (!seen) distinct.push_back(request);
    }
    for (const auto& response : engine->EstimateBatch(distinct)) {
      if (!response.ok()) {
        std::fprintf(stderr, "untimed cache batch request failed: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
    }
    BatchRun run;
    for (int r = 0; r < std::max(2, batch_reps); ++r) {
      if (!engine_batch_once(*engine, &run)) return 1;
    }
    series.push_back(run.Finish("estimate_batch_cached_threads_4"));
  }

  // Routing series: the DFS stochastic router over OD pairs drawn from the
  // workload paths (12-edge windows at several offsets into each 20-edge
  // path, so the OD set mixes roots and regions), measured plain and with
  // the full pruning arsenal (routing/pruning.h). The pruned search must
  // match the plain on-time probability exactly — a divergence aborts the
  // bench.
  {
    const roadnet::Graph& graph = *w.data->data.graph;
    struct RouteCase {
      roadnet::VertexId from, to;
      double budget;
    };
    std::vector<RouteCase> cases;
    for (const Query& q : w.queries) {
      if (q.path.size() != 20) continue;  // shortest cardinality: bounded DFS
      for (const size_t offset : {size_t{0}, size_t{4}, size_t{8}}) {
        const size_t span = 12;
        if (offset + span > q.path.size()) break;
        double free_flow = 0.0;
        for (size_t i = offset; i < offset + span; ++i) {
          free_flow += graph.edge(q.path[i]).FreeFlowSeconds();
        }
        const RouteCase rc{graph.edge(q.path[offset]).from,
                           graph.edge(q.path[offset + span - 1]).to,
                           1.15 * free_flow};
        bool dup = false;
        for (const RouteCase& c : cases) {
          dup |= c.from == rc.from && c.to == rc.to;
        }
        if (dup) continue;
        cases.push_back(rc);
        if (cases.size() >= 12) break;
      }
      if (cases.size() >= 12) break;
    }
    if (cases.empty()) {
      // An empty case set would emit zero-iteration routing series and
      // make the pruned-vs-plain parity check vacuous.
      std::fprintf(stderr, "no routing cases in the workload; aborting\n");
      return 1;
    }
    // Two configurations route through the Engine (one pool thread, so the
    // DFS runs sequentially on the caller and the search itself is
    // measured): plain, and the pruned search (incumbent + dominance +
    // cheap-first, routing/pruning.h).
    auto plain_engine = open_engine(/*threads=*/1, /*cache_bytes=*/0);
    routing::PruningOptions all_pruners;
    all_pruners.incumbent = true;
    all_pruners.dominance = true;
    all_pruners.cheap_first = true;
    auto pruned_engine =
        open_engine(/*threads=*/1, /*cache_bytes=*/0, all_pruners);
    if (plain_engine == nullptr || pruned_engine == nullptr) {
      return 1;
    }
    const double depart = traj::HoursToSeconds(8.2);
    // Quality parity between the pruned and plain searches is only
    // contractual for complete (non-truncated) searches — a truncated
    // search is an anytime cutoff either way — so cases that hit the
    // expansion cap (or fail) are dropped up front. Cases whose budget is
    // barely makeable (plain on-time probability < 0.5) are dropped too:
    // the pruned series measures the regime probability-bound pruning
    // targets — budgets a route can actually make — not near-infeasible
    // budgets where no incumbent can dominate anything (bench/README.md
    // documents the selection).
    {
      std::vector<RouteCase> kept;
      for (const RouteCase& c : cases) {
        serving::RouteRequest request;
        request.from = c.from;
        request.to = c.to;
        request.departure_time = depart;
        request.budget_seconds = c.budget;
        auto response = plain_engine->Route(request);
        if (response.ok() && !response.value().truncated &&
            response.value().on_time_probability >= 0.5) {
          kept.push_back(c);
        }
      }
      if (kept.empty()) {
        std::fprintf(stderr,
                     "no non-truncated routing cases in the workload; "
                     "aborting\n");
        return 1;
      }
      cases.swap(kept);
    }
    const int route_reps = std::max(2, reps / 2);
    struct RouteOutcome {
      bool ok = false;
      serving::RouteResponse response;
    };
    // Interleaved back to back per (rep, case) with rotating order, the
    // MeasurePaired discipline: shared-machine noise cancels out of the
    // series-vs-series comparisons instead of landing on one series.
    std::vector<RouteOutcome> plain, pruned;
    std::vector<double> plain_lat, pruned_lat;
    plain_lat.reserve(cases.size() * static_cast<size_t>(route_reps));
    pruned_lat.reserve(cases.size() * static_cast<size_t>(route_reps));
    auto route_once = [&](const serving::Engine& engine, const RouteCase& c,
                          std::vector<double>* latencies,
                          std::vector<RouteOutcome>* outcomes, bool record) {
      serving::RouteRequest request;
      request.from = c.from;
      request.to = c.to;
      request.departure_time = depart;
      request.budget_seconds = c.budget;
      Stopwatch watch;
      auto response = engine.Route(request);
      latencies->push_back(watch.ElapsedSeconds());
      if (record) {
        RouteOutcome outcome;
        outcome.ok = response.ok();
        if (response.ok()) outcome.response = std::move(response).value();
        outcomes->push_back(std::move(outcome));
      }
    };
    struct Contender {
      const serving::Engine* engine;
      std::vector<double>* latencies;
      std::vector<RouteOutcome>* outcomes;
    };
    const Contender contenders[2] = {
        {plain_engine.get(), &plain_lat, &plain},
        {pruned_engine.get(), &pruned_lat, &pruned},
    };
    for (int r = 0; r < route_reps; ++r) {
      for (size_t i = 0; i < cases.size(); ++i) {
        const RouteCase& c = cases[i];
        const bool record = r == 0;
        const size_t first = (static_cast<size_t>(r) + i) % 2;
        for (size_t k = 0; k < 2; ++k) {
          const Contender& t = contenders[(first + k) % 2];
          route_once(*t.engine, c, t.latencies, t.outcomes, record);
        }
      }
    }
    series.push_back(
        KernelSeries::FromLatencies("route_dfs", std::move(plain_lat), 0));
    KernelSeries pruned_series = KernelSeries::FromLatencies(
        "route_dfs_pruned", std::move(pruned_lat), 0);
    // Per-pruner attribution of the recorded routes.
    for (const RouteOutcome& o : pruned) {
      if (!o.ok) continue;
      pruned_series.bound_pruned += o.response.bound_pruned;
      pruned_series.incumbent_pruned += o.response.incumbent_pruned;
      pruned_series.dominance_pruned += o.response.dominance_pruned;
      pruned_series.estimator_clones += o.response.estimator_clones;
    }
    series.push_back(std::move(pruned_series));
    for (size_t i = 0; i < plain.size(); ++i) {
      // The pruned search guarantees the exact probability, while
      // cheap-first expansion ordering may resolve an exact probability
      // tie to a different equally-good path.
      const bool pruned_same =
          plain[i].ok == pruned[i].ok &&
          (!plain[i].ok || plain[i].response.on_time_probability ==
                               pruned[i].response.on_time_probability);
      if (!pruned_same) {
        std::fprintf(stderr,
                     "pruned routing lost quality parity on case %zu "
                     "(plain p=%.17g pruned ok=%d p=%.17g)\n",
                     i, plain[i].ok ? plain[i].response.on_time_probability : -1.0,
                     static_cast<int>(pruned[i].ok),
                     pruned[i].ok ? pruned[i].response.on_time_probability : -1.0);
        return 1;
      }
    }
  }

  // Refresh series (zero-downtime model refresh, tests/refresh_fault_test.cc
  // is the correctness side): a second model generation — the speed-limit-
  // only baseline a fresh deployment serves before trajectories arrive — is
  // saved next to the data artifact, and Engine::Swap alternates between
  // the two generations so no swap short-circuits on the already-served
  // header checksum.
  core::HybridParams alt_params;
  alt_params.beta = 20;
  const core::PathWeightFunction alt_model = core::InstantiateWeightFunction(
      *w.data->data.graph, traj::TrajectoryStore(), alt_params);
  if (alt_model.fingerprint() == w.wp->fingerprint()) {
    std::fprintf(stderr, "refresh generations share a fingerprint; aborting\n");
    return 1;
  }
  const std::string alt_artifact = MakeTempArtifactPath("pcde_bench_refresh");
  if (!core::SaveWeightFunctionBinary(alt_model, alt_artifact).ok()) {
    std::fprintf(stderr, "failed to save the refresh artifact\n");
    return 1;
  }
  const ScopedFileRemover alt_cleanup(alt_artifact);
  {
    // swap_publish: wall time of one Engine::Swap end to end — artifact
    // read + validation + epoch wiring + atomic publish. This is the
    // refresh path's full cost; requests never wait on it (they pin the
    // old epoch), so it is a throughput tax, not a latency cliff.
    auto engine = open_engine(/*threads=*/1, /*cache_bytes=*/0);
    if (engine == nullptr) return 1;
    std::vector<double> swap_lat;
    const int swap_reps = std::max(8, reps);
    swap_lat.reserve(2 * static_cast<size_t>(swap_reps));
    for (int r = 0; r < swap_reps; ++r) {
      for (const std::string* artifact : {&alt_artifact, &serving_artifact}) {
        Stopwatch watch;
        auto sequence = engine->Swap(*artifact);
        swap_lat.push_back(watch.ElapsedSeconds());
        if (!sequence.ok()) {
          std::fprintf(stderr, "Engine::Swap failed: %s\n",
                       sequence.status().ToString().c_str());
          return 1;
        }
      }
    }
    series.push_back(
        KernelSeries::FromLatencies("swap_publish", std::move(swap_lat), 0));
  }
  {
    // swap_verified_publish: the same alternating Engine::Swap, but every
    // candidate must answer K=8 golden probe queries bit-identically to
    // references stamped per generation before it publishes
    // (SwapPolicy probe verification, tests/fault_sweep_test.cc is the
    // correctness side). Paired against swap_publish this prices the
    // pre-publish verification; ci.sh gates the ratio at <= 2x. The run
    // aborts on any probe divergence — the references were stamped from
    // the very generations being republished, so a divergence means the
    // serving path broke.
    const size_t kProbes = 8;
    // Cheapest workload queries (shortest paths) keep the probe cost the
    // floor a deployment would actually pay.
    std::vector<size_t> by_cost(w.queries.size());
    for (size_t i = 0; i < by_cost.size(); ++i) by_cost[i] = i;
    std::sort(by_cost.begin(), by_cost.end(), [&](size_t a, size_t b) {
      return w.queries[a].path.size() < w.queries[b].path.size();
    });
    by_cost.resize(std::min(kProbes, by_cost.size()));
    // References are stamped per generation, from an engine serving it.
    auto stamp_probes =
        [&](const std::string& artifact,
            std::vector<serving::GoldenProbe>* probes) -> bool {
      serving::EngineOptions options;
      options.model_path = artifact;
      options.graph = w.data->data.graph.get();
      options.num_threads = 1;
      options.query_cache_bytes = 0;
      auto ref = serving::Engine::Open(std::move(options));
      if (!ref.ok()) {
        std::fprintf(stderr, "reference Engine::Open failed: %s\n",
                     ref.status().ToString().c_str());
        return false;
      }
      for (size_t i : by_cost) {
        serving::GoldenProbe probe;
        probe.request = requests[i];
        auto response = ref.value()->Estimate(probe.request);
        if (!response.ok()) {
          std::fprintf(stderr, "probe reference estimate failed: %s\n",
                       response.status().ToString().c_str());
          return false;
        }
        probe.has_reference = true;
        probe.reference = response.value().summary;
        probes->push_back(std::move(probe));
      }
      return true;
    };
    serving::SwapOptions verified_alt, verified_serving;
    if (!stamp_probes(alt_artifact, &verified_alt.probes) ||
        !stamp_probes(serving_artifact, &verified_serving.probes)) {
      return 1;
    }
    auto engine = open_engine(/*threads=*/1, /*cache_bytes=*/0);
    if (engine == nullptr) return 1;
    std::vector<double> swap_lat;
    const int swap_reps = std::max(8, reps);
    swap_lat.reserve(2 * static_cast<size_t>(swap_reps));
    for (int r = 0; r < swap_reps; ++r) {
      for (const auto& step :
           {std::make_pair(&alt_artifact, &verified_alt),
            std::make_pair(&serving_artifact, &verified_serving)}) {
        Stopwatch watch;
        auto sequence = engine->Swap(*step.first, *step.second);
        swap_lat.push_back(watch.ElapsedSeconds());
        if (!sequence.ok()) {
          std::fprintf(stderr, "verified Engine::Swap failed: %s\n",
                       sequence.status().ToString().c_str());
          return 1;
        }
      }
    }
    series.push_back(KernelSeries::FromLatencies("swap_verified_publish",
                                                 std::move(swap_lat), 0));
  }
  {
    // estimate_steady vs estimate_during_swap: identical Engine batches,
    // the second run while a refresher thread republishes alternating
    // generations in a tight loop. The pair bounds the serving-latency
    // cost of continuous refresh (epoch loads + old-epoch teardown on the
    // same box); every response must still succeed — zero-downtime means
    // the swap churn is never visible as an error.
    auto engine = open_engine(/*threads=*/2, /*cache_bytes=*/0);
    if (engine == nullptr) return 1;
    // Enough batches that several epochs publish inside the measured
    // window (a swap costs ~swap_publish p50, so two batches would see
    // only a transition or two). The mixed-generation latencies are the
    // point: p50 reflects whichever generation answered, p99 carries the
    // churn interference — and the run aborts on any failed response,
    // the zero-downtime requirement.
    const int refresh_reps = std::max(6, batch_reps);
    BatchRun steady;
    for (int r = 0; r < refresh_reps; ++r) {
      if (!engine_batch_once(*engine, &steady)) return 1;
    }
    series.push_back(steady.Finish("estimate_steady"));
    std::atomic<bool> stop{false};
    std::atomic<bool> swap_failed{false};
    std::atomic<uint64_t> swaps{0};
    std::thread refresher([&]() {
      int generation = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& next =
            generation++ % 2 == 0 ? alt_artifact : serving_artifact;
        if (!engine->Swap(next).ok()) {
          swap_failed.store(true, std::memory_order_relaxed);
          return;
        }
        swaps.fetch_add(1, std::memory_order_relaxed);
      }
    });
    BatchRun churn;
    bool batches_ok = true;
    for (int r = 0; r < refresh_reps && batches_ok; ++r) {
      batches_ok = engine_batch_once(*engine, &churn);
    }
    stop.store(true, std::memory_order_relaxed);
    refresher.join();
    if (!batches_ok) return 1;
    if (swap_failed.load()) {
      std::fprintf(stderr, "refresher swap failed during churn\n");
      return 1;
    }
    series.push_back(churn.Finish("estimate_during_swap"));
    std::printf("  refresher published %llu epochs under estimate_during_swap\n",
                static_cast<unsigned long long>(swaps.load()));
  }

  // Degradation series: serving cost of the sparse-coverage fallback
  // ladder. A model covering only part of one workload path (unit
  // speed-limit variables copied from the baseline generation) forces the
  // two degraded regimes — maximal covered sub-path runs, and per-edge
  // convolution — and the bench aborts unless every response reports
  // exactly the expected provenance.
  {
    const Query* sparse_query = nullptr;
    for (const Query& q : w.queries) {
      if (q.path.size() == 20) {
        sparse_query = &q;
        break;
      }
    }
    if (sparse_query == nullptr) {
      std::fprintf(stderr, "no cardinality-20 query for fallback series\n");
      return 1;
    }
    auto sparse_engine = [&](const std::vector<size_t>& covered)
        -> std::unique_ptr<serving::Engine> {
      core::WeightFunctionBuilder builder(alt_model.binning());
      for (size_t pos : covered) {
        const core::InstantiatedVariable* v = alt_model.Lookup(
            roadnet::Path({sparse_query->path[pos]}), core::kAllDayInterval);
        if (v == nullptr) {
          std::fprintf(stderr, "no unit variable at position %zu\n", pos);
          return nullptr;
        }
        builder.Add(*v);
      }
      serving::EngineOptions options;
      options.graph = w.data->data.graph.get();
      options.num_threads = 1;
      options.query_cache_bytes = 0;
      auto engine = serving::Engine::Open(std::move(builder).Freeze(),
                                          std::move(options));
      if (!engine.ok()) {
        std::fprintf(stderr, "sparse Engine::Open failed: %s\n",
                     engine.status().ToString().c_str());
        return nullptr;
      }
      return std::move(engine).value();
    };
    auto measure_fallback = [&](const serving::Engine& engine,
                                core::DegradationLevel expected,
                                const char* name) -> bool {
      serving::EstimateRequest request;
      request.path = serving::PathSpec::ExplicitPath(sparse_query->path);
      request.departure_time = sparse_query->departure_time;
      const int iters = std::max(64, reps * 8);
      std::vector<double> lat;
      lat.reserve(static_cast<size_t>(iters));
      for (int i = 0; i < iters; ++i) {
        Stopwatch watch;
        auto response = engine.Estimate(request);
        lat.push_back(watch.ElapsedSeconds());
        if (!response.ok()) {
          std::fprintf(stderr, "%s: estimate failed: %s\n", name,
                       response.status().ToString().c_str());
          return false;
        }
        if (response.value().summary.degradation != expected) {
          std::fprintf(stderr, "%s: unexpected degradation level\n", name);
          return false;
        }
      }
      series.push_back(KernelSeries::FromLatencies(name, std::move(lat), 0));
      return true;
    };
    // One 10-edge covered prefix run -> the sub-path rung; isolated covered
    // singles -> the per-edge convolution rung.
    std::vector<size_t> prefix_half, even_singles;
    for (size_t pos = 0; pos < sparse_query->path.size(); ++pos) {
      if (pos < sparse_query->path.size() / 2) prefix_half.push_back(pos);
      if (pos % 2 == 0) even_singles.push_back(pos);
    }
    auto subpath_engine = sparse_engine(prefix_half);
    auto edge_engine = sparse_engine(even_singles);
    if (subpath_engine == nullptr || edge_engine == nullptr) return 1;
    if (!measure_fallback(*subpath_engine, core::DegradationLevel::kSubpath,
                          "fallback_subpath") ||
        !measure_fallback(*edge_engine, core::DegradationLevel::kEdge,
                          "fallback_edge")) {
      return 1;
    }
  }

  // Deadline-overshoot series (ISSUE 7): how far past its deadline a
  // cooperatively-cancelled estimate runs before unwinding. The slowest
  // workload query gets a deadline at a fraction of its own unconstrained
  // latency, so the trip lands mid-sweep; the recorded "latency" of each
  // tripped request is its overshoot (elapsed - timeout). Cooperative
  // checkpoints are per chain-part transition, so the overshoot must sit
  // far below the unconstrained latency (a request-granularity
  // implementation would overshoot by the full remaining estimate);
  // scripts/ci.sh gates p50 overshoot < 0.5x the unconstrained p50.
  {
    auto engine = open_engine(/*threads=*/1, /*cache_bytes=*/0);
    if (engine == nullptr) return 1;
    // The slowest query: longest path served through the engine.
    const Query* slow = &w.queries.front();
    for (const Query& q : w.queries) {
      if (q.path.size() > slow->path.size()) slow = &q;
    }
    serving::EstimateRequest request;
    request.path = serving::PathSpec::ExplicitPath(slow->path);
    request.departure_time = slow->departure_time;
    const int deadline_iters = std::max(128, reps * 16);
    std::vector<double> baseline_lat, overshoot_lat;
    baseline_lat.reserve(static_cast<size_t>(deadline_iters));
    overshoot_lat.reserve(static_cast<size_t>(deadline_iters));
    // Warm-up pass pins the unconstrained latency the timeouts scale from.
    double unconstrained = 0.0;
    {
      std::vector<double> warm;
      for (int i = 0; i < 16; ++i) {
        Stopwatch watch;
        auto response = engine->Estimate(request);
        warm.push_back(watch.ElapsedSeconds());
        if (!response.ok()) {
          std::fprintf(stderr, "deadline warmup estimate failed: %s\n",
                       response.status().ToString().c_str());
          return 1;
        }
      }
      std::sort(warm.begin(), warm.end());
      unconstrained = warm[warm.size() / 2];
    }
    const double fractions[] = {0.25, 0.5, 0.75};
    size_t completed_anyway = 0;
    for (int i = 0; i < deadline_iters; ++i) {
      // Interleave a baseline run with every deadline run (the
      // MeasurePaired discipline), so the overshoot-vs-baseline ratio is
      // taken under the same machine conditions.
      Stopwatch base_watch;
      auto base = engine->Estimate(request);
      baseline_lat.push_back(base_watch.ElapsedSeconds());
      if (!base.ok()) {
        std::fprintf(stderr, "deadline baseline estimate failed: %s\n",
                     base.status().ToString().c_str());
        return 1;
      }
      serving::EstimateRequest dead = request;
      dead.timeout_seconds =
          unconstrained * fractions[static_cast<size_t>(i) % 3];
      Stopwatch watch;
      auto response = engine->Estimate(dead);
      const double elapsed = watch.ElapsedSeconds();
      if (response.ok()) {
        ++completed_anyway;  // finished before the deadline: no overshoot
        continue;
      }
      if (response.status().code() != StatusCode::kDeadlineExceeded) {
        std::fprintf(stderr, "deadline run failed with %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
      overshoot_lat.push_back(std::max(0.0, elapsed - dead.timeout_seconds));
    }
    if (overshoot_lat.empty()) {
      std::fprintf(stderr, "no deadline ever tripped; aborting\n");
      return 1;
    }
    if (completed_anyway > 0) {
      std::printf("  deadline series: %zu/%d runs finished under deadline\n",
                  completed_anyway, deadline_iters);
    }
    series.push_back(KernelSeries::FromLatencies(
        "estimate_deadline_baseline", std::move(baseline_lat), 0));
    series.push_back(KernelSeries::FromLatencies(
        "estimate_deadline_overshoot", std::move(overshoot_lat), 0));
  }

  // Overload-shed series (ISSUE 7): the cost of rejecting a request at
  // admission. Client threads hammer a 1-slot engine; every shed response's
  // latency is recorded — shedding must stay microseconds (the whole point
  // of admission control is that overload rejection is orders of magnitude
  // cheaper than serving), and ops_per_sec is the shed decision rate.
  {
    serving::EngineOptions options;
    options.model_path = serving_artifact;
    options.graph = w.data->data.graph.get();
    options.num_threads = 2;
    options.query_cache_bytes = 0;
    options.max_inflight_requests = 1;  // hard shed at the door
    auto opened = serving::Engine::Open(std::move(options));
    if (!opened.ok()) {
      std::fprintf(stderr, "overload Engine::Open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    serving::Engine& engine = *opened.value();
    serving::EstimateRequest request;
    request.path = serving::PathSpec::ExplicitPath(w.queries.front().path);
    request.departure_time = w.queries.front().departure_time;
    constexpr size_t kShedClients = 4;
    constexpr size_t kTargetSheds = 512;
    std::atomic<bool> stop{false};
    std::atomic<bool> bad_status{false};
    std::vector<std::vector<double>> shed_lat(kShedClients);
    std::vector<std::thread> clients;
    clients.reserve(kShedClients);
    for (size_t c = 0; c < kShedClients; ++c) {
      clients.emplace_back([&, c] {
        while (!stop.load(std::memory_order_relaxed)) {
          Stopwatch watch;
          auto response = engine.Estimate(request);
          const double elapsed = watch.ElapsedSeconds();
          if (response.ok()) continue;
          if (response.status().code() != StatusCode::kResourceExhausted) {
            bad_status.store(true, std::memory_order_relaxed);
            return;
          }
          shed_lat[c].push_back(elapsed);
        }
      });
    }
    Stopwatch storm;
    while (storm.ElapsedSeconds() < 5.0) {
      size_t sheds = 0;
      for (const auto& lane : shed_lat) sheds += lane.size();
      if (sheds >= kTargetSheds || bad_status.load()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop.store(true);
    for (std::thread& t : clients) t.join();
    if (bad_status.load()) {
      std::fprintf(stderr, "overload storm saw a non-shed failure\n");
      return 1;
    }
    std::vector<double> all_sheds;
    for (auto& lane : shed_lat) {
      all_sheds.insert(all_sheds.end(), lane.begin(), lane.end());
    }
    if (all_sheds.empty()) {
      std::fprintf(stderr, "overload storm never shed; aborting\n");
      return 1;
    }
    const auto admission_stats = engine.stats();
    KernelSeries shed_series = KernelSeries::FromLatencies(
        "overload_shed", std::move(all_sheds), 0);
    // The cache columns carry the storm's admission traffic: hits =
    // admitted, misses = shed (schema note in bench/README.md).
    shed_series.cache_hits = admission_stats.admitted;
    shed_series.cache_misses = admission_stats.shed;
    series.push_back(std::move(shed_series));
  }

  // Sharded-serving series: split the workload model into two per-region
  // shards, then serve the manifest through serving::Engine.
  //  * sharded_estimate / sharded_estimate_mono: the same single-shard-hit
  //    requests (each workload path's maximal prefix inside its owning
  //    shard) served from the manifest and from the monolithic model,
  //    interleaved back to back; any summary that is not bit-identical
  //    aborts the bench, so the sharded_vs_mono headline certifies
  //    equivalence as well as pricing the shard lookups.
  //  * sharded_estimate_cross: full workload paths that cross the shard
  //    boundary, served from the manifest; every answer must be
  //    bit-identical to the monolithic model's.
  //  * The footprint record: after serving (both shards attached), the
  //    largest shard's resident bytes must sit strictly below the
  //    monolithic model's.
  ShardedFootprint sharded_footprint;
  {
    struct Cleanup {
      std::vector<std::string> paths;
      ~Cleanup() {
        for (const std::string& p : paths) std::remove(p.c_str());
      }
    } cleanup;
    const std::string manifest_path =
        MakeTempArtifactPath("pcde_bench_shards", ".pcdemf");
    cleanup.paths.push_back(manifest_path);
    core::ShardWriteOptions shard_options;
    shard_options.num_shards = 2;
    shard_options.file_prefix =
        "pcde_bench_shards." + std::to_string(::getpid());
    auto split = core::WriteModelShards(*w.wp, manifest_path, shard_options);
    if (!split.ok()) {
      std::fprintf(stderr, "WriteModelShards failed: %s\n",
                   split.status().ToString().c_str());
      return 1;
    }
    const core::ShardManifest& manifest = split.value();
    for (const core::ShardInfo& shard : manifest.shards) {
      cleanup.paths.push_back(manifest.dir + "/" + shard.file);
    }
    serving::EngineOptions sharded_options;
    sharded_options.model_path = manifest_path;
    sharded_options.graph = w.data->data.graph.get();
    sharded_options.num_threads = 1;
    sharded_options.query_cache_bytes = 0;
    auto opened = serving::Engine::Open(sharded_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "Engine::Open on the manifest failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    const std::unique_ptr<serving::Engine> sharded = std::move(opened).value();
    auto mono = open_engine(/*threads=*/1, /*cache_bytes=*/0);
    if (mono == nullptr) return 1;

    // Single-shard-hit requests: each workload path's maximal prefix whose
    // edges share one owning shard (length >= 1 by construction, so the
    // set is never empty). Cross-shard requests: the full paths that span
    // both shards.
    std::vector<serving::EstimateRequest> single_hit, cross;
    for (const Query& q : w.queries) {
      const size_t owner = manifest.ShardOf(q.path[0]);
      size_t prefix = 1;
      while (prefix < q.path.size() &&
             manifest.ShardOf(q.path[prefix]) == owner) {
        ++prefix;
      }
      serving::EstimateRequest request;
      request.path =
          serving::PathSpec::ExplicitPath(q.path.Slice(0, prefix));
      request.departure_time = q.departure_time;
      single_hit.push_back(std::move(request));
      if (prefix < q.path.size()) {
        serving::EstimateRequest full;
        full.path = serving::PathSpec::ExplicitPath(q.path);
        full.departure_time = q.departure_time;
        cross.push_back(std::move(full));
      }
    }
    // Warm both engines untimed so the series price steady-state routing,
    // not the one-time lazy shard attach (milliseconds against a
    // microsecond-scale request mean).
    for (const serving::EstimateRequest& request : single_hit) {
      if (!sharded->Estimate(request).ok() || !mono->Estimate(request).ok()) {
        std::fprintf(stderr, "sharded warm-up estimate failed\n");
        return 1;
      }
    }
    for (const serving::EstimateRequest& request : cross) {
      if (!sharded->Estimate(request).ok()) {
        std::fprintf(stderr, "cross-shard warm-up estimate failed\n");
        return 1;
      }
    }
    // Many interleaved reps, as for the facade pair above.
    const int sharded_reps = std::max(32, 4 * reps);
    std::vector<double> sharded_lat, mono_lat;
    sharded_lat.reserve(single_hit.size() * static_cast<size_t>(sharded_reps));
    mono_lat.reserve(single_hit.size() * static_cast<size_t>(sharded_reps));
    auto serve_once = [](const auto& engine,
                         const serving::EstimateRequest& request,
                         std::vector<double>* latencies,
                         serving::CostSummary* summary) -> bool {
      Stopwatch watch;
      auto response = engine.Estimate(request);
      latencies->push_back(watch.ElapsedSeconds());
      if (!response.ok()) {
        std::fprintf(stderr, "sharded series estimate failed: %s\n",
                     response.status().ToString().c_str());
        return false;
      }
      *summary = response.value().summary;
      return true;
    };
    for (int r = 0; r < sharded_reps; ++r) {
      for (size_t i = 0; i < single_hit.size(); ++i) {
        const serving::EstimateRequest& request = single_hit[i];
        serving::CostSummary from_sharded, from_mono;
        bool ok;
        if ((static_cast<size_t>(r) + i) % 2 == 0) {
          ok = serve_once(*sharded, request, &sharded_lat, &from_sharded) &&
               serve_once(*mono, request, &mono_lat, &from_mono);
        } else {
          ok = serve_once(*mono, request, &mono_lat, &from_mono) &&
               serve_once(*sharded, request, &sharded_lat, &from_sharded);
        }
        if (!ok) return 1;
        if (!from_sharded.ExactlyEquals(from_mono)) {
          std::fprintf(stderr,
                       "sharded serving diverged from monolithic on "
                       "single-shard request %zu\n",
                       i);
          return 1;
        }
      }
    }
    series.push_back(KernelSeries::FromLatencies("sharded_estimate",
                                                 std::move(sharded_lat), 0));
    series.push_back(KernelSeries::FromLatencies("sharded_estimate_mono",
                                                 std::move(mono_lat), 0));
    if (!cross.empty()) {
      std::vector<double> cross_lat;
      cross_lat.reserve(cross.size());
      for (size_t i = 0; i < cross.size(); ++i) {
        serving::CostSummary from_sharded, from_mono;
        if (!serve_once(*sharded, cross[i], &cross_lat, &from_sharded)) {
          return 1;
        }
        auto expected = mono->Estimate(cross[i]);
        if (!expected.ok() ||
            !from_sharded.ExactlyEquals(expected.value().summary)) {
          std::fprintf(stderr,
                       "sharded serving diverged from monolithic on "
                       "cross-shard request %zu\n",
                       i);
          return 1;
        }
      }
      series.push_back(KernelSeries::FromLatencies("sharded_estimate_cross",
                                                   std::move(cross_lat), 0));
    }
    const std::vector<size_t> shard_bytes = sharded->ResidentShardBytes();
    sharded_footprint.num_shards = shard_bytes.size();
    sharded_footprint.resident_bytes_max_shard =
        *std::max_element(shard_bytes.begin(), shard_bytes.end());
    sharded_footprint.mono_resident_bytes = mono->model().ResidentBytes();
    if (std::count(shard_bytes.begin(), shard_bytes.end(), size_t{0}) > 0) {
      std::fprintf(stderr,
                   "sharded workload left a shard unattached; footprint "
                   "record would be vacuous\n");
      return 1;
    }
    if (sharded_footprint.resident_bytes_max_shard >=
        sharded_footprint.mono_resident_bytes) {
      std::fprintf(stderr,
                   "max shard resident bytes (%zu) not below monolithic "
                   "(%zu)\n",
                   sharded_footprint.resident_bytes_max_shard,
                   sharded_footprint.mono_resident_bytes);
      return 1;
    }
    std::printf(
        "  sharded footprint: max shard %.2f MB vs monolithic %.2f MB "
        "(%zu shards, %zu cross-shard requests)\n",
        static_cast<double>(sharded_footprint.resident_bytes_max_shard) /
            (1024.0 * 1024.0),
        static_cast<double>(sharded_footprint.mono_resident_bytes) /
            (1024.0 * 1024.0),
        sharded_footprint.num_shards, cross.size());
  }

  for (const KernelSeries& s : series) {
    std::printf("  %-32s %8zu its  %10.1f ops/s  p50 %8.3f ms  p99 %8.3f ms"
                "  max_states %zu  jc %.3fs  mc %.3fs",
                s.name.c_str(), s.iterations, s.ops_per_sec, s.p50_ms,
                s.p99_ms, s.max_states, s.jc_seconds, s.mc_seconds);
    if (s.cache_hits + s.cache_misses > 0) {
      std::printf("  cache %llu/%llu hits",
                  static_cast<unsigned long long>(s.cache_hits),
                  static_cast<unsigned long long>(s.cache_hits +
                                                  s.cache_misses));
    }
    std::printf("\n");
  }
  const double speedup =
      series[1].ops_per_sec > 0.0 ? series[0].ops_per_sec / series[1].ops_per_sec
                                  : 0.0;
  std::printf("speedup (chain_sweep vs reference): %.2fx\n", speedup);

  // The model series: build/save/load/footprint of the frozen model, the
  // offline-build / online-serve cost record.
  ModelSeries model;
  if (!MeasureModelSeries(w, &model)) return 1;
  std::printf("model: %zu variables, built in %.2f s, resident %.2f MB\n",
              model.num_variables, model.build_seconds,
              static_cast<double>(model.resident_bytes) / (1024.0 * 1024.0));
  std::printf("  save %7.1f ms  load %7.1f ms  mmap load %7.1f ms  "
              "artifact %.2f MB\n",
              model.save_seconds * 1e3, model.load_seconds * 1e3,
              model.mmap_load_seconds * 1e3,
              static_cast<double>(model.artifact_bytes) / (1024.0 * 1024.0));

  if (!WriteChainBenchJson(out_path, "chain_estimation", series, &model,
                           &sharded_footprint)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
