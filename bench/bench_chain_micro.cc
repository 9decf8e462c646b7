// Chain-estimation microbench: isolates the Eq. 2 sweep (the JC phase that
// dominates Figs. 16-17) on pre-built decompositions of data-rich query
// paths, measures the rewritten ChainSweeper against the pre-rewrite
// reference kernel, then the serving layers on top — the batch and routing
// series run through serving::Engine (the production front door), with a
// paired sequential direct-HybridEstimator series isolating the facade's
// overhead — and writes the BENCH_chain.json perf record at the path given
// by argv[1] (default: ./BENCH_chain.json). See bench/README.md for the
// schema and the layout: one function per layer over one pair runner
// (RunPaired), one engine opener (OpenEngine) and one failure path
// (Require / Fail).
//
// Usage: bench_chain_micro [output.json] [reps]
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
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

/// A failed runtime check: the bench aborts before writing the record, so
/// a present series certifies its checks.
struct BenchFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] [[gnu::format(printf, 1, 2)]] void Fail(const char* format,
                                                     ...) {
  char message[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(message, sizeof(message), format, args);
  va_end(args);
  throw BenchFailure(message);
}

void Require(bool ok, const char* what) {
  if (!ok) Fail("%s", what);
}

void Require(const Status& status, const char* what) {
  if (!status.ok()) Fail("%s: %s", what, status.ToString().c_str());
}

template <typename T>
T Require(StatusOr<T> result, const char* what) {
  Require(result.status(), what);
  return std::move(result).value();
}

/// Runs the two arms back to back on every item of every rep, `a` first
/// when rep + item is even, then `after` (a check on the pair's answers).
/// Shared-machine noise then cancels out of the a-vs-b ratio instead of
/// landing on whichever arm ran in the noisier window. A one-item pair
/// alternates per rep.
template <typename A, typename B, typename After = void (*)(int, size_t)>
void RunPaired(int reps, size_t items, const A& a, const B& b,
               const After& after = [](int, size_t) {}) {
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < items; ++i) {
      if ((static_cast<size_t>(r) + i) % 2 == 0) {
        a(r, i);
        b(r, i);
      } else {
        b(r, i);
        a(r, i);
      }
      after(r, i);
    }
  }
}

/// Opens an engine on options.model_path (an artifact or a shard
/// manifest), or adopts `model` when one is given.
std::unique_ptr<serving::Engine> OpenEngine(
    serving::EngineOptions options,
    std::optional<core::PathWeightFunction> model = std::nullopt) {
  return Require(model.has_value() ? serving::Engine::Open(std::move(*model),
                                                           std::move(options))
                                   : serving::Engine::Open(std::move(options)),
                 "Engine::Open failed");
}

/// Helper threads that loop until `stop` is set. The destructor sets it
/// and joins them, so a check that throws on the bench thread still joins.
class StoppableThreads {
 public:
  explicit StoppableThreads(std::atomic<bool>* stop) : stop_(stop) {}
  StoppableThreads(const StoppableThreads&) = delete;
  StoppableThreads& operator=(const StoppableThreads&) = delete;
  ~StoppableThreads() {
    stop_->store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  template <typename Fn>
  void Start(Fn&& body) {
    threads_.emplace_back(std::forward<Fn>(body));
  }

 private:
  std::atomic<bool>* stop_;
  std::vector<std::thread> threads_;
};

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

serving::EstimateRequest Request(const roadnet::Path& path,
                                 double departure_time) {
  serving::EstimateRequest request;
  request.path = serving::PathSpec::ExplicitPath(path);
  request.departure_time = departure_time;
  return request;
}

/// What every serving layer reads: the workload, its queries as Engine
/// requests, the rep count, and the built model saved as an artifact.
/// Every engine reloads that artifact (the production flow); the reload is
/// fingerprint-identical to the built model, so every estimate is
/// bit-identical to direct wiring over w.wp.
struct ServingBench {
  ServingBench(const Workload& workload, int rep_count)
      : w(workload),
        reps(rep_count),
        artifact(MakeTempArtifactPath("pcde_bench_serving")) {
    Require(core::SaveWeightFunctionBinary(*w.wp, artifact.path()),
            "failed to save the serving artifact");
    for (const Query& q : w.queries) {
      requests.push_back(Request(q.path, q.departure_time));
    }
  }

  /// An engine on the artifact: `threads` pool threads (the caller
  /// counted), no query cache, and the routing series' search caps.
  serving::EngineOptions Options(size_t threads) const {
    serving::EngineOptions options;
    options.model_path = artifact.path();
    options.graph = w.data->data.graph.get();
    options.num_threads = threads;
    options.query_cache_bytes = 0;
    options.route_max_expansions = 150000;
    options.route_max_path_edges = 24;
    return options;
  }

  const Workload& w;
  const int reps;
  const ScopedFileRemover artifact;
  std::vector<serving::EstimateRequest> requests;
};

/// Serves one request, appending its wall time to `latencies`; a failed
/// response fails the bench.
serving::EstimateResponse TimedEstimate(const serving::Engine& engine,
                                        const serving::EstimateRequest& request,
                                        std::vector<double>* latencies,
                                        const char* what) {
  Stopwatch watch;
  auto response = engine.Estimate(request);
  latencies->push_back(watch.ElapsedSeconds());
  return Require(std::move(response), what);
}

struct KernelRun {
  std::vector<double> latencies;
  size_t max_states = 0;
  size_t failures = 0;
  PhaseTimer jc, mc;

  template <typename EstimateFn>
  void Measure(EstimateFn&& estimate) {
    core::ChainDiagnostics diag;
    Stopwatch watch;
    failures += estimate(&diag).ok() ? 0 : 1;
    latencies.push_back(watch.ElapsedSeconds());
    max_states = std::max(max_states, diag.max_states);
  }

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

void ChainKernelSeries(const Workload& w, int reps,
                       std::vector<KernelSeries>* series) {
  const core::ChainOptions options;
  KernelRun kernel, reference;
  const size_t total = w.decompositions.size() * static_cast<size_t>(reps);
  kernel.latencies.reserve(total);
  reference.latencies.reserve(total);
  RunPaired(
      reps, w.decompositions.size(),
      [&](int, size_t i) {
        kernel.Measure([&](core::ChainDiagnostics* diag) {
          return core::EstimateFromDecomposition(w.decompositions[i], options,
                                                 diag, &kernel.jc, &kernel.mc);
        });
      },
      [&](int, size_t i) {
        reference.Measure([&](core::ChainDiagnostics* diag) {
          return core::reference::ReferenceEstimateFromDecomposition(
              w.decompositions[i], options, diag, &reference.jc,
              &reference.mc);
        });
      });
  series->push_back(kernel.Finish("chain_sweep"));
  series->push_back(reference.Finish("chain_sweep_reference"));
}

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

/// Serves the workload as one Engine batch. Any failed response fails the
/// bench (like the routing identity check): an error response is produced
/// far faster than a real estimate, so counting it as a served op would
/// silently inflate ops_per_sec and the engine_batch_vs_direct gate.
void ServeBatch(const ServingBench& s, const serving::Engine& engine,
                BatchRun* run) {
  // The cache columns stay 0 for cacheless engines, matching the direct
  // series' convention (they carry query-cache traffic, not a synthetic
  // all-miss count).
  const bool cache_attached = engine.query_cache() != nullptr;
  Stopwatch watch;
  auto responses = engine.EstimateBatch(s.requests);
  run->wall_seconds += watch.ElapsedSeconds();
  run->total += responses.size();
  for (const auto& response : responses) {
    Require(response.status(), "engine batch request failed");
    run->latencies.push_back(response.value().serve_seconds);
    if (cache_attached) {
      (response.value().served_from_cache ? run->hits : run->misses) += 1;
    }
  }
}

/// The direct side of the facade-overhead pair: the same queries through a
/// plain sequential HybridEstimator loop on this thread, each timed like a
/// batch response's serve_seconds.
void ServeDirect(const ServingBench& s, const core::HybridEstimator& estimator,
                 BatchRun* run) {
  Stopwatch wall;
  for (const Query& q : s.w.queries) {
    Stopwatch watch;
    auto result = estimator.EstimateCostDistribution(q.path, q.departure_time);
    run->latencies.push_back(watch.ElapsedSeconds());
    Require(result.status(), "direct query failed");
  }
  run->wall_seconds += wall.ElapsedSeconds();
  run->total += s.w.queries.size();
}

/// The batch layer over the workload queries (end-to-end per query, so
/// request resolution + OI + JC + MC + summary, amortized across the
/// pool), served through the Engine, one series per pool size.
/// ops_per_sec is wall-clock batch throughput; p50 and the tail are the
/// responses' serve_seconds, recorded per request inside the fan-out.
void EngineBatchSeries(const ServingBench& s,
                       std::vector<KernelSeries>* series) {
  {
    // Facade-overhead pair on one thread: the Engine batch on a 1-thread
    // pool (every request on the caller) and the direct sequential loop
    // over the same queries, so the engine-vs-direct ratio is stable on
    // noisy shared machines. Many interleaved reps: the headline is a
    // two-sample ratio of ~25 ms batches whose time a few
    // multi-millisecond queries dominate, so with few reps one preempted
    // query or slow phase of the host decides it.
    const auto engine = OpenEngine(s.Options(1));
    const core::HybridEstimator direct(*s.w.wp);
    BatchRun engine_run, direct_run;
    RunPaired(
        std::max(32, 4 * s.reps), 1,
        [&](int, size_t) { ServeBatch(s, *engine, &engine_run); },
        [&](int, size_t) { ServeDirect(s, direct, &direct_run); });
    series->push_back(engine_run.Finish("estimate_batch_threads_1"));
    series->push_back(direct_run.Finish("estimate_batch_direct_threads_1"));
  }
  const int batch_reps = std::max(1, s.reps / 4);
  for (size_t threads : {2, 4, 8}) {
    const auto engine = OpenEngine(s.Options(threads));
    BatchRun run;
    for (int r = 0; r < batch_reps; ++r) ServeBatch(s, *engine, &run);
    series->push_back(
        run.Finish("estimate_batch_threads_" + std::to_string(threads)));
  }
  // The cached serving path: repeated batches against the engine's query
  // cache. The cache stores a result on its second offer, so one untimed
  // batch first offers every distinct request once (the workload asks
  // each path three times, once per method); the first timed batch then
  // inserts and every later one hits, as before admission needed a
  // second offer.
  serving::EngineOptions cached = s.Options(4);
  cached.query_cache_bytes = size_t{64} << 20;
  const auto engine = OpenEngine(std::move(cached));
  std::vector<serving::EstimateRequest> distinct;
  for (const serving::EstimateRequest& request : s.requests) {
    const bool seen = std::any_of(
        distinct.begin(), distinct.end(),
        [&](const serving::EstimateRequest& d) {
          return d.path.edges == request.path.edges &&
                 d.departure_time == request.departure_time;
        });
    if (!seen) distinct.push_back(request);
  }
  for (const auto& response : engine->EstimateBatch(distinct)) {
    Require(response.status(), "untimed cache batch request failed");
  }
  BatchRun run;
  for (int r = 0; r < std::max(2, batch_reps); ++r) {
    ServeBatch(s, *engine, &run);
  }
  series->push_back(run.Finish("estimate_batch_cached_threads_4"));
}

/// Routing series: the DFS stochastic router over OD pairs drawn from the
/// workload paths (12-edge windows at several offsets into each 20-edge
/// path, so the OD set mixes roots and regions), measured plain and with
/// the full pruning arsenal (routing/pruning.h). The pruned search must
/// match the plain on-time probability exactly — a divergence aborts the
/// bench.
void RoutingSeries(const ServingBench& s, std::vector<KernelSeries>* series) {
  const roadnet::Graph& graph = *s.w.data->data.graph;
  std::vector<serving::RouteRequest> cases;
  for (const Query& q : s.w.queries) {
    if (q.path.size() != 20) continue;  // shortest cardinality: bounded DFS
    for (const size_t offset : {size_t{0}, size_t{4}, size_t{8}}) {
      const size_t span = 12;
      if (offset + span > q.path.size()) break;
      double free_flow = 0.0;
      for (size_t i = offset; i < offset + span; ++i) {
        free_flow += graph.edge(q.path[i]).FreeFlowSeconds();
      }
      serving::RouteRequest rc;
      rc.from = graph.edge(q.path[offset]).from;
      rc.to = graph.edge(q.path[offset + span - 1]).to;
      rc.departure_time = traj::HoursToSeconds(8.2);
      rc.budget_seconds = 1.15 * free_flow;
      if (std::any_of(cases.begin(), cases.end(), [&](const auto& c) {
            return c.from == rc.from && c.to == rc.to;
          })) {
        continue;
      }
      cases.push_back(rc);
      if (cases.size() >= 12) break;
    }
    if (cases.size() >= 12) break;
  }
  // An empty case set would emit zero-iteration routing series and make
  // the pruned-vs-plain parity check vacuous.
  Require(!cases.empty(), "no routing cases in the workload; aborting");
  // Two configurations route through the Engine (one pool thread, so the
  // DFS runs sequentially on the caller and the search itself is
  // measured): plain, and the pruned search (incumbent + dominance +
  // cheap-first, routing/pruning.h).
  const auto plain_engine = OpenEngine(s.Options(1));
  serving::EngineOptions all_pruners = s.Options(1);
  all_pruners.route_pruning.incumbent = true;
  all_pruners.route_pruning.dominance = true;
  all_pruners.route_pruning.cheap_first = true;
  const auto pruned_engine = OpenEngine(std::move(all_pruners));
  // Quality parity between the pruned and plain searches is only
  // contractual for complete (non-truncated) searches — a truncated search
  // is an anytime cutoff either way — so cases that hit the expansion cap
  // (or fail) are dropped up front. Cases whose budget is barely makeable
  // (plain on-time probability < 0.5) are dropped too: the pruned series
  // measures the regime probability-bound pruning targets — budgets a
  // route can actually make — not near-infeasible budgets where no
  // incumbent can dominate anything (bench/README.md documents the
  // selection).
  cases.erase(std::remove_if(cases.begin(), cases.end(),
                             [&](const serving::RouteRequest& c) {
                               auto response = plain_engine->Route(c);
                               return !response.ok() ||
                                      response.value().truncated ||
                                      response.value().on_time_probability <
                                          0.5;
                             }),
              cases.end());
  Require(!cases.empty(),
          "no non-truncated routing cases in the workload; aborting");
  const int route_reps = std::max(2, s.reps / 2);
  std::vector<double> plain_lat, pruned_lat;
  plain_lat.reserve(cases.size() * static_cast<size_t>(route_reps));
  pruned_lat.reserve(cases.size() * static_cast<size_t>(route_reps));
  // Each arm keeps its last on-time probability (-1: the route failed).
  double plain_p = 0.0, pruned_p = 0.0;
  auto route = [&](const serving::Engine& engine, size_t i,
                   std::vector<double>* latencies, double* p) {
    Stopwatch watch;
    auto response = engine.Route(cases[i]);
    latencies->push_back(watch.ElapsedSeconds());
    *p = response.ok() ? response.value().on_time_probability : -1.0;
    return response;
  };
  KernelSeries attribution;  // per-pruner counters of the first rep's routes
  RunPaired(
      route_reps, cases.size(),
      [&](int, size_t i) { route(*plain_engine, i, &plain_lat, &plain_p); },
      [&](int r, size_t i) {
        auto response = route(*pruned_engine, i, &pruned_lat, &pruned_p);
        if (r != 0 || !response.ok()) return;
        attribution.bound_pruned += response.value().bound_pruned;
        attribution.incumbent_pruned += response.value().incumbent_pruned;
        attribution.dominance_pruned += response.value().dominance_pruned;
        attribution.estimator_clones += response.value().estimator_clones;
      },
      [&](int, size_t i) {
        // The pruned search guarantees the exact probability, while
        // cheap-first expansion ordering may resolve an exact probability
        // tie to a different equally-good path.
        if (plain_p != pruned_p) {
          Fail("pruned routing lost quality parity on case %zu (plain "
               "p=%.17g, pruned p=%.17g; -1 = failed)",
               i, plain_p, pruned_p);
        }
      });
  series->push_back(
      KernelSeries::FromLatencies("route_dfs", std::move(plain_lat), 0));
  KernelSeries pruned_series = KernelSeries::FromLatencies(
      "route_dfs_pruned", std::move(pruned_lat), 0);
  pruned_series.bound_pruned = attribution.bound_pruned;
  pruned_series.incumbent_pruned = attribution.incumbent_pruned;
  pruned_series.dominance_pruned = attribution.dominance_pruned;
  pruned_series.estimator_clones = attribution.estimator_clones;
  series->push_back(std::move(pruned_series));
}

/// The second model generation the refresh and degradation series use:
/// the speed-limit-only baseline a fresh deployment serves before
/// trajectories arrive.
core::PathWeightFunction SpeedLimitModel(const Workload& w) {
  core::HybridParams params;
  params.beta = 20;
  core::PathWeightFunction model = core::InstantiateWeightFunction(
      *w.data->data.graph, traj::TrajectoryStore(), params);
  Require(model.fingerprint() != w.wp->fingerprint(),
          "refresh generations share a fingerprint; aborting");
  return model;
}

/// K=8 golden probes for a swap to `artifact`, their references stamped
/// from an engine serving that generation.
serving::SwapOptions StampProbes(const ServingBench& s,
                                 const std::string& artifact,
                                 const std::vector<size_t>& queries) {
  serving::EngineOptions options = s.Options(1);
  options.model_path = artifact;
  const auto reference = OpenEngine(std::move(options));
  serving::SwapOptions stamped;
  for (size_t i : queries) {
    serving::GoldenProbe probe;
    probe.request = s.requests[i];
    probe.reference = Require(reference->Estimate(probe.request),
                              "probe reference estimate failed")
                          .summary;
    probe.has_reference = true;
    stamped.probes.push_back(std::move(probe));
  }
  return stamped;
}

/// One swap series: Engine::Swap alternating between the two generations,
/// so no swap short-circuits on the already-served header checksum, each
/// swap carrying the SwapOptions of the generation it publishes.
KernelSeries SwapSeries(const ServingBench& s, const std::string& alt,
                        const serving::SwapOptions& to_alt,
                        const serving::SwapOptions& to_serving,
                        const char* name) {
  const auto engine = OpenEngine(s.Options(1));
  std::vector<double> swap_lat;
  const int swap_reps = std::max(8, s.reps);
  swap_lat.reserve(2 * static_cast<size_t>(swap_reps));
  for (int r = 0; r < swap_reps; ++r) {
    for (const auto& [path, options] :
         {std::make_pair(&alt, &to_alt),
          std::make_pair(&s.artifact.path(), &to_serving)}) {
      Stopwatch watch;
      auto sequence = engine->Swap(*path, *options);
      swap_lat.push_back(watch.ElapsedSeconds());
      Require(sequence.status(), name);
    }
  }
  return KernelSeries::FromLatencies(name, std::move(swap_lat), 0);
}

/// Refresh series (zero-downtime model refresh, tests/refresh_fault_test.cc
/// is the correctness side), swapping between the served model and `alt`,
/// the speed-limit generation saved next to it.
void RefreshSeries(const ServingBench& s, const std::string& alt,
                   std::vector<KernelSeries>* series) {
  // swap_publish: wall time of one Engine::Swap end to end — artifact
  // read + validation + epoch wiring + atomic publish. This is the
  // refresh path's full cost; requests never wait on it (they pin the
  // old epoch), so it is a throughput tax, not a latency cliff.
  series->push_back(SwapSeries(s, alt, serving::SwapOptions(),
                               serving::SwapOptions(), "swap_publish"));
  // swap_verified_publish: the same alternating Engine::Swap, but every
  // candidate must answer K=8 golden probe queries bit-identically to
  // references stamped per generation before it publishes (SwapPolicy
  // probe verification, tests/fault_sweep_test.cc is the correctness
  // side). Paired against swap_publish this prices the pre-publish
  // verification; ci.sh gates the ratio at <= 2x. The run aborts on any
  // probe divergence — the references were stamped from the very
  // generations being republished, so a divergence means the serving path
  // broke. Cheapest workload queries (shortest paths) keep the probe cost
  // the floor a deployment would actually pay.
  const size_t kProbes = 8;
  std::vector<size_t> by_cost(s.w.queries.size());
  for (size_t i = 0; i < by_cost.size(); ++i) by_cost[i] = i;
  std::sort(by_cost.begin(), by_cost.end(), [&](size_t a, size_t b) {
    return s.w.queries[a].path.size() < s.w.queries[b].path.size();
  });
  by_cost.resize(std::min(kProbes, by_cost.size()));
  const serving::SwapOptions verified_alt = StampProbes(s, alt, by_cost);
  const serving::SwapOptions verified_serving =
      StampProbes(s, s.artifact.path(), by_cost);
  series->push_back(SwapSeries(s, alt, verified_alt, verified_serving,
                               "swap_verified_publish"));

  // estimate_steady vs estimate_during_swap: identical Engine batches,
  // the second run while a refresher thread republishes alternating
  // generations in a tight loop. The pair bounds the serving-latency
  // cost of continuous refresh (epoch loads + old-epoch teardown on the
  // same box); every response must still succeed — zero-downtime means
  // the swap churn is never visible as an error.
  const auto engine = OpenEngine(s.Options(2));
  // Enough batches that several epochs publish inside the measured window
  // (a swap costs ~swap_publish p50, so two batches would see only a
  // transition or two). The mixed-generation latencies are the point: p50
  // reflects whichever generation answered, the tail carries the churn
  // interference — and the run aborts on any failed response, the
  // zero-downtime requirement.
  const int refresh_reps = std::max(6, s.reps / 4);
  BatchRun steady;
  for (int r = 0; r < refresh_reps; ++r) ServeBatch(s, *engine, &steady);
  series->push_back(steady.Finish("estimate_steady"));
  std::atomic<bool> stop{false};
  std::atomic<bool> swap_failed{false};
  std::atomic<uint64_t> swaps{0};
  BatchRun churn;
  {
    StoppableThreads refresher(&stop);
    refresher.Start([&] {
      for (int generation = 0; !stop.load(std::memory_order_relaxed);
           ++generation) {
        if (!engine->Swap(generation % 2 == 0 ? alt : s.artifact.path())
                 .ok()) {
          swap_failed.store(true, std::memory_order_relaxed);
          return;
        }
        swaps.fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (int r = 0; r < refresh_reps; ++r) ServeBatch(s, *engine, &churn);
  }
  Require(!swap_failed.load(), "refresher swap failed during churn");
  series->push_back(churn.Finish("estimate_during_swap"));
  std::printf("  refresher published %llu epochs under estimate_during_swap\n",
              static_cast<unsigned long long>(swaps.load()));
}

/// Degradation series: serving cost of the sparse-coverage fallback
/// ladder. A model covering only part of one workload path (unit
/// speed-limit variables copied from the baseline generation) forces the
/// two degraded regimes — maximal covered sub-path runs, and per-edge
/// convolution — and the bench aborts unless every response reports
/// exactly the expected provenance.
void DegradationSeries(const ServingBench& s,
                       const core::PathWeightFunction& alt_model,
                       std::vector<KernelSeries>* series) {
  const auto sparse =
      std::find_if(s.w.queries.begin(), s.w.queries.end(),
                   [](const Query& q) { return q.path.size() == 20; });
  Require(sparse != s.w.queries.end(),
          "no cardinality-20 query for fallback series");
  const serving::EstimateRequest& request =
      s.requests[static_cast<size_t>(sparse - s.w.queries.begin())];
  auto sparse_engine = [&](const std::vector<size_t>& covered) {
    core::WeightFunctionBuilder builder(alt_model.binning());
    for (size_t pos : covered) {
      const core::InstantiatedVariable* v = alt_model.Lookup(
          roadnet::Path({sparse->path[pos]}), core::kAllDayInterval);
      if (v == nullptr) Fail("no unit variable at position %zu", pos);
      builder.Add(*v);
    }
    return OpenEngine(s.Options(1), std::move(builder).Freeze());
  };
  auto measure_fallback = [&](const serving::Engine& engine,
                              core::DegradationLevel expected,
                              const char* name) {
    const int iters = std::max(64, s.reps * 8);
    std::vector<double> lat;
    lat.reserve(static_cast<size_t>(iters));
    for (int i = 0; i < iters; ++i) {
      if (TimedEstimate(engine, request, &lat, name).summary.degradation !=
          expected) {
        Fail("%s: unexpected degradation level", name);
      }
    }
    series->push_back(KernelSeries::FromLatencies(name, std::move(lat), 0));
  };
  // One 10-edge covered prefix run -> the sub-path rung; isolated covered
  // singles -> the per-edge convolution rung.
  std::vector<size_t> prefix_half, even_singles;
  for (size_t pos = 0; pos < sparse->path.size(); ++pos) {
    if (pos < sparse->path.size() / 2) prefix_half.push_back(pos);
    if (pos % 2 == 0) even_singles.push_back(pos);
  }
  const auto subpath_engine = sparse_engine(prefix_half);
  const auto edge_engine = sparse_engine(even_singles);
  measure_fallback(*subpath_engine, core::DegradationLevel::kSubpath,
                   "fallback_subpath");
  measure_fallback(*edge_engine, core::DegradationLevel::kEdge,
                   "fallback_edge");
}

/// Deadline-overshoot series: how far past its deadline a
/// cooperatively-cancelled estimate runs before unwinding. The slowest
/// workload query gets a deadline at a fraction of its own unconstrained
/// latency, so the trip lands mid-sweep; the recorded "latency" of each
/// tripped request is its overshoot (elapsed - timeout). Cooperative
/// checkpoints are per chain-part transition, so the overshoot must sit
/// far below the unconstrained latency (a request-granularity
/// implementation would overshoot by the full remaining estimate);
/// scripts/ci.sh gates p50 overshoot < 0.5x the unconstrained p50.
void DeadlineSeries(const ServingBench& s, std::vector<KernelSeries>* series) {
  const auto engine = OpenEngine(s.Options(1));
  // The slowest query: longest path served through the engine.
  const auto slow = std::max_element(
      s.w.queries.begin(), s.w.queries.end(),
      [](const Query& a, const Query& b) {
        return a.path.size() < b.path.size();
      });
  const serving::EstimateRequest& request =
      s.requests[static_cast<size_t>(slow - s.w.queries.begin())];
  // Warm-up pass pins the unconstrained latency the timeouts scale from.
  std::vector<double> warm;
  for (int i = 0; i < 16; ++i) {
    TimedEstimate(*engine, request, &warm, "deadline warmup estimate failed");
  }
  std::sort(warm.begin(), warm.end());
  const double unconstrained = warm[warm.size() / 2];
  const int deadline_iters = std::max(128, s.reps * 16);
  std::vector<double> baseline_lat, overshoot_lat;
  baseline_lat.reserve(static_cast<size_t>(deadline_iters));
  overshoot_lat.reserve(static_cast<size_t>(deadline_iters));
  const double fractions[] = {0.25, 0.5, 0.75};
  size_t completed_anyway = 0;
  // Every deadline run pairs with a baseline run, so the
  // overshoot-vs-baseline ratio is taken under the same machine
  // conditions.
  RunPaired(
      deadline_iters, 1,
      [&](int, size_t) {
        TimedEstimate(*engine, request, &baseline_lat,
                      "deadline baseline estimate failed");
      },
      [&](int r, size_t) {
        serving::EstimateRequest dead = request;
        dead.timeout_seconds = unconstrained * fractions[r % 3];
        Stopwatch watch;
        auto response = engine->Estimate(dead);
        const double elapsed = watch.ElapsedSeconds();
        if (response.ok()) {
          ++completed_anyway;  // finished before the deadline: no overshoot
          return;
        }
        if (response.status().code() != StatusCode::kDeadlineExceeded) {
          Fail("deadline run failed with %s",
               response.status().ToString().c_str());
        }
        overshoot_lat.push_back(std::max(0.0, elapsed - dead.timeout_seconds));
      });
  Require(!overshoot_lat.empty(), "no deadline ever tripped; aborting");
  if (completed_anyway > 0) {
    std::printf("  deadline series: %zu/%d runs finished under deadline\n",
                completed_anyway, deadline_iters);
  }
  series->push_back(KernelSeries::FromLatencies(
      "estimate_deadline_baseline", std::move(baseline_lat), 0));
  series->push_back(KernelSeries::FromLatencies(
      "estimate_deadline_overshoot", std::move(overshoot_lat), 0));
}

/// Overload-shed series: the cost of rejecting a request at admission.
/// Client threads hammer a 1-slot engine; every shed response's latency is
/// recorded — shedding must stay microseconds (the whole point of
/// admission control is that overload rejection is orders of magnitude
/// cheaper than serving), and ops_per_sec is the shed decision rate.
void OverloadSeries(const ServingBench& s, std::vector<KernelSeries>* series) {
  serving::EngineOptions options = s.Options(2);
  options.max_inflight_requests = 1;  // hard shed at the door
  const auto engine = OpenEngine(std::move(options));
  constexpr size_t kShedClients = 4;
  constexpr size_t kTargetSheds = 512;
  std::atomic<bool> stop{false};
  std::atomic<bool> bad_status{false};
  std::atomic<size_t> sheds{0};
  std::vector<std::vector<double>> shed_lat(kShedClients);
  {
    StoppableThreads clients(&stop);
    for (size_t c = 0; c < kShedClients; ++c) {
      clients.Start([&, c] {
        while (!stop.load(std::memory_order_relaxed)) {
          Stopwatch watch;
          auto response = engine->Estimate(s.requests.front());
          const double elapsed = watch.ElapsedSeconds();
          if (response.ok()) continue;
          if (response.status().code() != StatusCode::kResourceExhausted) {
            bad_status.store(true, std::memory_order_relaxed);
            return;
          }
          shed_lat[c].push_back(elapsed);
          sheds.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    Stopwatch storm;
    while (storm.ElapsedSeconds() < 5.0 && sheds.load() < kTargetSheds &&
           !bad_status.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  Require(!bad_status.load(), "overload storm saw a non-shed failure");
  std::vector<double> all_sheds;
  for (auto& lane : shed_lat) {
    all_sheds.insert(all_sheds.end(), lane.begin(), lane.end());
  }
  Require(!all_sheds.empty(), "overload storm never shed; aborting");
  const auto admission_stats = engine->stats();
  KernelSeries shed_series =
      KernelSeries::FromLatencies("overload_shed", std::move(all_sheds), 0);
  // The cache columns carry the storm's admission traffic: hits =
  // admitted, misses = shed (schema note in bench/README.md).
  shed_series.cache_hits = admission_stats.admitted;
  shed_series.cache_misses = admission_stats.shed;
  series->push_back(std::move(shed_series));
}

/// Sharded-serving series: split the workload model into two per-region
/// shards, then serve the manifest through serving::Engine.
///  * sharded_estimate / sharded_estimate_mono: the same single-shard-hit
///    requests (each workload path's maximal prefix inside its owning
///    shard) served from the manifest and from the monolithic model,
///    interleaved back to back; any summary that is not bit-identical
///    aborts the bench, so the sharded_vs_mono headline certifies
///    equivalence as well as pricing the shard lookups.
///  * sharded_estimate_cross: full workload paths that cross the shard
///    boundary, served from the manifest; every answer must be
///    bit-identical to the monolithic model's.
///  * The footprint record: after serving (both shards attached), the
///    largest shard's resident bytes must sit strictly below the
///    monolithic model's.
ShardedFootprint ShardingSeries(const ServingBench& s,
                                std::vector<KernelSeries>* series) {
  std::deque<ScopedFileRemover> cleanup;
  const std::string& manifest_path =
      cleanup.emplace_back(MakeTempArtifactPath("pcde_bench_shards", ".pcdemf"))
          .path();
  core::ShardWriteOptions shard_options;
  shard_options.num_shards = 2;
  shard_options.file_prefix =
      "pcde_bench_shards." + std::to_string(::getpid());
  const core::ShardManifest manifest =
      Require(core::WriteModelShards(*s.w.wp, manifest_path, shard_options),
              "WriteModelShards failed");
  for (const core::ShardInfo& shard : manifest.shards) {
    cleanup.emplace_back(manifest.dir + "/" + shard.file);
  }
  serving::EngineOptions sharded_options = s.Options(1);
  sharded_options.model_path = manifest_path;
  const auto sharded = OpenEngine(std::move(sharded_options));
  const auto mono = OpenEngine(s.Options(1));

  // Single-shard-hit requests: each workload path's maximal prefix whose
  // edges share one owning shard (length >= 1 by construction, so the set
  // is never empty). Cross-shard requests: the full paths that span both
  // shards.
  std::vector<serving::EstimateRequest> single_hit, cross;
  for (const Query& q : s.w.queries) {
    const size_t owner = manifest.ShardOf(q.path[0]);
    size_t prefix = 1;
    while (prefix < q.path.size() &&
           manifest.ShardOf(q.path[prefix]) == owner) {
      ++prefix;
    }
    single_hit.push_back(Request(q.path.Slice(0, prefix), q.departure_time));
    if (prefix < q.path.size()) {
      cross.push_back(Request(q.path, q.departure_time));
    }
  }
  // Warm both engines untimed so the series price steady-state routing,
  // not the one-time lazy shard attach (milliseconds against a
  // microsecond-scale request mean).
  for (const serving::EstimateRequest& request : single_hit) {
    Require(sharded->Estimate(request).ok() && mono->Estimate(request).ok(),
            "sharded warm-up estimate failed");
  }
  for (const serving::EstimateRequest& request : cross) {
    Require(sharded->Estimate(request).ok(),
            "cross-shard warm-up estimate failed");
  }
  // Many interleaved reps, as for the facade pair.
  const int sharded_reps = std::max(32, 4 * s.reps);
  std::vector<double> sharded_lat, mono_lat;
  sharded_lat.reserve(single_hit.size() * static_cast<size_t>(sharded_reps));
  mono_lat.reserve(single_hit.size() * static_cast<size_t>(sharded_reps));
  serving::CostSummary from_sharded, from_mono;
  RunPaired(
      sharded_reps, single_hit.size(),
      [&](int, size_t i) {
        from_sharded = TimedEstimate(*sharded, single_hit[i], &sharded_lat,
                                     "sharded series estimate failed")
                           .summary;
      },
      [&](int, size_t i) {
        from_mono = TimedEstimate(*mono, single_hit[i], &mono_lat,
                                  "sharded series estimate failed")
                        .summary;
      },
      [&](int, size_t i) {
        if (!from_sharded.ExactlyEquals(from_mono)) {
          Fail("sharded serving diverged from monolithic on single-shard "
               "request %zu",
               i);
        }
      });
  series->push_back(KernelSeries::FromLatencies("sharded_estimate",
                                                std::move(sharded_lat), 0));
  series->push_back(KernelSeries::FromLatencies("sharded_estimate_mono",
                                                std::move(mono_lat), 0));
  if (!cross.empty()) {
    std::vector<double> cross_lat;
    cross_lat.reserve(cross.size());
    for (size_t i = 0; i < cross.size(); ++i) {
      from_sharded = TimedEstimate(*sharded, cross[i], &cross_lat,
                                   "sharded series estimate failed")
                         .summary;
      auto expected = mono->Estimate(cross[i]);
      if (!expected.ok() ||
          !from_sharded.ExactlyEquals(expected.value().summary)) {
        Fail("sharded serving diverged from monolithic on cross-shard "
             "request %zu",
             i);
      }
    }
    series->push_back(KernelSeries::FromLatencies("sharded_estimate_cross",
                                                  std::move(cross_lat), 0));
  }
  const std::vector<size_t> shard_bytes = sharded->ResidentShardBytes();
  ShardedFootprint footprint;
  footprint.num_shards = shard_bytes.size();
  footprint.resident_bytes_max_shard =
      *std::max_element(shard_bytes.begin(), shard_bytes.end());
  footprint.mono_resident_bytes = mono->model().ResidentBytes();
  Require(std::count(shard_bytes.begin(), shard_bytes.end(), size_t{0}) == 0,
          "sharded workload left a shard unattached; footprint record would "
          "be vacuous");
  if (footprint.resident_bytes_max_shard >= footprint.mono_resident_bytes) {
    Fail("max shard resident bytes (%zu) not below monolithic (%zu)",
         footprint.resident_bytes_max_shard, footprint.mono_resident_bytes);
  }
  std::printf(
      "  sharded footprint: max shard %.2f MB vs monolithic %.2f MB "
      "(%zu shards, %zu cross-shard requests)\n",
      static_cast<double>(footprint.resident_bytes_max_shard) /
          (1024.0 * 1024.0),
      static_cast<double>(footprint.mono_resident_bytes) / (1024.0 * 1024.0),
      footprint.num_shards, cross.size());
  return footprint;
}

/// The model series: offline build seconds, artifact save/load latency
/// (buffered and mmap) and size, and the serving-resident footprint of the
/// frozen model. Every reload is checked against the built model's
/// fingerprint — a mismatch means the artifact path is broken, so the
/// bench aborts.
ModelSeries MeasureModelSeries(const Workload& w) {
  ModelSeries out;
  out.num_variables = w.wp->NumVariables();
  out.resident_bytes = w.wp->ResidentBytes();
  out.build_seconds = w.build_stats.build_seconds;
  const ScopedFileRemover artifact(MakeTempArtifactPath("pcde_bench_model"));
  Stopwatch watch;
  const Status saved = core::SaveWeightFunctionBinary(*w.wp, artifact.path());
  out.save_seconds = watch.ElapsedSeconds();
  Require(saved, "model save failed");
  out.artifact_bytes =
      static_cast<size_t>(std::filesystem::file_size(artifact.path()));
  for (bool use_mmap : {false, true}) {
    watch.Restart();
    auto loaded = core::LoadWeightFunctionBinary(artifact.path(), use_mmap);
    (use_mmap ? out.mmap_load_seconds : out.load_seconds) =
        watch.ElapsedSeconds();
    if (!loaded.ok() || loaded.value().fingerprint() != w.wp->fingerprint()) {
      Fail("%s reload failed or fingerprint mismatch",
           use_mmap ? "mmap" : "buffered");
    }
  }
  std::printf("model: %zu variables, built in %.2f s, resident %.2f MB\n",
              out.num_variables, out.build_seconds,
              static_cast<double>(out.resident_bytes) / (1024.0 * 1024.0));
  std::printf("  save %7.1f ms  load %7.1f ms  mmap load %7.1f ms  "
              "artifact %.2f MB\n",
              out.save_seconds * 1e3, out.load_seconds * 1e3,
              out.mmap_load_seconds * 1e3,
              static_cast<double>(out.artifact_bytes) / (1024.0 * 1024.0));
  return out;
}

void PrintSeries(const std::vector<KernelSeries>& series) {
  for (const KernelSeries& s : series) {
    std::printf("  %-32s %8zu its  %10.1f ops/s  p50 %8.3f ms",
                s.name.c_str(), s.iterations, s.ops_per_sec, s.p50_ms);
    if (s.tail_level > 0.0) {
      std::printf("  p%02.0f %8.3f ms", s.tail_level * 100.0, s.tail_ms);
    } else {
      std::printf("  %-14s", "(no tail)");
    }
    std::printf("  max_states %zu  jc %.3fs  mc %.3fs", s.max_states,
                s.jc_seconds, s.mc_seconds);
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
}

}  // namespace
}  // namespace bench
}  // namespace pcde

int main(int argc, char** argv) {
  using namespace pcde;
  using namespace pcde::bench;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_chain.json";
  const int reps = argc > 2 ? std::atoi(argv[2]) : 12;
  try {
    std::printf(
        "chain microbench: building workload (dataset A, Fig. 16 mix)...\n");
    const Workload w;
    std::printf("  %zu decompositions over %zu queries\n",
                w.decompositions.size(), w.queries.size());
    Require(!w.decompositions.empty(), "no decompositions; aborting");
    std::vector<KernelSeries> series;
    ChainKernelSeries(w, reps, &series);
    const ServingBench s(w, reps);
    EngineBatchSeries(s, &series);
    RoutingSeries(s, &series);
    const core::PathWeightFunction alt_model = SpeedLimitModel(w);
    const ScopedFileRemover alt(MakeTempArtifactPath("pcde_bench_refresh"));
    Require(core::SaveWeightFunctionBinary(alt_model, alt.path()),
            "failed to save the refresh artifact");
    RefreshSeries(s, alt.path(), &series);
    DegradationSeries(s, alt_model, &series);
    DeadlineSeries(s, &series);
    OverloadSeries(s, &series);
    const ShardedFootprint footprint = ShardingSeries(s, &series);
    PrintSeries(series);
    const ModelSeries model = MeasureModelSeries(w);
    if (!WriteChainBenchJson(out_path, "chain_estimation", series, &model,
                             &footprint)) {
      Fail("failed to write %s", out_path.c_str());
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  } catch (const BenchFailure& failure) {
    std::fprintf(stderr, "%s\n", failure.what());
    return 1;
  }
}
