#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/instantiation.h"
#include "core/serialization.h"
#include "hist/voptimal.h"
#include "inputs.h"
#include "roadnet/shortest_path.h"
#include "serving/engine.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace core = pcde::core;
namespace hist = pcde::hist;
namespace roadnet = pcde::roadnet;
namespace serving = pcde::serving;
namespace traj = pcde::traj;

enum class Workload { kPathCold, kOdHotRefresh, kRouteBudget };

// Closed-loop shape: the estimate workloads run two client threads, the
// route workload one, and every workload a publisher thread that swaps the
// model at fixed request counts, so no run keeps more than three threads
// busy on a four-CPU host. The engine pool has one
// worker, so Route searches on its calling thread: with two workers a
// ~0.2 ms search waits on worker wake-ups, and the host's CPU steal then
// moved route p99 tenfold between runs.
constexpr size_t kClients = 2;
constexpr size_t kPoolThreads = 1;
constexpr size_t kCacheBytes = size_t{8} << 20;
constexpr int kSetupRepeats = 3;

// Enough that no client wraps around its list within a 25 s phase on the
// 4-vCPU host of the README (at most ~35k requests/s per client seen); a
// list that wraps repeats keys the cache evicted long before.
constexpr size_t kColdRequestsPerClient = 1200000;
constexpr size_t kColdWarmup = 5000;  // overfills the cache: evictions run
                                      // through the whole measured phase
constexpr size_t kHotPool = 1000;  // ~3 MiB of answers for both models
constexpr size_t kHotRequestsPerClient = 600000;  // reused cyclically
// Completed requests per swap. On path_cold, 2 x kPublishEvery estimates
// between two swaps of one generation overfill the cache's ~4800 entries,
// so the golden probes never hit there.
constexpr uint64_t kPublishEvery = 5000;  // estimates
constexpr uint64_t kRoutePublishEvery = 500;  // routes
constexpr size_t kRouteWarmupCases = 8;
// Enough cases that p99 rests on ~30 of them, not on a seed's few heaviest.
constexpr size_t kRouteCases = 3000;
constexpr size_t kRoutePasses = 84;  // the off-peak buckets

constexpr size_t kProbes = 8;          // golden probes per swap
constexpr size_t kOracleSamples = 1000;  // Monte Carlo trips per window
constexpr size_t kRouteProbes = 60;    // quality probes (route_ontime_prob)
constexpr size_t kParityEvery = 15;    // unpruned re-run of every 15th probe
constexpr uint64_t kSampleEvery = 127;  // cache-less re-check stride
constexpr size_t kMaxSamples = 400;
constexpr size_t kMaxRouteParitySamples = 4;

constexpr uint64_t kOracleStream = 101;
constexpr uint64_t kSampleStream = 102;

Workload ParseWorkload(const std::string& name) {
  if (name == "path_cold") return Workload::kPathCold;
  if (name == "od_hot_refresh") return Workload::kOdHotRefresh;
  if (name == "route_budget") return Workload::kRouteBudget;
  throw std::runtime_error("unknown workload " + name);
}

void Must(const pcde::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

template <typename T>
T MustValue(pcde::StatusOr<T> value, const std::string& what) {
  Must(value.status(), what);
  return std::move(value).value();
}

/// Collects output-check failures; the first few are printed to stderr.
class Checks {
 public:
  void Require(bool ok, const std::string& what) {
    if (ok) return;
    if (failures_ < 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
    ++failures_;
  }
  bool passed() const { return failures_ == 0; }

 private:
  uint64_t failures_ = 0;
};

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

/// A summary is finite and ordered: support bounds enclose the mean and the
/// quantiles, quantiles rise with their level, probabilities lie in [0, 1].
/// The probability may exceed 1 by rounding: the engine sums bucket masses,
/// and a distribution wholly inside the budget can read 1 + 2^-52.
bool SummaryOk(const serving::CostSummary& s,
               const serving::EstimateRequest& request) {
  const double slack = 1e-9 * std::max(1.0, std::fabs(s.support_hi));
  const auto inside = [&](double v) {
    return std::isfinite(v) && v >= s.support_lo - slack &&
           v <= s.support_hi + slack;
  };
  if (s.num_buckets == 0 || !std::isfinite(s.support_lo) ||
      !std::isfinite(s.support_hi) || s.support_lo > s.support_hi ||
      !inside(s.mean) || !std::isfinite(s.variance) || s.variance < 0.0 ||
      !(s.covered_fraction >= 0.0 && s.covered_fraction <= 1.0) ||
      s.quantiles.size() != request.quantiles.size()) {
    return false;
  }
  for (size_t i = 0; i < s.quantiles.size(); ++i) {
    if (!inside(s.quantiles[i])) return false;
    if (i > 0 && s.quantiles[i] < s.quantiles[i - 1]) return false;
  }
  if (std::isnan(request.budget_seconds)) return std::isnan(s.prob_within_budget);
  return s.prob_within_budget >= 0.0 && s.prob_within_budget <= 1.0 + 1e-12;
}

/// A route is a valid connected path from the origin to the destination
/// with an on-time probability in [0, 1]; a truncated search is a failure.
bool RouteOk(const roadnet::Graph& g, const serving::RouteRequest& request,
             const serving::RouteResponse& r) {
  return !r.truncated && !r.best_path.empty() &&
         roadnet::ValidatePath(g, r.best_path.edges()).ok() &&
         g.edge(r.best_path.front()).from == request.from &&
         g.edge(r.best_path.back()).to == request.to &&
         r.on_time_probability >= 0.0 && r.on_time_probability <= 1.0;
}

// ---------------------------------------------------------------------------
// Set-up: trips in memory -> store -> generation 1 -> artifact -> delta
// rebuild (generation 2) -> artifact -> Engine::Open -> warm-up.

struct Generation {
  std::string path;
  uint64_t fingerprint = 0;
  size_t variables = 0;
  size_t resident_bytes = 0;
};

/// Set-up time, which runs on the calling thread: its wall time, its CPU
/// time, and the wall time less the host's steal (the setup_s figure).
struct SetupTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double seconds = 0.0;
};

struct Stack {
  std::unique_ptr<serving::Engine> engine;
  Generation gen[2];
  SetupTime time;
};

serving::EngineOptions ServingOptions(const Dataset& data) {
  serving::EngineOptions options;
  options.graph = data.graph.get();
  options.num_threads = kPoolThreads;
  options.query_cache_bytes = kCacheBytes;
  options.route_pruning.incumbent = true;
  options.route_pruning.dominance = true;
  options.route_pruning.cheap_first = true;
  return options;
}

Generation Describe(const core::PathWeightFunction& model, std::string path) {
  Generation g;
  g.path = std::move(path);
  g.fingerprint = model.fingerprint();
  g.variables = model.NumVariables();
  g.resident_bytes = model.ResidentBytes();
  return g;
}

/// Serves the warm-up requests; each call is a span under `parent` on
/// `lane` (null: tracing off).
using Warmup = std::function<void(const serving::Engine&, Tracer::Lane* lane,
                                  uint64_t parent)>;

/// One set-up. Its parts are recorded as spans on `lane` (null: tracing
/// off) under one "setup" root.
Stack SetUp(const Dataset& data, const std::string& workdir,
            const Warmup& warmup, Tracer::Lane* lane) {
  const core::HybridParams params = ModelParams();
  Stack stack;
  const uint64_t root = lane != nullptr ? lane->NewId() : 0;
  const uint64_t warmup_span = lane != nullptr ? lane->NewId() : 0;
  const CpuAccount account0 = ReadCpuAccount();
  const int64_t cpu0 = ThreadCpuNs();
  const int64_t t0 = NowNs();
  const traj::TrajectoryStore store(data.base);
  const int64_t t1 = NowNs();
  core::WeightFunctionBuilder builder{core::TimeBinning(params.alpha_minutes)};
  Must(core::InstantiateIntoBuilder(*data.graph, store, params, &builder),
       "generation 1 instantiation");
  const core::PathWeightFunction g1 =
      MustValue(std::move(builder).TryFreeze(), "generation 1 freeze");
  const int64_t t2 = NowNs();
  stack.gen[0] = Describe(g1, workdir + "/generation1.pcdewf");
  Must(core::SaveWeightFunctionBinary(g1, stack.gen[0].path),
       "generation 1 save");
  const int64_t t3 = NowNs();
  const traj::TrajectoryStore delta_store(data.delta);
  core::WeightFunctionBuilder delta = core::WeightFunctionBuilder::FromFrozen(g1);
  Must(core::InstantiateIntoBuilder(*data.graph, delta_store, params, &delta),
       "delta instantiation");
  const core::PathWeightFunction g2 =
      MustValue(std::move(delta).TryFreeze(), "generation 2 freeze");
  const int64_t t4 = NowNs();
  stack.gen[1] = Describe(g2, workdir + "/generation2.pcdewf");
  Must(core::SaveWeightFunctionBinary(g2, stack.gen[1].path),
       "generation 2 save");
  const int64_t t5 = NowNs();
  serving::EngineOptions options = ServingOptions(data);
  options.model_path = stack.gen[0].path;
  stack.engine = MustValue(serving::Engine::Open(options), "Engine::Open");
  const int64_t t6 = NowNs();
  warmup(*stack.engine, lane, warmup_span);
  const int64_t t7 = NowNs();
  const int64_t cpu1 = ThreadCpuNs();
  const CpuAccount account1 = ReadCpuAccount();

  stack.time.wall_s = SecondsBetween(t0, t7);
  stack.time.cpu_s = SecondsBetween(cpu0, cpu1);
  stack.time.seconds =
      WallLessSteal(stack.time.wall_s, stack.time.cpu_s,
                    StealPerRunSecond(account0, account1));
  if (lane != nullptr) {
    lane->Add(root, 0, 0, "setup", t0, t7);
    lane->Add(lane->NewId(), root, 0, "traj.store_build", t0, t1);
    lane->Add(lane->NewId(), root, 0, "core.build", t1, t2);
    lane->Add(lane->NewId(), root, 0, "core.save", t2, t3);
    lane->Add(lane->NewId(), root, 0, "core.delta_build", t3, t4);
    lane->Add(lane->NewId(), root, 0, "core.save", t4, t5);
    lane->Add(lane->NewId(), root, 0, "engine.open", t5, t6);
    lane->Add(warmup_span, root, 0, "warmup", t6, t7);
  }
  return stack;
}

/// A cache-less, single-worker engine over one generation's artifact: the
/// reference the cached answers are compared against, and the source of
/// the golden probes' stamped references. Open only while in use.
std::unique_ptr<serving::Engine> OpenReference(const Dataset& data,
                                               const Generation& g,
                                               Tracer::Lane* lane) {
  serving::EngineOptions options = ServingOptions(data);
  options.model_path = g.path;
  options.query_cache_bytes = 0;
  options.num_threads = 1;
  ScopedSpan span(lane, 0, "check.open");
  return MustValue(serving::Engine::Open(options), "reference Engine::Open");
}

serving::EstimateRequest OdRequest(const OdQuery& q) {
  serving::EstimateRequest request;
  request.path = serving::PathSpec::OdPair(q.from, q.to);
  request.departure_time = q.departure;
  request.budget_seconds = q.budget;
  return request;
}

serving::SwapOptions StampedProbes(
    const serving::Engine& reference,
    const std::vector<serving::EstimateRequest>& requests,
    Tracer::Lane* lane) {
  serving::SwapOptions options;
  for (const serving::EstimateRequest& request : requests) {
    serving::GoldenProbe probe;
    probe.request = request;
    probe.has_reference = true;
    ScopedSpan span(lane, 0, "check.stamp");
    probe.reference =
        MustValue(reference.Estimate(request), "probe reference").summary;
    options.probes.push_back(std::move(probe));
  }
  return options;
}

// ---------------------------------------------------------------------------
// Measured phase.

/// State shared by the clients and the publisher of one measured phase.
struct Phase {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  uint64_t publish_every = 0;  // set before the threads start
  std::mutex mutex;
  std::condition_variable wake;
  bool publisher_stop = false;  // guarded by mutex

  void WaitForGo() const {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  /// Counts one completed request; wakes the publisher at publish points.
  void Complete() {
    const uint64_t done = completed.fetch_add(1, std::memory_order_relaxed) + 1;
    if (done % publish_every == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      wake.notify_all();
    }
  }
};

struct Context {
  const serving::Engine* engine = nullptr;
  const roadnet::Graph* graph = nullptr;
  uint64_t fingerprints[2] = {0, 0};
  bool tracing = false;
  uint64_t seed = 0;

  bool KnownFingerprint(uint64_t fp) const {
    return fp == fingerprints[0] || fp == fingerprints[1];
  }
};

/// One estimate request a client sent, with what it was served, for the
/// cache-less re-check after the phase.
struct Sample {
  serving::EstimateRequest request;
  serving::CostSummary summary;
  uint64_t fingerprint = 0;
  bool hit = false;
};

struct ClientSource {
  std::vector<serving::EstimateRequest> slots;  // prebuilt requests
  std::vector<uint32_t> slot_of;                // request j -> slot
  std::vector<double> departure_of;  // request j -> departure; empty: slot's
};

/// A client's time over the measured phase, and the calls it made.
struct ClientClock {
  std::vector<float> cpu_us;  // per call, on the client's thread CPU clock
  double cpu_s = 0.0;         // over the phase
  double wall_s = 0.0;
  // Traced mode: the client cycles of the requests it did not trace.
  uint64_t untraced = 0;
  double untraced_s = 0.0;

  void Start() {
    cpu_us.reserve(size_t{1} << 19);
    wall0_ = NowNs();
    cpu0_ = ThreadCpuNs();
  }
  void Stop() {
    cpu_s = SecondsBetween(cpu0_, ThreadCpuNs());
    wall_s = SecondsBetween(wall0_, NowNs());
  }
  void RecordCall(int64_t cpu_ns) {
    cpu_us.push_back(1e-3f * static_cast<float>(cpu_ns));
  }
  void RecordUntraced(int64_t cycle_start) {
    ++untraced;
    untraced_s += SecondsBetween(cycle_start, NowNs());
  }

 private:
  int64_t wall0_ = 0;
  int64_t cpu0_ = 0;
};

/// Counters the engine returned with the traced estimates, summed.
struct BreakdownSums {
  double oi_s = 0.0;
  double jc_s = 0.0;
  double mc_s = 0.0;
  double parts = 0.0;
  double max_states = 0.0;

  void Add(const core::EstimateBreakdown& b) {
    oi_s += b.oi_seconds;
    jc_s += b.jc_seconds;
    mc_s += b.mc_seconds;
    parts += static_cast<double>(b.parts);
    max_states += static_cast<double>(b.chain.max_states);
  }
};

struct EstimateTally {
  ClientClock clock;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;
  std::string first_error;
  std::vector<Sample> samples;
  BreakdownSums breakdown;

  /// Records why a request failed; returns false for the caller's verdict.
  bool Note(const std::string& what) {
    if (first_error.empty()) first_error = what;
    return false;
  }
};

/// Records the spans of a traced estimate: the call, and re-runs outside it
/// of the layers the engine ran inside it that the benchmark can call
/// itself (path resolution or validation, and summarization). Returns false
/// when a re-run disagrees with the response.
bool TraceEstimate(const Context& ctx, const serving::EstimateRequest& request,
                   const serving::EstimateResponse& r, uint64_t request_id,
                   int64_t cycle_start, int64_t call_start, int64_t call_end,
                   EstimateTally* t, Tracer::Lane* lane) {
  const uint64_t root = lane->NewId();
  lane->Add(lane->NewId(), root, request_id, "engine.estimate", call_start,
            call_end);
  bool ok = true;
  const int64_t a = NowNs();
  if (request.path.is_od) {
    auto resolved = roadnet::ShortestPath(*ctx.graph, request.path.from,
                                          request.path.to,
                                          roadnet::FreeFlowWeight(*ctx.graph));
    lane->Add(lane->NewId(), root, request_id, "roadnet.shortest_path", a,
              NowNs());
    if (!resolved.ok() || !(resolved.value() == r.resolved_path)) {
      ok = t->Note("resolved path differs from roadnet::ShortestPath");
    }
  } else {
    const bool valid =
        roadnet::ValidatePath(*ctx.graph, request.path.edges.edges()).ok();
    lane->Add(lane->NewId(), root, request_id, "roadnet.validate_path", a,
              NowNs());
    if (!valid) ok = t->Note("served an invalid explicit path");
  }
  const int64_t c = NowNs();
  serving::CostSummary summary = serving::SummarizeDistribution(
      *r.distribution, request.stats, request.budget_seconds,
      request.quantiles);
  lane->Add(lane->NewId(), root, request_id, "serving.summarize", c, NowNs());
  summary.degradation = r.summary.degradation;
  summary.covered_fraction = r.summary.covered_fraction;
  if (!summary.ExactlyEquals(r.summary)) {
    ok = t->Note("SummarizeDistribution disagrees with the served summary");
  }
  t->breakdown.Add(r.breakdown);
  lane->Add(root, 0, request_id, "client.request", cycle_start, NowNs());
  return ok;
}

void RunEstimateClient(const Context& ctx, size_t client, ClientSource* src,
                       Phase* phase, EstimateTally* t, Tracer::Lane* lane) {
  const size_t n = src->slot_of.size();
  phase->WaitForGo();
  t->clock.Start();
  for (size_t j = 0; !phase->stop.load(std::memory_order_relaxed); ++j) {
    const int64_t cycle_start = NowNs();
    const size_t k = j % n;
    serving::EstimateRequest& request = src->slots[src->slot_of[k]];
    if (!src->departure_of.empty()) request.departure_time = src->departure_of[k];
    // Traced mode traces every other request; the untraced half measures
    // what tracing costs.
    const bool traced = ctx.tracing && j % 2 == 0;
    request.want_breakdown = traced;
    request.want_distribution = traced;
    const int64_t cpu_start = ThreadCpuNs();
    const int64_t call_start = NowNs();
    auto response = ctx.engine->Estimate(request);
    const int64_t call_end = NowNs();
    const int64_t cpu_end = ThreadCpuNs();
    ++t->attempted;
    t->clock.RecordCall(cpu_end - cpu_start);
    if (!response.ok()) {
      t->Note("Estimate: " + response.status().ToString());
      ++t->failed;
      phase->Complete();
      continue;
    }
    const serving::EstimateResponse& r = response.value();
    bool ok = true;
    if (!SummaryOk(r.summary, request)) ok = t->Note("malformed summary");
    if (!ctx.KnownFingerprint(r.model_fingerprint)) {
      ok = t->Note("response names an unknown model fingerprint");
    }
    if (r.summary.degradation != core::DegradationLevel::kFull) ++t->degraded;
    const uint64_t request_id = (static_cast<uint64_t>(client) << 40) | j;
    if (t->samples.size() < kMaxSamples &&
        StreamSeed(ctx.seed ^ kSampleStream, request_id) % kSampleEvery == 0) {
      Sample sample;
      sample.request = request;
      sample.request.want_breakdown = false;
      sample.request.want_distribution = false;
      sample.summary = r.summary;
      sample.fingerprint = r.model_fingerprint;
      sample.hit = r.served_from_cache;
      t->samples.push_back(std::move(sample));
    }
    if (traced) {
      ok &= TraceEstimate(ctx, request, r, request_id, cycle_start,
                          call_start, call_end, t, lane);
    } else if (ctx.tracing) {
      t->clock.RecordUntraced(cycle_start);
    }
    if (!ok) ++t->failed;
    phase->Complete();
  }
  t->clock.Stop();
}

/// One Engine::Swap(path) call's wall and CPU time.
struct SwapTime {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

struct RefreshTally {
  std::vector<SwapTime> swap[2];  // per generation published
  uint64_t swaps = 0;
  uint64_t failed = 0;
  uint64_t not_advanced = 0;
  std::string first_error;
};

/// One verified publish of generation `g` through Engine::Swap(path). In
/// traced mode the artifact is also loaded on its own, to split the swap
/// into load and the rest (verification and the epoch build).
void Publish(serving::Engine* engine, const Generation (&gen)[2], size_t index,
             const serving::SwapOptions (&probes)[2], bool tracing,
             RefreshTally* t, Tracer::Lane* lane) {
  const Generation& g = gen[index];
  const uint64_t before = engine->epoch_sequence();
  const int64_t cpu0 = ThreadCpuNs();
  const int64_t a = NowNs();
  auto swapped = engine->Swap(g.path, probes[index]);
  const int64_t b = NowNs();
  const int64_t cpu1 = ThreadCpuNs();
  ++t->swaps;
  t->swap[index].push_back(SwapTime{1e3 * SecondsBetween(a, b),
                                    1e3 * SecondsBetween(cpu0, cpu1)});
  if (!swapped.ok()) {
    ++t->failed;
    if (t->first_error.empty()) t->first_error = swapped.status().ToString();
  } else if (swapped.value() != before + 1) {
    ++t->not_advanced;
  }
  if (!tracing) return;
  const int64_t c = NowNs();
  auto loaded = core::LoadWeightFunctionBinary(g.path);
  const int64_t d = NowNs();
  if (!loaded.ok() || loaded.value().fingerprint() != g.fingerprint) {
    ++t->failed;
    if (t->first_error.empty()) t->first_error = "artifact reload differs";
  }
  lane->Add(lane->NewId(), 0, 0, "engine.swap", a, b);
  lane->Add(lane->NewId(), 0, 0, "core.load_weight_function", c, d);
}

/// Publishes at fixed completed-request counts, alternating generation 2
/// and generation 1, so every publish changes the served model.
void RunPublisher(serving::Engine* engine, Phase* phase,
                  const Generation (&gen)[2],
                  const serving::SwapOptions (&probes)[2], bool tracing,
                  RefreshTally* t, Tracer::Lane* lane) {
  uint64_t next_point = phase->publish_every;
  size_t next_gen = 1;
  std::unique_lock<std::mutex> lock(phase->mutex);
  for (;;) {
    phase->wake.wait(lock, [&] {
      return phase->publisher_stop ||
             phase->completed.load(std::memory_order_relaxed) >= next_point;
    });
    if (phase->publisher_stop) return;
    lock.unlock();
    Publish(engine, gen, next_gen, probes, tracing, t, lane);
    next_gen ^= 1;
    next_point += phase->publish_every;
    lock.lock();
  }
}

/// A route as served, for the unpruned re-check.
struct ServedRoute {
  serving::RouteRequest request;
  double probability = 0.0;
  uint64_t fingerprint = 0;
};

struct RouteTally {
  ClientClock clock;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t truncated = 0;
  std::string first_error;
  double expansions = 0.0;
  double clones = 0.0;
  double candidates = 0.0;
  double bound_pruned = 0.0;
  double incumbent_pruned = 0.0;
  double dominance_pruned = 0.0;
  std::vector<ServedRoute> parity;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

serving::RouteRequest RouteRequestOf(const RouteCase& c, size_t pass) {
  serving::RouteRequest request;
  request.from = c.from;
  request.to = c.to;
  request.departure_time = c.departures[pass % c.departures.size()];
  request.budget_seconds = c.budget;
  return request;
}

void RunRouteClient(const Context& ctx, const std::vector<RouteCase>& cases,
                    Phase* phase, RouteTally* t, Tracer::Lane* lane) {
  phase->WaitForGo();
  t->clock.Start();
  uint64_t j = 0;
  for (size_t pass = 0; !phase->stop.load(std::memory_order_relaxed); ++pass) {
    for (size_t i = 0;
         i < cases.size() && !phase->stop.load(std::memory_order_relaxed);
         ++i, ++j) {
      const int64_t cycle_start = NowNs();
      const serving::RouteRequest request = RouteRequestOf(cases[i], pass);
      const int64_t cpu_start = ThreadCpuNs();
      const int64_t call_start = NowNs();
      auto response = ctx.engine->Route(request);
      const int64_t call_end = NowNs();
      const int64_t cpu_end = ThreadCpuNs();
      ++t->attempted;
      t->clock.RecordCall(cpu_end - cpu_start);
      if (!response.ok()) {
        t->Fail("Route: " + response.status().ToString());
        phase->Complete();
        continue;
      }
      const serving::RouteResponse& r = response.value();
      if (r.truncated) ++t->truncated;
      if (!RouteOk(*ctx.graph, request, r)) {
        t->Fail("invalid or truncated route");
      } else if (!ctx.KnownFingerprint(r.model_fingerprint)) {
        t->Fail("route names an unknown model fingerprint");
      }
      t->expansions += static_cast<double>(r.expansions);
      t->clones += static_cast<double>(r.estimator_clones);
      t->candidates += static_cast<double>(r.candidate_paths);
      t->bound_pruned += static_cast<double>(r.bound_pruned);
      t->incumbent_pruned += static_cast<double>(r.incumbent_pruned);
      t->dominance_pruned += static_cast<double>(r.dominance_pruned);
      if (t->parity.size() < kMaxRouteParitySamples && !r.truncated &&
          StreamSeed(ctx.seed ^ kSampleStream, j) % 64 == 0) {
        t->parity.push_back(
            ServedRoute{request, r.on_time_probability, r.model_fingerprint});
      }
      // Traced mode traces every other request of a case, alternating
      // across passes, so both halves see the same cases.
      if (ctx.tracing && (i + pass) % 2 == 0) {
        const uint64_t root = lane->NewId();
        lane->Add(lane->NewId(), root, j, "engine.route", call_start,
                  call_end);
        lane->Add(root, 0, j, "client.request", cycle_start, NowNs());
      } else if (ctx.tracing) {
        t->clock.RecordUntraced(cycle_start);
      }
      phase->Complete();
    }
  }
  t->clock.Stop();
}

/// An unpruned search on `engine` (serving the route's generation) must find
/// the on-time probability the pruned one served (docs/serving.md: the
/// pruners preserve it exactly on non-truncated searches).
void CheckRouteParity(const serving::Engine& engine, const ServedRoute& served,
                      Tracer::Lane* lane, Checks* checks) {
  serving::RouteRequest request = served.request;
  request.use_pruning_override = true;
  request.pruning = pcde::routing::PruningOptions();
  ScopedSpan span(lane, 0, "check.route");
  auto plain = engine.Route(request);
  checks->Require(plain.ok(), "unpruned route failed");
  if (!plain.ok() || plain.value().truncated) return;
  checks->Require(plain.value().on_time_probability == served.probability,
                  "pruned route lost on-time probability parity");
}

// ---------------------------------------------------------------------------
// Quality probes (untimed), on the generation serving at the end of the run.

/// Ground truth of a window: the Auto histogram (the model's own histogram
/// construction) of kOracleSamples Monte Carlo trips on its path from the
/// traffic process that generated the data.
std::vector<hist::Histogram1D> GroundTruth(const Dataset& data,
                                           const std::vector<Window>& windows,
                                           uint64_t seed) {
  const core::HybridParams params = ModelParams();
  std::vector<hist::Histogram1D> truth;
  for (size_t w = 0; w < windows.size(); ++w) {
    pcde::Rng rng(StreamSeed(seed ^ kOracleStream, w));
    // Each trip enters the window from the edge the window's source trip
    // came from, so the turn and signal delay charged on entering the
    // window's first edge is in the truth, as it is in the data.
    const Window& window = windows[w];
    std::vector<roadnet::EdgeId> edges{window.previous_edge};
    edges.insert(edges.end(), window.path.begin(), window.path.end());
    const roadnet::Path entered(std::move(edges));
    const double start =
        window.departure - data.graph->edge(window.previous_edge).FreeFlowSeconds();
    std::vector<double> totals;
    totals.reserve(kOracleSamples);
    for (size_t s = 0; s < kOracleSamples; ++s) {
      const traj::MatchedTrajectory trip =
          data.generator->GenerateOnPath(entered, start, &rng).truth;
      totals.push_back(trip.TotalSeconds() - trip.edge_travel_seconds[0]);
    }
    truth.push_back(MustValue(
        hist::BuildAutoHistogram(totals, params.bucket_options), "oracle"));
  }
  return truth;
}

struct Quality {
  double kl = 0.0;
  size_t windows = 0;
  double ontime = 0.0;
  size_t routes = 0;
};

Quality MeasureQuality(const serving::Engine& engine, const Context& ctx,
                       const std::vector<Window>& windows,
                       const std::vector<hist::Histogram1D>& truth,
                       const std::vector<RouteCase>& route_probes,
                       Tracer::Lane* lane, Checks* checks) {
  Quality q;
  for (size_t w = 0; w < windows.size(); ++w) {
    serving::EstimateRequest request;
    request.path = serving::PathSpec::ExplicitPath(windows[w].path);
    request.departure_time = windows[w].departure;
    request.want_distribution = true;
    auto response = [&] {
      ScopedSpan span(lane, 0, "quality.estimate");
      return engine.Estimate(request);
    }();
    checks->Require(response.ok() && response.value().distribution.has_value(),
                    "accuracy window estimate failed");
    if (!response.ok()) continue;
    q.kl += hist::KlDivergence(truth[w], *response.value().distribution);
    ++q.windows;
  }
  checks->Require(q.windows > 0, "no accuracy windows");
  if (q.windows > 0) q.kl /= static_cast<double>(q.windows);

  for (size_t i = 0; i < route_probes.size(); ++i) {
    const serving::RouteRequest request = RouteRequestOf(route_probes[i], 0);
    auto response = [&] {
      ScopedSpan span(lane, 0, "quality.route");
      return engine.Route(request);
    }();
    checks->Require(response.ok() &&
                        RouteOk(*ctx.graph, request, response.value()),
                    "route probe failed or was truncated");
    if (!response.ok()) continue;
    q.ontime += response.value().on_time_probability;
    ++q.routes;
    if (i % kParityEvery == 0) {
      CheckRouteParity(engine,
                       ServedRoute{request,
                                   response.value().on_time_probability,
                                   response.value().model_fingerprint},
                       lane, checks);
    }
  }
  if (q.routes > 0) q.ontime /= static_cast<double>(q.routes);
  return q;
}

// ---------------------------------------------------------------------------

template <typename T>
double Mean(double sum, T count) {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "path_cold" || name == "od_hot_refresh" ||
         name == "route_budget";
}


RunResult RunWorkload(const RunOptions& opt) {
  const Workload workload = ParseWorkload(opt.workload);
  Tracer tracer;
  // The main thread's spans: inputs, set-ups, checks and quality probes.
  Tracer::Lane* const main_lane = opt.trace ? tracer.NewLane() : nullptr;
  Checks checks;

  // Inputs: generated from the seed, never timed.
  const int64_t inputs_start = NowNs();
  const Dataset data = MakeDataset(opt.seed);
  const std::vector<Window> windows = MakeWindows(data);
  const std::vector<hist::Histogram1D> truth =
      GroundTruth(data, windows, opt.seed);
  const std::vector<RouteCase> all_cases = MakeRouteCases(
      data, opt.seed, kRouteWarmupCases + kRouteCases, kRoutePasses);
  const std::vector<RouteCase> warmup_cases(
      all_cases.begin(), all_cases.begin() + kRouteWarmupCases);
  const std::vector<RouteCase> route_cases(
      all_cases.begin() + kRouteWarmupCases, all_cases.end());
  const std::vector<RouteCase> route_probes(
      route_cases.begin(), route_cases.begin() + kRouteProbes);
  std::vector<serving::EstimateRequest> probe_requests;
  for (const OdQuery& q : MakeProbes(data, kProbes)) {
    probe_requests.push_back(OdRequest(q));
  }
  ColdInputs cold;
  HotInputs hot;
  std::vector<ClientSource> sources(kClients);
  Warmup warmup;
  if (workload == Workload::kPathCold) {
    cold = MakeColdInputs(data, opt.seed, kClients, kColdRequestsPerClient,
                          kColdWarmup);
    for (size_t c = 0; c < kClients; ++c) {
      for (const roadnet::Path& path : cold.pools[c]) {
        serving::EstimateRequest request;
        double free_flow = 0.0;
        for (roadnet::EdgeId e : path) {
          free_flow += data.graph->edge(e).FreeFlowSeconds();
        }
        request.path = serving::PathSpec::ExplicitPath(path);
        request.budget_seconds = 1.3 * free_flow;
        sources[c].slots.push_back(std::move(request));
      }
      sources[c].slot_of = std::move(cold.requests[c].path);
      sources[c].departure_of = std::move(cold.requests[c].departure);
    }
    cold.pools.clear();  // copied into the request slots
    warmup = [&cold](const serving::Engine& engine, Tracer::Lane* lane,
                     uint64_t parent) {
      for (size_t j = 0; j < cold.warmup.path.size(); ++j) {
        serving::EstimateRequest request;
        request.path =
            serving::PathSpec::ExplicitPath(cold.warmup_pool[cold.warmup.path[j]]);
        request.departure_time = cold.warmup.departure[j];
        ScopedSpan span(lane, parent, "warmup.estimate");
        Must(engine.Estimate(request).status(), "warm-up estimate");
      }
    };
  } else if (workload == Workload::kOdHotRefresh) {
    hot = MakeHotInputs(data, opt.seed, kClients, kHotPool,
                        kHotRequestsPerClient);
    for (size_t c = 0; c < kClients; ++c) {
      for (const OdQuery& q : hot.pool) sources[c].slots.push_back(OdRequest(q));
      sources[c].slot_of = std::move(hot.streams[c]);
    }
    warmup = [&hot](const serving::Engine& engine, Tracer::Lane* lane,
                    uint64_t parent) {
      for (const OdQuery& q : hot.pool) {
        ScopedSpan span(lane, parent, "warmup.estimate");
        Must(engine.Estimate(OdRequest(q)).status(), "warm-up estimate");
      }
    };
  } else {
    warmup = [&warmup_cases](const serving::Engine& engine, Tracer::Lane* lane,
                             uint64_t parent) {
      for (const RouteCase& c : warmup_cases) {
        ScopedSpan span(lane, parent, "warmup.route");
        Must(engine.Route(RouteRequestOf(c, 0)).status(), "warm-up route");
      }
    };
  }
  if (main_lane != nullptr) {
    main_lane->Add(main_lane->NewId(), 0, 0, "inputs", inputs_start, NowNs());
  }
  const double inputs_rss_mb = PeakRssMb();

  // Set-up, repeated; setup_s is the median, the last stack serves.
  std::vector<SetupTime> setups;
  Stack stack;
  uint64_t first_fingerprints[2] = {0, 0};
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack = Stack();  // the previous stack is torn down before the next
    stack = SetUp(data, opt.workdir, warmup, main_lane);
    setups.push_back(stack.time);
    if (rep == 0) {
      first_fingerprints[0] = stack.gen[0].fingerprint;
      first_fingerprints[1] = stack.gen[1].fingerprint;
    }
    checks.Require(stack.gen[0].fingerprint == first_fingerprints[0] &&
                       stack.gen[1].fingerprint == first_fingerprints[1],
                   "repeated set-up built a different model");
  }
  serving::Engine& engine = *stack.engine;
  const Generation (&gen)[2] = stack.gen;
  checks.Require(gen[0].fingerprint != gen[1].fingerprint,
                 "the delta batch did not change the model");

  // Golden probes for the verified swaps, stamped by a cache-less engine of
  // each generation. Each reference engine is closed before the next opens,
  // and before the measured phase.
  serving::SwapOptions probes[2];
  for (size_t g = 0; g < 2; ++g) {
    probes[g] = StampedProbes(*OpenReference(data, gen[g], main_lane),
                              probe_requests, main_lane);
  }

  Context ctx;
  ctx.engine = &engine;
  ctx.graph = data.graph.get();
  ctx.fingerprints[0] = gen[0].fingerprint;
  ctx.fingerprints[1] = gen[1].fingerprint;
  ctx.tracing = opt.trace;
  ctx.seed = opt.seed;

  core::QueryCache* cache = engine.query_cache();
  const core::QueryCacheStats cache_before = cache->stats();
  const uint64_t epoch_before = engine.epoch_sequence();

  // Measured phase.
  Phase phase;
  phase.publish_every = workload == Workload::kRouteBudget ? kRoutePublishEvery
                                                           : kPublishEvery;
  std::vector<EstimateTally> estimate(kClients);
  std::vector<RouteTally> route(1);
  RefreshTally refresh;
  CpuAccount account_start;
  CpuAccount account_end;
  int64_t start = 0;
  int64_t end = 0;
  {
    std::vector<std::thread> clients;
    std::thread publisher;
    if (workload == Workload::kRouteBudget) {
      Tracer::Lane* lane = tracer.NewLane();
      clients.emplace_back(RunRouteClient, std::cref(ctx),
                           std::cref(route_cases), &phase, &route[0], lane);
    } else {
      for (size_t c = 0; c < kClients; ++c) {
        Tracer::Lane* lane = tracer.NewLane();
        clients.emplace_back(RunEstimateClient, std::cref(ctx), c,
                             &sources[c], &phase, &estimate[c], lane);
      }
    }
    Tracer::Lane* lane = tracer.NewLane();
    publisher = std::thread(RunPublisher, &engine, &phase, std::cref(gen),
                            std::cref(probes), opt.trace, &refresh, lane);
    account_start = ReadCpuAccount();
    start = NowNs();
    phase.go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
    phase.stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : clients) t.join();
    end = NowNs();
    account_end = ReadCpuAccount();
    {
      std::lock_guard<std::mutex> lock(phase.mutex);
      phase.publisher_stop = true;
    }
    phase.wake.notify_all();
    publisher.join();
  }
  const double measured_s = SecondsBetween(start, end);
  const double steal_ratio = StealPerRunSecond(account_start, account_end);
  const core::QueryCacheStats cache_after = cache->stats();

  // Every run ends serving generation 2, whatever the publish count.
  RefreshTally after;
  if (engine.model_snapshot()->fingerprint() != gen[1].fingerprint) {
    ScopedSpan span(main_lane, 0, "final.swap");
    Publish(&engine, gen, 1, probes, false, &after, nullptr);
  }
  const uint64_t published = engine.epoch_sequence() - epoch_before;
  const uint64_t swaps = refresh.swaps + after.swaps;
  checks.Require(refresh.failed + after.failed == 0,
                 "publish failed: " + refresh.first_error + after.first_error);
  checks.Require(refresh.not_advanced + after.not_advanced == 0,
                 "a publish did not advance the epoch");
  checks.Require(published == swaps,
                 "epochs published differ from the swaps made");
  checks.Require(!refresh.swap[0].empty() && !refresh.swap[1].empty(),
                 "the run did not publish both generations");
  checks.Require(engine.model_snapshot()->fingerprint() == gen[1].fingerprint,
                 "generation 2 is not serving at the end of the run");
  // The generations' swaps differ in cost and their counts differ by up to
  // one, so a median over both would sit on the gap between them; the
  // refresh figure is the mean of the per-generation medians.
  auto swap_median_ms = [&refresh, steal_ratio](size_t g, bool cpu_clock) {
    std::vector<double> ms;
    for (const SwapTime& t : refresh.swap[g]) {
      ms.push_back(cpu_clock ? t.cpu_ms
                             : WallLessSteal(t.wall_ms, t.cpu_ms, steal_ratio));
    }
    return Median(std::move(ms));
  };
  const double refresh_ms = 0.5 * (swap_median_ms(0, false) +
                                   swap_median_ms(1, false));

  // Sampled answers and routes, re-run on a cache-less engine of the
  // generation that served them, one generation at a time.
  size_t samples = 0;
  size_t sampled_hits = 0;
  for (size_t g = 0; g < 2; ++g) {
    const std::unique_ptr<serving::Engine> reference =
        OpenReference(data, gen[g], main_lane);
    for (const ServedRoute& served : route[0].parity) {
      if (served.fingerprint == gen[g].fingerprint) {
        CheckRouteParity(*reference, served, main_lane, &checks);
      }
    }
    for (const EstimateTally& t : estimate) {
      for (const Sample& s : t.samples) {
        if (s.fingerprint != gen[g].fingerprint) continue;
        auto expected = [&] {
          ScopedSpan span(main_lane, 0, "check.estimate");
          return reference->Estimate(s.request);
        }();
        checks.Require(expected.ok() &&
                           expected.value().model_fingerprint == s.fingerprint &&
                           expected.value().summary.ExactlyEquals(s.summary),
                       "served answer differs from the cache-less engine");
        ++samples;
        if (s.hit) ++sampled_hits;
      }
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;
  std::vector<const ClientClock*> clocks;
  if (workload == Workload::kRouteBudget) {
    attempted = route[0].attempted;
    failed = route[0].failed;
    checks.Require(route[0].failed == 0, "route client: " + route[0].first_error);
    clocks.push_back(&route[0].clock);
  } else {
    for (const EstimateTally& t : estimate) {
      attempted += t.attempted;
      failed += t.failed;
      degraded += t.degraded;
      checks.Require(t.failed == 0, "estimate client: " + t.first_error);
      clocks.push_back(&t.clock);
    }
    checks.Require(samples > 0, "no sampled answers to re-check");
    for (size_t c = 0; c < kClients; ++c) {
      if (workload == Workload::kPathCold &&
          estimate[c].attempted > sources[c].slot_of.size()) {
        std::printf("# client %zu wrapped around its request list\n", c);
      }
    }
  }
  checks.Require(attempted > 0, "no request completed");

  const Quality quality = MeasureQuality(engine, ctx, windows, truth,
                                         route_probes, main_lane, &checks);

  std::printf("# %s seed=%llu: %llu requests in %.3f s; %zu answers "
              "re-checked cache-less (%zu cache hits); %zu accuracy windows; "
              "%zu route probes; %llu publishes\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(attempted), measured_s, samples,
              sampled_hits, quality.windows, quality.routes,
              static_cast<unsigned long long>(published));

  RunResult result;
  result.attempted = attempted;
  result.failed = failed;
  const uint64_t cache_hits = cache_after.hits - cache_before.hits;
  const uint64_t cache_lookups =
      cache_hits + (cache_after.misses - cache_before.misses);
  const double cache_hit_ratio = Mean(static_cast<double>(cache_hits),
                                      cache_lookups);
  auto add = [&result](const char* name, double value, const char* unit) {
    result.metrics.push_back(Metric{name, value, unit});
  };

  if (!opt.trace) {
    // Latency per call on the clients' CPU clocks. Throughput per client
    // second of wall time less the host's steal: time a client waits on a
    // lock or for I/O counts, time the host takes its vCPU away does not.
    std::vector<float> latencies;
    double client_s = 0.0;
    double cpu_s = 0.0;
    double wall_s = 0.0;
    for (const ClientClock* c : clocks) {
      latencies.insert(latencies.end(), c->cpu_us.begin(), c->cpu_us.end());
      client_s += WallLessSteal(c->wall_s, c->cpu_s, steal_ratio);
      cpu_s += c->cpu_s;
      wall_s += c->wall_s;
    }
    const double requests = static_cast<double>(attempted);
    const double n = static_cast<double>(clocks.size());
    std::printf("# clients: %.1f requests/s of wall time less steal, %.1f of "
                "wall time, %.1f of CPU time (%.5f s stolen per s run)\n",
                requests * n / client_s, requests * n / wall_s,
                requests * n / cpu_s, steal_ratio);
    auto setup_median = [&setups](double SetupTime::*field) {
      std::vector<double> v;
      for (const SetupTime& s : setups) v.push_back(s.*field);
      return Median(std::move(v));
    };
    std::printf("# set-up, median of %d: %.4f s wall less steal, %.4f s "
                "wall, %.4f s CPU\n",
                kSetupRepeats, setup_median(&SetupTime::seconds),
                setup_median(&SetupTime::wall_s),
                setup_median(&SetupTime::cpu_s));
    std::printf("# refresh over %zu + %zu swaps: %.4f ms wall less steal, "
                "%.4f ms CPU\n",
                refresh.swap[0].size(), refresh.swap[1].size(), refresh_ms,
                0.5 * (swap_median_ms(0, true) + swap_median_ms(1, true)));
    add("throughput_rps", requests * n / client_s, "1/s");
    add("latency_p50_ms", 1e-3 * Percentile(&latencies, 0.50), "ms");
    add("latency_p99_ms", 1e-3 * Percentile(&latencies, 0.99), "ms");
    add("ok_frac", static_cast<double>(attempted - failed) / requests, "frac");
    add("setup_s", setup_median(&SetupTime::seconds), "s");
    add("peak_rss_mb", PeakRssMb(), "MB");
    add("accuracy_kl", quality.kl, "nats");
    add("route_ontime_prob", quality.ontime, "prob");
    add("refresh_p50_ms", refresh_ms, "ms");
    std::printf("# latency samples: %zu (p99 has %zu beyond it)\n",
                latencies.size(), latencies.size() / 100);
    std::printf("# memory: %.1f MB peak after input generation; generation "
                "1 model %.2f MB; query cache %.2f MB in %zu entries at the "
                "end\n",
                inputs_rss_mb,
                static_cast<double>(gen[0].resident_bytes) / (1 << 20),
                static_cast<double>(cache_after.bytes) / (1 << 20),
                cache_after.entries);
  } else {
    // Layer times come from the spans: a span name's summed duration per
    // traced request (client.request roots) or per set-up (setup roots).
    // Counts and engine-internal stage times come from returned counters.
    const std::map<std::string, SpanTotal> spans = tracer.Totals();
    auto total = [&spans](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? SpanTotal() : it->second;
    };
    const SpanTotal requests = total("client.request");
    const uint64_t setup_count = total("setup").count;
    auto span_us = [&](const char* name) {
      return 1e6 * Mean(total(name).seconds, requests.count);
    };
    auto per_setup_s = [&](const char* name) {
      return Mean(total(name).seconds, setup_count);
    };
    auto mean_ms = [&](const char* name) {
      const SpanTotal t = total(name);
      return 1e3 * Mean(t.seconds, t.count);
    };
    auto breakdown = [&](double BreakdownSums::*field) {
      double sum = 0.0;
      for (const EstimateTally& t : estimate) sum += t.breakdown.*field;
      return Mean(sum, requests.count);
    };
    uint64_t untraced = 0;
    double untraced_s = 0.0;
    for (const ClientClock* c : clocks) {
      untraced += c->untraced;
      untraced_s += c->untraced_s;
    }
    const bool routing = workload == Workload::kRouteBudget;
    const double call_us = span_us("engine.estimate") + span_us("engine.route");
    const double resolve_us = span_us("roadnet.shortest_path");
    const double validate_us = span_us("roadnet.validate_path");
    const double summarize_us = span_us("serving.summarize");
    const double oi_us = 1e6 * breakdown(&BreakdownSums::oi_s);
    const double jc_us = 1e6 * breakdown(&BreakdownSums::jc_s);
    const double mc_us = 1e6 * breakdown(&BreakdownSums::mc_s);
    const RouteTally& r = route[0];
    add("serving.call_us", call_us, "us");
    add("serving.self_us",
        routing ? 0.0
                : call_us - resolve_us - validate_us - summarize_us - oi_us -
                      jc_us - mc_us,
        "us");
    add("serving.summarize_us", summarize_us, "us");
    add("serving.swap_ms", mean_ms("engine.swap"), "ms");
    add("serving.swap_load_ms", mean_ms("core.load_weight_function"), "ms");
    add("serving.epochs_published", static_cast<double>(published), "count");
    add("roadnet.resolve_us", resolve_us, "us");
    add("roadnet.validate_us", validate_us, "us");
    add("core.oi_us", oi_us, "us");
    add("core.jc_us", jc_us, "us");
    add("core.mc_us", mc_us, "us");
    add("core.parts", breakdown(&BreakdownSums::parts), "count");
    add("core.chain_max_states", breakdown(&BreakdownSums::max_states),
        "count");
    add("core.cache_hit_ratio", routing ? 0.0 : cache_hit_ratio, "frac");
    add("core.cache_evictions",
        static_cast<double>(cache_after.evictions - cache_before.evictions),
        "count");
    add("core.cache_mb", static_cast<double>(cache_after.bytes) / (1 << 20),
        "MB");
    add("core.degraded_frac", Mean(static_cast<double>(degraded), attempted),
        "frac");
    add("traj.store_build_s", per_setup_s("traj.store_build"), "s");
    add("core.build_s", per_setup_s("core.build"), "s");
    add("core.save_ms", 1e3 * per_setup_s("core.save"), "ms");
    add("core.delta_build_s", per_setup_s("core.delta_build"), "s");
    add("core.open_ms", 1e3 * per_setup_s("engine.open"), "ms");
    add("serving.warmup_s", per_setup_s("warmup"), "s");
    add("core.model_mb", static_cast<double>(gen[0].resident_bytes) / (1 << 20),
        "MB");
    add("core.variables", static_cast<double>(gen[0].variables), "count");
    add("routing.expansions", Mean(r.expansions, r.attempted), "count");
    add("routing.estimator_clones", Mean(r.clones, r.attempted), "count");
    add("routing.candidates", Mean(r.candidates, r.attempted), "count");
    add("routing.bound_pruned", Mean(r.bound_pruned, r.attempted), "count");
    add("routing.incumbent_pruned", Mean(r.incumbent_pruned, r.attempted),
        "count");
    add("routing.dominance_pruned", Mean(r.dominance_pruned, r.attempted),
        "count");
    add("routing.truncated_frac",
        Mean(static_cast<double>(r.truncated), r.attempted), "frac");
    add("routing.cache_hit_ratio", routing ? cache_hit_ratio : 0.0, "frac");
    add("quality.kl_windows", static_cast<double>(quality.windows), "count");
    add("trace.overhead_us",
        1e6 * (Mean(requests.seconds, requests.count) -
               Mean(untraced_s, untraced)),
        "us");
    std::printf("# spans: %llu traced requests, %llu untraced\n",
                static_cast<unsigned long long>(requests.count),
                static_cast<unsigned long long>(untraced));
    if (!opt.trace_out.empty() && !tracer.Write(opt.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", opt.trace_out.c_str());
    }
  }
  for (const Metric& m : result.metrics) {
    checks.Require(std::isfinite(m.value), m.name + " is not finite");
  }
  result.correct = checks.passed();
  return result;
}

}  // namespace perfbench
