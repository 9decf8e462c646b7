#include "serving/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/instantiation.h"
#include "core/serialization.h"
#include "core/shard_writer.h"
#include "roadnet/shortest_path.h"

namespace pcde {
namespace serving {

using core::PathWeightFunction;
using hist::Histogram1D;
using roadnet::Path;

CostSummary SummarizeDistribution(const Histogram1D& dist, StatsMask stats,
                                  double budget_seconds,
                                  const std::vector<double>& quantiles) {
  CostSummary summary;
  summary.num_buckets = dist.NumBuckets();
  if (dist.empty()) return summary;
  if (stats & kStatMean) summary.mean = dist.Mean();
  if (stats & kStatVariance) summary.variance = dist.Variance();
  if (stats & kStatSupport) {
    summary.support_lo = dist.Min();
    summary.support_hi = dist.Max();
  }
  if ((stats & kStatCdfAtBudget) && !std::isnan(budget_seconds)) {
    summary.prob_within_budget = dist.ProbWithin(budget_seconds);
  }
  if (stats & kStatQuantiles) {
    summary.quantiles.reserve(quantiles.size());
    for (double q : quantiles) summary.quantiles.push_back(dist.Quantile(q));
  }
  return summary;
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {}

namespace {

/// The last rung of the degradation ladder: synthesize an uncovered edge's
/// distribution exactly as instantiation's speed-limit prior would have —
/// an edge missing from the frozen model estimates identically to one
/// whose fallback variable was baked in at build time.
core::EdgeFallbackFn MakeEdgeFallback(const roadnet::Graph& graph) {
  return [&graph](roadnet::EdgeId e) -> StatusOr<hist::Histogram1D> {
    if (static_cast<size_t>(e) >= graph.NumEdges()) {
      return Status::InvalidArgument("edge fallback: unknown edge " +
                                     std::to_string(e));
    }
    return core::FreeFlowEdgeHistogram(graph.edge(e), core::HybridParams());
  };
}

}  // namespace

/// What every epoch of one manifest generation shares. The stamps are the
/// touch_clock_ values of each shard's latest use; they order evictions.
struct Engine::ShardGeneration {
  explicit ShardGeneration(core::ShardManifest m)
      : manifest(std::move(m)), last_touch(manifest.shards.size()) {}
  core::ShardManifest manifest;
  mutable std::vector<std::atomic<uint64_t>> last_touch;
};

namespace {

/// The sorted distinct shards owning the edges of `path`.
std::vector<size_t> ShardsOf(const core::ShardManifest& manifest,
                             const Path& path) {
  std::vector<size_t> shards;
  for (roadnet::EdgeId e : path.edges()) shards.push_back(manifest.ShardOf(e));
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

}  // namespace

Engine::Epoch::Epoch(uint64_t sequence_in, Source source_in)
    : sequence(sequence_in),
      source(std::move(source_in)),
      resident(static_cast<size_t>(std::count_if(
          source.shards.models.begin(), source.shards.models.end(),
          [](const auto& model) { return model != nullptr; }))),
      view(source.model != nullptr ? core::ModelView(*source.model)
                                   : core::ModelView(source.shards)) {}

std::shared_ptr<const Engine::Epoch> Engine::BuildEpoch(uint64_t sequence,
                                                        Source source) const {
  auto epoch = std::make_shared<Epoch>(sequence, std::move(source));
  epoch->estimator =
      std::make_unique<core::HybridEstimator>(epoch->view, options_.estimate);
  epoch->estimator->set_query_cache(cache_.get());
  if (options_.graph != nullptr) {
    epoch->estimator->set_edge_fallback(MakeEdgeFallback(*options_.graph));
    if (epoch->source.model != nullptr ||
        epoch->resident == epoch->source.shards.models.size()) {
      routing::RouterConfig config;
      config.max_expansions = options_.route_max_expansions;
      config.max_path_edges = options_.route_max_path_edges;
      config.pool = pool_.get();
      config.pruning = options_.route_pruning;
      epoch->router = std::make_unique<routing::DfsStochasticRouter>(
          *options_.graph, epoch->view, options_.estimate, config);
    }
  }
  return epoch;
}

std::shared_ptr<const Engine::Epoch> Engine::CurrentEpoch() const {
  return std::atomic_load(&epoch_);
}

StatusOr<std::shared_ptr<const PathWeightFunction>> Engine::AttachShard(
    const core::ShardManifest& manifest, size_t index) const {
  if (PCDE_FAULT_POINT("serving.shard.attach")) {
    return Status::Internal("Engine: injected attach fault for shard " +
                            std::to_string(index));
  }
  PCDE_ASSIGN_OR_RETURN(model,
                        core::LoadShard(manifest, index, options_.use_mmap));
  shard_attaches_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<const PathWeightFunction>(std::move(model));
}

StatusOr<Engine::Source> Engine::Load(const std::string& path,
                                      const Epoch* current) const {
  Source source;
  if (!core::IsShardManifest(path)) {
    PCDE_ASSIGN_OR_RETURN(
        model, core::LoadWeightFunctionBinary(path, options_.use_mmap));
    source.model = std::make_shared<const PathWeightFunction>(std::move(model));
    return source;
  }
  PCDE_ASSIGN_OR_RETURN(manifest, core::LoadShardManifest(path));
  // Every shard file is checked before anything publishes, so a missing,
  // short or foreign shard rejects the whole generation up front.
  PCDE_RETURN_NOT_OK(core::VerifyShardFiles(manifest));
  source.generation = std::make_shared<const ShardGeneration>(
      std::move(manifest));
  const core::ShardManifest& next = source.generation->manifest;
  source.shards.manifest = std::shared_ptr<const core::ShardManifest>(
      source.generation, &next);
  source.shards.models.resize(next.shards.size());
  if (current == nullptr || current->source.generation == nullptr) {
    return source;
  }
  // Per-shard refresh: an attached shard keeps serving its loaded model
  // when the new manifest records the same content over the same keys, and
  // reloads when it changed.
  const core::ShardManifest& prev = current->source.generation->manifest;
  for (size_t s = 0; s < next.shards.size() && s < prev.shards.size(); ++s) {
    const auto& attached = current->source.shards.models[s];
    if (attached == nullptr) continue;
    const core::ShardInfo& a = prev.shards[s];
    const core::ShardInfo& b = next.shards[s];
    if (a.fingerprint == b.fingerprint && a.key_lo == b.key_lo &&
        a.key_hi == b.key_hi) {
      source.shards.models[s] = attached;
      continue;
    }
    PCDE_ASSIGN_OR_RETURN(model, AttachShard(next, s));
    source.shards.models[s] = std::move(model);
  }
  return source;
}

StatusOr<std::shared_ptr<const Engine::Epoch>> Engine::WithShards(
    std::shared_ptr<const Epoch> epoch,
    const std::vector<size_t>& needed) const {
  const ShardGeneration* generation = epoch->source.generation.get();
  if (generation == nullptr) return epoch;
  const size_t cap = options_.max_resident_shards;
  const uint64_t now = touch_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  bool missing = false;
  for (size_t s : needed) {
    generation->last_touch[s].store(now, std::memory_order_relaxed);
    if (epoch->source.shards.models[s] == nullptr) missing = true;
  }
  // Nothing to attach, and nothing to evict: within the cap, or every
  // attached shard is one this request needs.
  if (!missing &&
      (cap == 0 || epoch->resident <= std::max(cap, needed.size()))) {
    return epoch;
  }

  std::lock_guard<std::mutex> lock(attach_mutex_);
  // Extend the newest epoch of the pinned generation: the published one,
  // unless a swap has replaced that generation since the request pinned.
  std::shared_ptr<const Epoch> current = CurrentEpoch();
  const std::shared_ptr<const Epoch>& base =
      current->sequence == epoch->sequence ? current : epoch;
  Source source = base->source;
  std::vector<std::shared_ptr<const PathWeightFunction>>& models =
      source.shards.models;
  size_t attached = 0;
  for (size_t s : needed) {
    if (models[s] != nullptr) continue;
    PCDE_ASSIGN_OR_RETURN(model, AttachShard(generation->manifest, s));
    models[s] = std::move(model);
    ++attached;
  }
  bool changed = attached > 0;
  if (cap > 0) {
    size_t resident = base->resident + attached;
    while (resident > cap) {
      // Least recently used attached shard this request does not need;
      // requests that pinned it keep it alive until they finish.
      size_t victim = models.size();
      uint64_t oldest = UINT64_MAX;
      for (size_t s = 0; s < models.size(); ++s) {
        if (models[s] == nullptr ||
            std::binary_search(needed.begin(), needed.end(), s)) {
          continue;
        }
        const uint64_t touch =
            generation->last_touch[s].load(std::memory_order_relaxed);
        if (touch < oldest) {
          oldest = touch;
          victim = s;
        }
      }
      if (victim == models.size()) break;
      models[victim] = nullptr;
      --resident;
      shard_evictions_.fetch_add(1, std::memory_order_relaxed);
      changed = true;
    }
  }
  if (!changed) return base;
  std::shared_ptr<const Epoch> next =
      BuildEpoch(base->sequence, std::move(source));
  if (base == current) {
    // Fails only if a swap published meanwhile; the request still serves
    // on `next`, its own generation.
    std::atomic_compare_exchange_strong(&epoch_, &current, next);
  }
  return next;
}

uint64_t Engine::PublishEpochLocked(std::shared_ptr<const Epoch> epoch) {
  const uint64_t sequence = epoch->sequence;
  next_sequence_ = sequence + 1;
  std::shared_ptr<const Epoch> replaced =
      std::atomic_exchange(&epoch_, std::move(epoch));
  // Retain the replaced epoch for RollbackToPrevious when the policy keeps
  // a ring; with capacity 0 (default) `replaced` drops here and the old
  // model tears down when its last in-flight request finishes — the exact
  // policy-free lifecycle.
  const size_t capacity = options_.swap_policy.rollback_capacity;
  if (capacity > 0 && replaced != nullptr) {
    previous_epochs_.push_back(std::move(replaced));
    while (previous_epochs_.size() > capacity) previous_epochs_.pop_front();
  }
  return sequence;
}

Status Engine::VerifyCandidate(std::shared_ptr<const Epoch>* candidate,
                               const std::vector<GoldenProbe>& probes) const {
  auto reject = [this](const std::string& what) {
    probe_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("Engine::Swap: candidate rejected: " +
                                   what);
  };
  if (PCDE_FAULT_POINT("serving.swap.verify")) {
    return reject("injected verification fault");
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    const GoldenProbe& probe = probes[i];
    const std::string which = "golden probe #" + std::to_string(i);
    // Served like a request, minus admission and deadline; the shards the
    // probe attaches stay on the candidate.
    std::shared_ptr<const Epoch> extended;
    auto response =
        Answer(*candidate, probe.request, /*cancel=*/nullptr, &extended);
    if (extended != nullptr) *candidate = std::move(extended);
    if (!response.ok()) {
      return reject(which + " failed: " + response.status().message());
    }
    if (probe.has_reference &&
        !response.value().summary.ExactlyEquals(probe.reference)) {
      return reject(which + " diverged from its stamped reference");
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> Engine::VerifyAndPublishLocked(
    Source source, const SwapOptions& swap_options) {
  // Build ONE candidate epoch, verify it unpublished, and publish the very
  // object that was verified: a rejected candidate is dropped here without
  // ever being reachable by a request.
  std::shared_ptr<const Epoch> candidate =
      BuildEpoch(next_sequence_, std::move(source));
  PCDE_RETURN_NOT_OK(VerifyCandidate(&candidate, swap_options.probes));
  return PublishEpochLocked(std::move(candidate));
}

StatusOr<std::unique_ptr<Engine>> Engine::Make(EngineOptions options) {
  std::unique_ptr<Engine> engine(new Engine(std::move(options)));
  const EngineOptions& opts = engine->options_;
  if (opts.query_cache_bytes > 0) {
    core::QueryCacheOptions cache_options;
    cache_options.max_bytes = opts.query_cache_bytes;
    engine->cache_ = std::make_unique<core::QueryCache>(cache_options);
  }
  engine->pool_ = std::make_unique<ThreadPool>(opts.num_threads);
  AdmissionController::Options admission_options;
  admission_options.max_inflight = opts.max_inflight_requests;
  admission_options.max_queue_depth = opts.max_queue_depth;
  admission_options.queue_timeout_seconds = opts.queue_timeout_seconds;
  engine->admission_ =
      std::make_unique<AdmissionController>(admission_options);
  return engine;
}

namespace {

/// A transient swap failure is one a retry can plausibly fix: an IO error
/// (kInternal) or a missing file (kNotFound — a publisher mid-rename).
/// Content errors (kInvalidArgument: corrupt payload, version skew) are
/// permanent — the bytes will not fix themselves.
bool IsTransientSwapFailure(const Status& status) {
  return status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kNotFound;
}

/// The fingerprint a model artifact or manifest at `path` would serve
/// under, read without loading any model payload.
StatusOr<uint64_t> PeekFingerprint(const std::string& path) {
  if (!core::IsShardManifest(path)) {
    return core::PeekBinaryArtifactFingerprint(path);
  }
  PCDE_ASSIGN_OR_RETURN(manifest, core::LoadShardManifest(path));
  return manifest.fingerprint;
}

/// The swap backoff schedule (SwapPolicy): each retry waits kBackoffMultiplier
/// times longer than the last, scaled by a jitter factor drawn uniformly
/// from [1 - kJitterFraction, 1 + kJitterFraction] by an Rng seeded with
/// kJitterSeed at every Swap call, so a retry schedule replays exactly.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kJitterFraction = 0.5;
constexpr uint64_t kJitterSeed = 42;

/// Exponential backoff with deterministic jitter before retry `attempt`
/// (1-based count of attempts already made). Sleeps in short slices so a
/// tripping cancel token abandons the wait within ~10 ms.
void BackoffBeforeRetry(const SwapPolicy& policy, size_t attempt, Rng* jitter,
                        const CancelToken* cancel) {
  double backoff = policy.initial_backoff_seconds *
                   std::pow(kBackoffMultiplier,
                            static_cast<double>(attempt - 1));
  backoff = std::min(backoff, policy.max_backoff_seconds);
  backoff *= jitter->Uniform(1.0 - kJitterFraction, 1.0 + kJitterFraction);
  if (backoff <= 0.0) return;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(backoff));
  while (std::chrono::steady_clock::now() < deadline) {
    if (CancelToken::Check(cancel)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

StatusOr<uint64_t> Engine::Swap(const std::string& model_path,
                                const SwapOptions& swap_options) {
  if (model_path.empty()) {
    return Status::InvalidArgument("Engine::Swap: model_path is empty");
  }
  std::lock_guard<std::mutex> lock(swap_mutex_);
  // Short-circuit a refresh to content already being served: a model
  // artifact's header checksum, like a manifest's, IS the fingerprint. A
  // failed peek (foreign or unreadable file) is not a swap failure yet —
  // the full load below is the authority, and it validates the whole
  // payload either way.
  auto peek = PeekFingerprint(model_path);
  const std::shared_ptr<const Epoch> current = CurrentEpoch();
  if (peek.ok() && peek.value() == current->view.fingerprint()) {
    return current->sequence;
  }
  const SwapPolicy& policy = options_.swap_policy;
  const size_t max_attempts = std::max<size_t>(policy.max_attempts, 1);
  Rng jitter(kJitterSeed);
  StatusOr<Source> loaded = Status::Internal("Engine::Swap: no load attempted");
  for (size_t attempt = 1;; ++attempt) {
    if (CancelToken::Check(swap_options.cancel)) {
      return CancelToken::StatusOf(swap_options.cancel);
    }
    swap_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (PCDE_FAULT_POINT("serving.swap.load")) {
      loaded = Status::Internal(
          "Engine::Swap: injected transient load fault for " + model_path);
    } else {
      loaded = Load(model_path, current.get());
    }
    if (loaded.ok()) break;
    // Rejection leaves the published epoch untouched: the old model keeps
    // serving and the caller gets the loader's Status verbatim.
    if (!IsTransientSwapFailure(loaded.status()) || attempt >= max_attempts) {
      return loaded.status();
    }
    swap_retries_.fetch_add(1, std::memory_order_relaxed);
    BackoffBeforeRetry(policy, attempt, &jitter, swap_options.cancel);
  }
  return VerifyAndPublishLocked(std::move(loaded).value(), swap_options);
}

StatusOr<uint64_t> Engine::Swap(PathWeightFunction model,
                                const SwapOptions& swap_options) {
  std::lock_guard<std::mutex> lock(swap_mutex_);
  Source source;
  source.model = std::make_shared<const PathWeightFunction>(std::move(model));
  return VerifyAndPublishLocked(std::move(source), swap_options);
}

StatusOr<uint64_t> Engine::RollbackToPrevious() {
  std::lock_guard<std::mutex> lock(swap_mutex_);
  if (previous_epochs_.empty()) {
    return Status::FailedPrecondition(
        "Engine::RollbackToPrevious: no retained epoch (set "
        "SwapPolicy::rollback_capacity > 0, and at least one successful "
        "swap must have replaced an epoch)");
  }
  std::shared_ptr<const Epoch> previous = previous_epochs_.back();
  previous_epochs_.pop_back();
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  // Republish the retained model under a NEW sequence (epoch numbers never
  // move backward in responses) WITHOUT retaining the epoch being rolled
  // back off of — it is the suspect one, not a known good.
  const uint64_t sequence = next_sequence_++;
  std::atomic_store(&epoch_, BuildEpoch(sequence, previous->source));
  return sequence;
}

size_t Engine::rollback_depth() const {
  std::lock_guard<std::mutex> lock(swap_mutex_);
  return previous_epochs_.size();
}

uint64_t Engine::epoch_sequence() const { return CurrentEpoch()->sequence; }

const PathWeightFunction& Engine::model() const {
  const PathWeightFunction* model = CurrentEpoch()->source.model.get();
  if (model == nullptr) {
    std::fprintf(stderr, "Engine::model(): a shard manifest is serving\n");
    std::abort();
  }
  return *model;
}

std::shared_ptr<const PathWeightFunction> Engine::model_snapshot() const {
  return CurrentEpoch()->source.model;
}

uint64_t Engine::model_fingerprint() const {
  return CurrentEpoch()->view.fingerprint();
}

std::vector<size_t> Engine::ResidentShardBytes() const {
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  if (epoch->source.model != nullptr) {
    return {epoch->source.model->ResidentBytes()};
  }
  std::vector<size_t> bytes;
  for (const auto& model : epoch->source.shards.models) {
    bytes.push_back(model != nullptr ? model->ResidentBytes() : 0);
  }
  return bytes;
}

StatusOr<std::unique_ptr<Engine>> Engine::Open(EngineOptions options) {
  if (options.model_path.empty()) {
    return Status::InvalidArgument(
        "Engine::Open: options.model_path is empty (or adopt a built model "
        "via Open(PathWeightFunction, options))");
  }
  if (PCDE_FAULT_POINT("serving.open.load")) {
    return Status::Internal("Engine::Open: injected load fault for " +
                            options.model_path);
  }
  PCDE_ASSIGN_OR_RETURN(engine, Make(std::move(options)));
  PCDE_ASSIGN_OR_RETURN(
      source, engine->Load(engine->options_.model_path, /*current=*/nullptr));
  engine->PublishEpochLocked(
      engine->BuildEpoch(engine->next_sequence_, std::move(source)));
  return engine;
}

StatusOr<std::unique_ptr<Engine>> Engine::Open(PathWeightFunction model,
                                               EngineOptions options) {
  PCDE_ASSIGN_OR_RETURN(engine, Make(std::move(options)));
  Source source;
  source.model = std::make_shared<const PathWeightFunction>(std::move(model));
  engine->PublishEpochLocked(
      engine->BuildEpoch(engine->next_sequence_, std::move(source)));
  return engine;
}

StatusOr<Path> Engine::ResolvePath(const PathSpec& spec) const {
  if (spec.is_od) {
    const roadnet::Graph* graph = options_.graph;
    if (graph == nullptr) {
      return Status::FailedPrecondition(
          "ResolvePath: OD PathSpec needs EngineOptions::graph");
    }
    if (spec.from >= graph->NumVertices() || spec.to >= graph->NumVertices()) {
      return Status::InvalidArgument("ResolvePath: unknown vertex");
    }
    if (spec.from == spec.to) {
      return Status::InvalidArgument("ResolvePath: from == to");
    }
    // Free-flow resolution is deterministic and departure-independent, so
    // repeated OD queries select the same path — and therefore the same
    // decomposition and cache entries.
    return roadnet::ShortestPath(*graph, spec.from, spec.to,
                                 roadnet::FreeFlowWeight(*graph));
  }
  if (spec.edges.empty()) {
    return Status::InvalidArgument("ResolvePath: empty edge path");
  }
  if (options_.graph != nullptr) {
    PCDE_RETURN_NOT_OK(roadnet::ValidatePath(*options_.graph,
                                             spec.edges.edges()));
  }
  return spec.edges;
}

namespace {

/// Builds the response around an estimated distribution; moves the
/// histogram in when the request asked for it.
EstimateResponse MakeResponse(const EstimateRequest& request, Path path,
                              Histogram1D dist,
                              const core::EstimateBreakdown& breakdown) {
  EstimateResponse response;
  response.summary = SummarizeDistribution(
      dist, request.stats, request.budget_seconds, request.quantiles);
  response.resolved_path = std::move(path);
  response.served_from_cache = breakdown.cache_hit;
  if (request.want_breakdown) response.breakdown = breakdown;
  if (request.want_distribution) response.distribution = std::move(dist);
  return response;
}

/// Stamps epoch + fallback provenance: which published model served this
/// response and how far the degradation ladder descended for it.
void StampProvenance(EstimateResponse* response, const uint64_t fingerprint,
                     const uint64_t epoch,
                     const core::FallbackProvenance& provenance) {
  response->model_fingerprint = fingerprint;
  response->epoch = epoch;
  response->summary.degradation = provenance.level;
  response->summary.covered_fraction = provenance.covered_fraction;
}

/// Builds the per-request cancellation context: when the request sets a
/// timeout, a deadline token lives in `storage` (the caller's frame, so
/// batch workers get independent deadlines) linked under the request's
/// external token. Returns the token the estimator polls — null when the
/// request has neither, which is the exact pre-deadline serving path.
const CancelToken* SetupCancel(double timeout_seconds,
                               const CancelToken* external,
                               std::optional<CancelToken>* storage) {
  if (timeout_seconds <= 0.0) return external;
  storage->emplace(CancelToken::DeadlineAfter(timeout_seconds));
  (*storage)->set_parent(external);
  return &storage->value();
}

/// Rejects a departure time the query cache cannot bucket: not finite, or
/// so far from zero that its bucket index overflows int64_t. The
/// estimator would otherwise answer it from the all-day fallback
/// variables, as if it were a real time of day.
Status CheckDeparture(double departure_time) {
  if (core::QueryCache::CanKeyDeparture(departure_time)) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "departure time is not finite or outside the cache's bucket range");
}

/// Rejects a quantile level that is not a number in [0, 1]: a NaN level
/// would otherwise read as the support maximum.
Status CheckQuantiles(const std::vector<double>& levels) {
  for (double q : levels) {
    if (!(q >= 0.0 && q <= 1.0)) {
      return Status::InvalidArgument("quantile level " + std::to_string(q) +
                                     " is not a number in [0, 1]");
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<EstimateResponse> Engine::Serve(
    const std::shared_ptr<const Epoch>& pinned,
    const EstimateRequest& request) const {
  Stopwatch watch;
  // Admission before any work: at capacity the request sheds with
  // kResourceExhausted instead of joining an unbounded queue.
  AdmissionController::Slot slot;
  uint64_t inflight_now = 0;
  PCDE_RETURN_NOT_OK(admission_->Acquire(&slot, &inflight_now));
  // The deadline clock starts at admission, not at estimation: queueing
  // time (when queue_timeout_seconds allows it) counts against the budget.
  std::optional<CancelToken> deadline_token;
  const CancelToken* cancel =
      SetupCancel(request.timeout_seconds, request.cancel, &deadline_token);
  std::shared_ptr<const Epoch> extended;  // the pin plus the path's shards
  StatusOr<EstimateResponse> response =
      Answer(pinned, request, cancel, &extended);
  if (response.ok()) {
    response->inflight_at_admit = inflight_now;
    response->serve_seconds = watch.ElapsedSeconds();
  }
  return response;
}

StatusOr<EstimateResponse> Engine::Answer(
    const std::shared_ptr<const Epoch>& pinned, const EstimateRequest& request,
    const CancelToken* cancel, std::shared_ptr<const Epoch>* extended) const {
  PCDE_RETURN_NOT_OK(CheckDeparture(request.departure_time));
  PCDE_RETURN_NOT_OK(CheckQuantiles(request.quantiles));
  PCDE_ASSIGN_OR_RETURN(path, ResolvePath(request.path));
  const Epoch* epoch = pinned.get();
  if (pinned->source.generation != nullptr) {
    const core::ShardManifest& manifest = pinned->source.generation->manifest;
    PCDE_ASSIGN_OR_RETURN(attached,
                          WithShards(pinned, ShardsOf(manifest, path)));
    *extended = std::move(attached);
    epoch = extended->get();
  }
  core::EstimateBreakdown breakdown;
  core::FallbackProvenance provenance;
  auto dist = epoch->estimator->EstimateWithFallback(
      path, request.departure_time, &provenance, &breakdown, cancel);
  if (!dist.ok()) {
    CountUnwind(dist.status());
    return dist.status();
  }
  EstimateResponse response = MakeResponse(request, std::move(path),
                                           std::move(dist).value(), breakdown);
  StampProvenance(&response, epoch->view.fingerprint(), epoch->sequence,
                  provenance);
  return response;
}

StatusOr<EstimateResponse> Engine::Estimate(
    const EstimateRequest& request) const {
  // Pin one epoch for the whole request: resolution, estimation, and
  // provenance all read the same published model even if Swap lands
  // mid-request.
  return Serve(CurrentEpoch(), request);
}

std::vector<StatusOr<EstimateResponse>> Engine::EstimateBatch(
    const EstimateRequest* requests, size_t num_requests) const {
  // One epoch pin for the whole batch: every response of a batch is served
  // by the same published model, whatever Swap does meanwhile.
  const std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  std::vector<StatusOr<EstimateResponse>> responses(
      num_requests, Status::Internal("EstimateBatch: request not run"));
  // One pool item per request, resolution included (OD resolution is a
  // Dijkstra run — the dominant per-request cost of the OD scenario, so it
  // must not serialize on the caller thread). Each request is admitted,
  // given its own deadline, and fails alone: one bad or shed request never
  // fails the batch. Resolution and estimation are deterministic, so the
  // fan-out cannot change results.
  pool_->ParallelFor(num_requests, [this, requests, &responses,
                                    &epoch](size_t i) {
    responses[i] = Serve(epoch, requests[i]);
  });
  return responses;
}

StatusOr<RouteResponse> Engine::Route(const RouteRequest& request) const {
  AdmissionController::Slot slot;
  uint64_t inflight_now = 0;
  PCDE_RETURN_NOT_OK(admission_->Acquire(&slot, &inflight_now));
  std::optional<CancelToken> deadline_token;
  const CancelToken* cancel =
      SetupCancel(request.timeout_seconds, request.cancel, &deadline_token);
  std::shared_ptr<const Epoch> epoch = CurrentEpoch();
  if (options_.graph == nullptr) {
    return Status::FailedPrecondition(
        "Engine::Route needs EngineOptions::graph");
  }
  PCDE_RETURN_NOT_OK(CheckDeparture(request.departure_time));
  // A request the router would reject attaches nothing.
  PCDE_RETURN_NOT_OK(routing::CheckRouteArguments(
      *options_.graph, request.from, request.to, request.departure_time,
      request.budget_seconds));
  if (epoch->router == nullptr) {
    // A manifest with shards detached: the search may touch any edge, so
    // it needs them all.
    std::vector<size_t> all(epoch->source.shards.models.size());
    std::iota(all.begin(), all.end(), size_t{0});
    PCDE_ASSIGN_OR_RETURN(attached, WithShards(std::move(epoch), all));
    epoch = std::move(attached);
  }
  auto result = epoch->router->Route(
      request.from, request.to, request.departure_time,
      request.budget_seconds, cancel,
      request.use_pruning_override ? &request.pruning : nullptr);
  if (!result.ok()) {
    CountUnwind(result.status());
    return result.status();
  }
  RouteResponse response;
  response.best_path = std::move(result.value().best_path);
  response.on_time_probability = result.value().best_probability;
  response.expansions = result.value().expansions;
  response.candidate_paths = result.value().candidate_paths;
  response.truncated = result.value().truncated;
  response.bound_pruned = result.value().bound_pruned;
  response.incumbent_pruned = result.value().incumbent_pruned;
  response.dominance_pruned = result.value().dominance_pruned;
  response.estimator_clones = result.value().estimator_clones;
  route_bound_pruned_.fetch_add(response.bound_pruned,
                                std::memory_order_relaxed);
  route_incumbent_pruned_.fetch_add(response.incumbent_pruned,
                                    std::memory_order_relaxed);
  route_dominance_pruned_.fetch_add(response.dominance_pruned,
                                    std::memory_order_relaxed);
  route_estimator_clones_.fetch_add(response.estimator_clones,
                                    std::memory_order_relaxed);
  response.model_fingerprint = epoch->view.fingerprint();
  response.epoch = epoch->sequence;
  response.inflight_at_admit = inflight_now;
  return response;
}

void Engine::CountUnwind(const Status& status) const {
  if (status.code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.code() == StatusCode::kCancelled) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
}

EngineStats Engine::stats() const {
  const AdmissionController::Stats admission = admission_->stats();
  EngineStats stats;
  stats.admitted = admission.admitted;
  stats.shed = admission.shed;
  stats.inflight = admission.inflight;
  stats.inflight_highwater = admission.inflight_highwater;
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_.load(std::memory_order_relaxed);
  stats.route_bound_pruned =
      route_bound_pruned_.load(std::memory_order_relaxed);
  stats.route_incumbent_pruned =
      route_incumbent_pruned_.load(std::memory_order_relaxed);
  stats.route_dominance_pruned =
      route_dominance_pruned_.load(std::memory_order_relaxed);
  stats.route_estimator_clones =
      route_estimator_clones_.load(std::memory_order_relaxed);
  stats.swap_attempts = swap_attempts_.load(std::memory_order_relaxed);
  stats.swap_retries = swap_retries_.load(std::memory_order_relaxed);
  stats.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  stats.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  stats.shards_resident = CurrentEpoch()->resident;
  stats.shard_attaches = shard_attaches_.load(std::memory_order_relaxed);
  stats.shard_evictions = shard_evictions_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace serving
}  // namespace pcde
