// serving::Engine — the unified front door over the estimator, router, and
// caches. Every caller used to hand-wire HybridEstimator + cache attachment
// + RouterConfig + ThreadPool; the Engine owns that stack once:
//
//   EngineOptions options;
//   options.model_path = "model.pcdewf";   // frozen PCDEWF1 artifact
//   options.graph = &graph;                // enables OD specs and Route
//   auto engine = Engine::Open(options);   // StatusOr<unique_ptr<Engine>>
//
//   EstimateRequest req;
//   req.path = PathSpec::OdPair(home, airport);
//   req.departure_time = 8 * 3600.0;
//   req.budget_seconds = 45 * 60.0;
//   auto response = (*engine)->Estimate(req);  // CostSummary + provenance
//
// Open either loads a frozen model (a PCDEWF1 artifact, the one model
// format, via buffered read or mmap; core/serialization.h) or adopts an
// already-built PathWeightFunction; it constructs the shared ThreadPool
// and sizes/attaches the QueryCache declaratively from the options.
// Estimation through the Engine is bit-identical to direct HybridEstimator
// wiring with the same options (tests/serving_engine_test.cc proves it,
// with and without caches) — the facade adds request resolution and
// summary derivation, not semantics.
//
// The model may also be a PCDEMF1 shard manifest (core/shard_writer.h),
// sniffed from model_path by its magic. Shards attach as requests first
// need them, up to an LRU cap, and the estimator and router read them
// through one core::ModelView: every Estimate and Route — paths crossing
// shard boundaries included — is bit-identical to the unsplit model's.
//
// Thread safety: Estimate / EstimateBatch / Route are const and safe to
// call concurrently (the underlying estimator is read-only over the frozen
// model and the QueryCache is sharded). Swap may run concurrently with all
// of them: the model, estimator, and router live in an immutable epoch
// snapshot published behind an atomically swapped shared_ptr; every request
// pins the epoch it entered on, so a swap mid-request changes nothing for
// that request and the old model is destroyed only when its last in-flight
// request finishes. Concurrent Swap calls serialize against each other.
// Attaching or evicting a shard also publishes a new epoch, of the same
// model generation (same sequence number and fingerprint), so a request
// that needs a shard its pinned epoch lacks serves on an extension of it.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel_token.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/estimator.h"
#include "core/model_view.h"
#include "core/query_cache.h"
#include "routing/stochastic_router.h"
#include "serving/admission.h"
#include "serving/request.h"

namespace pcde {
namespace serving {

/// \brief One pre-publish verification query: Swap serves the request on
/// the CANDIDATE epoch before publishing it, through the same body as
/// Estimate minus admission and deadline. A probe that fails (an invalid
/// departure time or quantile level, an unresolvable path, an estimate
/// error) rejects the candidate; when a reference summary is
/// stamped, so does any divergence from it (estimation is bit-identical
/// across save/load, so a stamped reference computed on the model that
/// produced the artifact must reproduce exactly — a mismatch means the
/// artifact or the serving wiring is bad). A rejected candidate never
/// serves a single request: the old epoch stays published throughout.
struct GoldenProbe {
  EstimateRequest request;
  /// The expected response summary, as served by the model generation the
  /// artifact was built from (stamp it from EstimateResponse::summary).
  /// Without a reference the probe only asserts the candidate serves the
  /// request cleanly.
  bool has_reference = false;
  CostSummary reference;
};

/// \brief Model-refresh robustness policy. The default is bit-identical to
/// a policy-free engine: one load attempt, no retained epochs.
struct SwapPolicy {
  /// Load attempts per Swap(path) call. Content errors (corrupt or foreign
  /// artifact, version skew: kInvalidArgument) fail immediately — the
  /// bytes will not fix themselves; IO errors and missing files
  /// (kInternal / kNotFound — e.g. a publisher mid-rename or flaky
  /// storage) are retried up to this many attempts with exponential
  /// backoff. 0 behaves as 1.
  size_t max_attempts = 1;
  /// Backoff before retry k (1-based) is min(initial * 2^(k-1), max)
  /// scaled by a jitter factor drawn uniformly from [0.5, 1.5] under a
  /// fixed seed (deterministic, so tests replay). The sleep polls the
  /// Swap call's cancel token and aborts the wait when it trips.
  double initial_backoff_seconds = 0.01;
  double max_backoff_seconds = 0.5;
  /// Replaced epochs retained for RollbackToPrevious(), newest first out.
  /// 0 disables retention (a replaced epoch is torn down as soon as its
  /// last in-flight request finishes, exactly the policy-free lifecycle).
  size_t rollback_capacity = 0;
};

/// \brief Per-call Swap knobs. Probes ride on the call rather than the
/// engine because their references are stamped per model generation.
struct SwapOptions {
  /// Checked before every load attempt and during backoff sleeps; a
  /// tripped token abandons the swap (the old epoch keeps serving).
  const CancelToken* cancel = nullptr;
  /// Pre-publish probes run on the swap candidate. Empty = no
  /// verification.
  std::vector<GoldenProbe> probes;
};

/// Declarative configuration of the full serving stack.
struct EngineOptions {
  /// Model to load when Open(options) is used: a PCDEWF1 artifact
  /// (core/serialization.h) or a PCDEMF1 shard manifest
  /// (core/shard_writer.h), told apart by the manifest magic. Ignored by
  /// the adopting Open.
  std::string model_path;
  /// Map the artifact (or every shard artifact) PROT_READ/MAP_SHARED and
  /// parse in place (one page-cache copy across co-resident engines
  /// serving the same file); see LoadWeightFunctionBinary for the
  /// atomic-replace lifecycle requirement.
  bool use_mmap = false;
  /// Manifest models only: LRU cap on attached shards; 0 = unbounded. A
  /// request always gets every shard it needs (a Route needs all of them),
  /// and attaching evicts the least recently used shards no request at
  /// hand needs until the count is back at the cap.
  size_t max_resident_shards = 0;

  /// Road network backing OD-pair PathSpecs (free-flow shortest-path
  /// resolution), explicit-path validation, and Route. May stay null when
  /// every request uses explicit edge paths and Route is never called.
  const roadnet::Graph* graph = nullptr;

  /// Decomposition policy, rank cap, and chain options of every estimate
  /// (the OD / OD-x / HP / LB method choice).
  core::EstimateOptions estimate;

  /// Threads of the engine's shared pool (batch fan-out and the router's
  /// root fan-out), the calling thread included: 1 runs everything on the
  /// caller. 0 = hardware concurrency.
  size_t num_threads = 0;

  /// Byte budget of the shared result cache (core/query_cache.h); 0
  /// disables caching. Results are bit-identical either way. The cache
  /// keeps core::QueryCacheOptions' shard count and departure-time bucket
  /// width.
  size_t query_cache_bytes = size_t{64} << 20;

  /// DFS router knobs (see routing::RouterConfig for semantics).
  size_t route_max_expansions = 500000;
  size_t route_max_path_edges = 150;
  /// Opt-in routing pruners (routing/pruning.h); all default off, which
  /// keeps Route bit-identical to the pre-pruning engine. Individual
  /// RouteRequests can override via use_pruning_override.
  routing::PruningOptions route_pruning;

  /// Admission control (overload protection). Requests — each single
  /// Estimate/Route call, and each request of a batch individually —
  /// acquire an admission slot before doing any work; at capacity they
  /// shed with kResourceExhausted instead of queueing without limit.
  /// 0 (default) = unlimited: admission never sheds and the serving path
  /// is behaviorally identical to an engine without admission control.
  size_t max_inflight_requests = 0;
  /// Requests allowed to wait for a slot at capacity (bounded queue);
  /// beyond it — or whenever queue_timeout_seconds <= 0 — shed
  /// immediately.
  size_t max_queue_depth = 0;
  /// Longest a queued request may wait for a slot before shedding.
  double queue_timeout_seconds = 0.0;

  /// Refresh robustness: retry/backoff for transient swap failures,
  /// pre-publish probe verification, and the last-known-good rollback
  /// ring. The default policy is bit-identical to pre-policy serving.
  SwapPolicy swap_policy;
};

/// \brief Overload-observability counters, monotonically increasing over
/// the engine's lifetime (inflight / highwater track live load). Snapshot
/// via Engine::stats(); responses carry their own inflight_at_admit.
struct EngineStats {
  uint64_t admitted = 0;           // requests that acquired a slot
  uint64_t shed = 0;               // kResourceExhausted at admission
  uint64_t deadline_exceeded = 0;  // unwound with kDeadlineExceeded
  uint64_t cancelled = 0;          // unwound with kCancelled
  uint64_t inflight = 0;           // currently admitted requests
  uint64_t inflight_highwater = 0;  // peak concurrent admissions
  /// Routing pruning attribution, summed over every successful Route
  /// (see routing::RouteResult for per-counter semantics).
  uint64_t route_bound_pruned = 0;
  uint64_t route_incumbent_pruned = 0;
  uint64_t route_dominance_pruned = 0;
  uint64_t route_estimator_clones = 0;
  /// Refresh robustness (ISSUE 9). swap_attempts counts artifact load
  /// attempts by Swap(path) — retries included; swap_retries counts just
  /// the re-attempts after a transient failure. probe_failures counts
  /// candidates rejected by pre-publish verification; rollbacks counts
  /// RollbackToPrevious() republishes.
  uint64_t swap_attempts = 0;
  uint64_t swap_retries = 0;
  uint64_t probe_failures = 0;
  uint64_t rollbacks = 0;
  /// Manifest models (always 0 on a single model): shards_resident is a
  /// point-in-time gauge of the published epoch's attached shards; the
  /// other two count shard loads and LRU evictions over the engine's
  /// lifetime.
  uint64_t shards_resident = 0;
  uint64_t shard_attaches = 0;
  uint64_t shard_evictions = 0;
};

/// \brief Derives the serving-visible CostSummary from a cost
/// distribution: only the statistics selected by `stats` are computed
/// (unselected fields stay NaN / empty). Exposed for tests, which pin
/// these numbers against brute-force integration of the histogram.
CostSummary SummarizeDistribution(const hist::Histogram1D& dist,
                                  StatsMask stats, double budget_seconds,
                                  const std::vector<double>& quantiles);

class Engine {
 public:
  /// Loads the frozen model named by options.model_path and builds the
  /// serving stack around it.
  static StatusOr<std::unique_ptr<Engine>> Open(EngineOptions options);

  /// Adopts an already-built (or already-loaded) frozen model instead of
  /// reading an artifact — the embedded/offline wiring, and the path tests
  /// use to compare Engine serving against direct estimator wiring over
  /// the very same model (engine->model()).
  static StatusOr<std::unique_ptr<Engine>> Open(
      core::PathWeightFunction model, EngineOptions options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// \brief Zero-downtime model refresh: loads the artifact (a model or a
  /// shard manifest), validates it, and atomically publishes it as a new
  /// epoch. In-flight and subsequent requests are never failed by the
  /// transition — each pins one epoch for its whole lifetime, and
  /// responses carry the pinned epoch + model fingerprint so callers can
  /// audit which model answered. A corrupt, truncated, version-skewed or
  /// foreign (non-PCDEWF1) artifact is rejected with the loader's Status
  /// and the old epoch keeps serving untouched. An artifact whose header
  /// checksum matches the currently served model short-circuits to a
  /// no-op (no new epoch). The
  /// shared QueryCache survives swaps: its keys carry the model
  /// fingerprint, so entries of replaced models decay into misses and
  /// evict, never into false hits. Loads via options().use_mmap, like
  /// Open. Returns the now-serving epoch sequence. Thread-safe against
  /// requests and against other Swap calls.
  /// Under a non-default SwapPolicy the load is additionally retried on
  /// transient failures (with cancel-aware exponential backoff); see
  /// SwapPolicy. SwapOptions carries the call's cancel token and the
  /// probes the candidate must pass before it publishes.
  /// A manifest is refreshed per shard: every shard file it names is
  /// checked (size and fingerprint) before anything publishes, shards whose
  /// fingerprint is unchanged keep their loaded model, attached shards that
  /// changed reload, and the rest attach when first needed. A manifest
  /// with the served manifest's fingerprint is a no-op like a same-model
  /// artifact.
  StatusOr<uint64_t> Swap(const std::string& model_path,
                          const SwapOptions& swap_options = SwapOptions());

  /// Adopting form: publishes an already-built (or already-loaded) frozen
  /// model as the new epoch — the embedded wiring, e.g. a delta rebuild
  /// (WeightFunctionBuilder::FromFrozen + InstantiateIntoBuilder) frozen in
  /// process and swapped in without touching disk. Probe verification
  /// applies; the retry loop does not (there is no IO to retry).
  StatusOr<uint64_t> Swap(core::PathWeightFunction model,
                          const SwapOptions& swap_options = SwapOptions());

  /// \brief Republishes the most recently replaced epoch's model as a NEW
  /// epoch (sequence moves forward — a response's epoch number never goes
  /// backward), popping it from the last-known-good ring. The ring only
  /// holds epochs replaced by successful swaps while
  /// SwapPolicy::rollback_capacity > 0; the epoch being rolled back OFF of
  /// is deliberately not retained (it is the suspect one). Fails with
  /// kFailedPrecondition when nothing is retained.
  StatusOr<uint64_t> RollbackToPrevious();

  /// Epochs currently retained for rollback.
  size_t rollback_depth() const;

  /// Sequence number of the currently published epoch (starts at 1;
  /// incremented by every successful non-short-circuited Swap).
  uint64_t epoch_sequence() const;

  const EngineOptions& options() const { return options_; }
  /// The currently published epoch's model; single-model engines only
  /// (aborts while a shard manifest is serving). The reference stays valid
  /// until the next successful Swap; under concurrent swaps prefer
  /// model_snapshot(), which the caller pins.
  const core::PathWeightFunction& model() const;
  /// Swap-safe model access: the returned shared_ptr keeps the model (and
  /// its arena) alive past any number of subsequent swaps. nullptr while a
  /// shard manifest is serving.
  std::shared_ptr<const core::PathWeightFunction> model_snapshot() const;
  /// The fingerprint responses are stamped with right now: the model's, or
  /// the manifest's.
  uint64_t model_fingerprint() const;
  /// Resident model bytes per shard of the serving generation, 0 for a
  /// shard not attached; a single model is one entry.
  std::vector<size_t> ResidentShardBytes() const;
  /// nullptr when query_cache_bytes == 0.
  core::QueryCache* query_cache() const { return cache_.get(); }
  ThreadPool& pool() const { return *pool_; }

  /// Resolves a PathSpec to the edge path that will be costed: OD pairs go
  /// through the free-flow shortest path (deterministic, so repeated OD
  /// queries hit the same cache entries); explicit paths are validated
  /// against the graph when one is configured. Errors: InvalidArgument
  /// (empty/invalid path, unknown vertex), FailedPrecondition (OD spec
  /// with no graph), NotFound (unreachable pair).
  StatusOr<roadnet::Path> ResolvePath(const PathSpec& spec) const;

  /// One cost-distribution query end to end: resolve, estimate (through
  /// the attached cache), summarize. InvalidArgument when the departure
  /// time is not finite or its cache time bucket does not fit int64_t
  /// (core::QueryCache::CanKeyDeparture), with or without a cache, and
  /// when a quantile level is not a number in [0, 1].
  StatusOr<EstimateResponse> Estimate(const EstimateRequest& request) const;

  /// Many queries concurrently on the engine's shared pool; response i
  /// corresponds to requests[i] and carries its own Status — a malformed
  /// request (bad path, unresolvable OD pair) fails alone, never the
  /// batch. Valid requests return exactly what Estimate would.
  std::vector<StatusOr<EstimateResponse>> EstimateBatch(
      const EstimateRequest* requests, size_t num_requests) const;
  std::vector<StatusOr<EstimateResponse>> EstimateBatch(
      const std::vector<EstimateRequest>& requests) const {
    return EstimateBatch(requests.data(), requests.size());
  }

  /// Probabilistic budget routing (Sec. 4.3) on the engine's stack: the
  /// DFS router runs with the engine's estimate options and shared pool.
  /// Requires options.graph; on a manifest it needs every shard attached.
  /// Rejects departure times as Estimate does, and a budget that is not
  /// finite.
  StatusOr<RouteResponse> Route(const RouteRequest& request) const;

  /// Point-in-time snapshot of the overload counters (admission traffic,
  /// deadline/cancel unwinds, inflight high-water mark).
  EngineStats stats() const;

 private:
  /// What every epoch of one manifest generation shares: the manifest and
  /// the LRU stamps of its shards (engine.cc).
  struct ShardGeneration;

  /// What an epoch serves: a frozen model, or a manifest generation and
  /// its shard slots (a loaded model per attached shard, null otherwise).
  struct Source {
    std::shared_ptr<const core::PathWeightFunction> model;
    std::shared_ptr<const ShardGeneration> generation;
    core::ShardSet shards;
  };

  /// \brief One published model generation with a fixed set of attached
  /// shards: the source plus the stack wired to it. Immutable once
  /// published; requests pin it with one shared_ptr copy at entry, so a
  /// replaced epoch (and its model arenas, mmap included) is torn down
  /// exactly when its last in-flight request drops the pin. The QueryCache
  /// and ThreadPool are engine-level and shared across epochs — cache keys
  /// carry the generation fingerprint, so sharing is correctness-neutral.
  struct Epoch {
    Epoch(uint64_t sequence, Source source);
    const uint64_t sequence;
    const Source source;
    const size_t resident;  // attached shards (0 for a single model)
    const core::ModelView view;
    std::unique_ptr<core::HybridEstimator> estimator;
    /// Set iff options.graph is, and the view covers every edge (a single
    /// model, or a manifest with every shard attached).
    std::unique_ptr<routing::DfsStochasticRouter> router;
  };

  explicit Engine(EngineOptions options);

  /// Validates the options and builds the engine-level stack (cache,
  /// pool, admission); the caller publishes the first epoch.
  static StatusOr<std::unique_ptr<Engine>> Make(EngineOptions options);

  /// Loads the model or manifest at `path`. A manifest's shard files are
  /// verified first; the shards `current` (may be null) has attached keep
  /// their model when their fingerprint is unchanged and reload when it
  /// changed, the rest stay detached.
  StatusOr<Source> Load(const std::string& path, const Epoch* current) const;

  /// Loads shard `index` of `manifest` to attach it (fault site
  /// "serving.shard.attach").
  StatusOr<std::shared_ptr<const core::PathWeightFunction>> AttachShard(
      const core::ShardManifest& manifest, size_t index) const;

  /// Wires a full epoch (estimator + edge fallback + router) around a
  /// source. Pure construction over validated input — no failure mode; all
  /// swap failures happen before this, in the artifact load.
  std::shared_ptr<const Epoch> BuildEpoch(uint64_t sequence,
                                          Source source) const;

  /// The epoch pin every request takes exactly once at entry.
  std::shared_ptr<const Epoch> CurrentEpoch() const;

  /// \brief An epoch of `epoch`'s generation with every shard in `needed`
  /// (sorted shard indices) attached: `epoch` itself when it has them and
  /// respects the cap, else the newest epoch of that generation extended
  /// by the missing shards and trimmed to the cap by evicting least
  /// recently used shards not in `needed`. The extension is published
  /// when its generation still serves. A single-model epoch is returned
  /// as is.
  StatusOr<std::shared_ptr<const Epoch>> WithShards(
      std::shared_ptr<const Epoch> epoch,
      const std::vector<size_t>& needed) const;

  /// Publishes an already-built epoch (epoch->sequence == next_sequence_),
  /// retaining the replaced epoch in the rollback ring when the policy
  /// keeps one; caller holds swap_mutex_.
  uint64_t PublishEpochLocked(std::shared_ptr<const Epoch> epoch);

  /// Serves `probes` on the unpublished candidate through Answer, so the
  /// shards they need attach to the candidate; on the first probe error or
  /// reference divergence counts a probe_failure and returns the rejection
  /// Status (the candidate is then dropped unpublished).
  Status VerifyCandidate(std::shared_ptr<const Epoch>* candidate,
                         const std::vector<GoldenProbe>& probes) const;

  /// Builds the candidate epoch over `source`, verifies it with the
  /// call's probes, and publishes the very object that was verified;
  /// caller holds swap_mutex_.
  StatusOr<uint64_t> VerifyAndPublishLocked(Source source,
                                            const SwapOptions& swap_options);

  /// The one serve path behind Estimate and EstimateBatch: admission and
  /// deadline set-up, then Answer.
  StatusOr<EstimateResponse> Serve(const std::shared_ptr<const Epoch>& pinned,
                                   const EstimateRequest& request) const;

  /// The serve body behind Serve and VerifyCandidate: request checks
  /// (departure time, quantile levels), resolution, estimation on
  /// `pinned` polling `cancel`, and response stamping. On a manifest the
  /// epoch that served — `pinned`, or an extension of it holding the
  /// shards the path needs — is returned in *extended.
  StatusOr<EstimateResponse> Answer(
      const std::shared_ptr<const Epoch>& pinned,
      const EstimateRequest& request, const CancelToken* cancel,
      std::shared_ptr<const Epoch>* extended) const;

  /// Bumps the deadline_exceeded / cancelled counter matching a request's
  /// terminal Status (no-op for other codes).
  void CountUnwind(const Status& status) const;

  EngineOptions options_;
  // Engine-level (epoch-independent) members; unique_ptr keeps their
  // addresses stable for the epochs' estimators and routers.
  std::unique_ptr<core::QueryCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  // The published epoch, read with std::atomic_load (one acquire per
  // request); replaced under swap_mutex_ by a new generation, or under
  // attach_mutex_ (compare-and-swap) by an extension of the same one,
  // which const request paths publish.
  mutable std::shared_ptr<const Epoch> epoch_;
  // Serializes shard attach/evict decisions.
  mutable std::mutex attach_mutex_;
  mutable std::atomic<uint64_t> touch_clock_{0};  // shard LRU stamps
  mutable std::atomic<uint64_t> shard_attaches_{0};
  mutable std::atomic<uint64_t> shard_evictions_{0};
  // Serializes Swap/Rollback callers; mutable so const observers
  // (rollback_depth) can take it.
  mutable std::mutex swap_mutex_;
  uint64_t next_sequence_ = 1;  // guarded by swap_mutex_ after Make
  // Last-known-good ring (newest at the back), bounded by
  // SwapPolicy::rollback_capacity; guarded by swap_mutex_. Retaining an
  // epoch keeps its model arena (mmap included) alive — capacity is a
  // deliberate memory knob, not a cache.
  std::deque<std::shared_ptr<const Epoch>> previous_epochs_;
  // Admission gate + overload counters (request methods are const; the
  // counters are serving telemetry, not model state). Set once in Make.
  mutable std::unique_ptr<AdmissionController> admission_;
  mutable std::atomic<uint64_t> deadline_exceeded_{0};
  mutable std::atomic<uint64_t> cancelled_{0};
  // Routing pruning attribution (summed over successful Route calls).
  mutable std::atomic<uint64_t> route_bound_pruned_{0};
  mutable std::atomic<uint64_t> route_incumbent_pruned_{0};
  mutable std::atomic<uint64_t> route_dominance_pruned_{0};
  mutable std::atomic<uint64_t> route_estimator_clones_{0};
  // Refresh robustness counters (ISSUE 9); see EngineStats.
  mutable std::atomic<uint64_t> swap_attempts_{0};
  mutable std::atomic<uint64_t> swap_retries_{0};
  mutable std::atomic<uint64_t> probe_failures_{0};
  mutable std::atomic<uint64_t> rollbacks_{0};
};

}  // namespace serving
}  // namespace pcde
