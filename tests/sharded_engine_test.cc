// Sharded serving: the shard compiler + PCDEMF1 manifest, served by
// serving::Engine, tested against the engine over the unsplit model as
// ground truth.
//
//  * Exactness: across 1/2/4 shards and buffered/mmap loads, every
//    Estimate — in-shard and cross-shard paths, explicit and OD, cached
//    or not — is bit-identical (summary, distribution, degradation,
//    covered fraction) to the single-model engine, and every Route
//    returns the same path, probability, expansions, and pruning and
//    clone counters. A 1-shard split even reproduces the source model's
//    fingerprint.
//  * Lazy attach + LRU: shards attach on first need; max_resident_shards
//    evicts least-recently-used shards a request does not need; per-shard
//    resident bytes stay strictly below the monolithic model's.
//  * Refresh: Swap is a no-op on the same generation, reloads only the
//    attached shards that changed on a new one, moves between shard counts
//    and between a model and a manifest, and rejects corrupt, missing or
//    short shard files with the old generation still published.
//  * Corruption sweep (model_artifact_test pattern): byte-flips,
//    truncations, and version skew on the manifest all fail
//    LoadShardManifest/Open with clean Statuses.
//  * Concurrency (run under ASan/TSan in CI): batches across shards on a
//    pool, and batches plus Routes under an LRU cap of one shard while
//    another thread swaps generations, all serve exactly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/instantiation.h"
#include "core/serialization.h"
#include "core/shard_writer.h"
#include "core/weight_function.h"
#include "roadnet/shortest_path.h"
#include "serving/engine.h"
#include "traj/generator.h"
#include "traj/store.h"

namespace pcde {
namespace serving {
namespace {

using core::HybridParams;
using core::PathWeightFunction;
using core::ShardManifest;
using core::ShardWriteOptions;
using roadnet::Graph;
using roadnet::Path;
using roadnet::VertexId;

constexpr double kDepart = 8 * 3600.0;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Every RouteResponse field a search determines, the probability as hex;
/// equal strings mean the two searches ran identically.
std::string RouteFields(const RouteResponse& r) {
  std::string out = "p=" + Hex(r.on_time_probability) + " path=";
  for (roadnet::EdgeId e : r.best_path.edges()) out += std::to_string(e) + ",";
  out += " expansions=" + std::to_string(r.expansions) +
         " candidates=" + std::to_string(r.candidate_paths) +
         " truncated=" + std::to_string(r.truncated) +
         " bound=" + std::to_string(r.bound_pruned) +
         " incumbent=" + std::to_string(r.incumbent_pruned) +
         " dominance=" + std::to_string(r.dominance_pruned) +
         " clones=" + std::to_string(r.estimator_clones);
  return out;
}

class ShardedServingTest : public ::testing::Test {
 protected:
  static std::string Prefix() {
    return "pcde_sharded." + std::to_string(::getpid());
  }

  /// Splits `wp` into `num_shards` shards under a tagged prefix and records
  /// every file the generation owns for suite teardown.
  static std::string WriteGeneration(const PathWeightFunction& wp,
                                     const std::string& tag,
                                     size_t num_shards) {
    const std::string manifest = TempPath(Prefix() + "." + tag + ".pcdemf");
    ShardWriteOptions options;
    options.num_shards = num_shards;
    options.file_prefix = Prefix() + "." + tag;
    auto written = core::WriteModelShards(wp, manifest, options);
    EXPECT_TRUE(written.ok()) << written.status().ToString();
    files_->push_back(manifest);
    if (written.ok()) {
      for (const auto& shard : written.value().shards) {
        files_->push_back(TempPath(shard.file));
      }
    }
    return manifest;
  }

  static void SetUpTestSuite() {
    dataset_ = new traj::Dataset(traj::MakeDatasetA(800));
    graph_ = dataset_->graph.get();
    HybridParams params;
    params.beta = 8;  // low enough that trajectory windows qualify
    wp_ = new PathWeightFunction(core::InstantiateWeightFunction(
        *graph_, traj::TrajectoryStore(dataset_->MatchedSlice(1.0)), params));
    wp_alt_ = new PathWeightFunction(core::InstantiateWeightFunction(
        *graph_, traj::TrajectoryStore(), params));  // speed-limit-only gen
    ASSERT_NE(wp_->fingerprint(), wp_alt_->fingerprint());
    mono_bin_ = TempPath(Prefix() + ".mono.bin");
    ASSERT_TRUE(core::SaveWeightFunctionBinary(*wp_, mono_bin_).ok());
    files_->push_back(mono_bin_);
    alt_bin_ = TempPath(Prefix() + ".alt.bin");
    ASSERT_TRUE(core::SaveWeightFunctionBinary(*wp_alt_, alt_bin_).ok());
    files_->push_back(alt_bin_);
    manifest1_ = WriteGeneration(*wp_, "g1", 1);
    manifest2_ = WriteGeneration(*wp_, "g2", 2);
    manifest4_ = WriteGeneration(*wp_, "g4", 4);
    alt_manifest2_ = WriteGeneration(*wp_alt_, "galt", 2);
  }

  static void TearDownTestSuite() {
    for (const std::string& p : *files_) std::remove(p.c_str());
    files_->clear();
    delete wp_alt_;
    delete wp_;
    delete dataset_;
    wp_alt_ = nullptr;
    wp_ = nullptr;
    dataset_ = nullptr;
    graph_ = nullptr;
  }

  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string Track(std::string p) {
    cleanup_.push_back(p);
    return p;
  }

  /// An engine over `model_path` (a model artifact or a manifest) with the
  /// options every comparison here shares: no cache, bounded routing.
  static std::unique_ptr<Engine> OpenOn(const std::string& model_path,
                                        bool use_mmap,
                                        size_t max_resident_shards = 0,
                                        size_t num_threads = 1) {
    EngineOptions options;
    options.model_path = model_path;
    options.graph = graph_;
    options.num_threads = num_threads;
    options.query_cache_bytes = 0;
    options.use_mmap = use_mmap;
    options.max_resident_shards = max_resident_shards;
    options.route_max_expansions = 20000;
    options.route_max_path_edges = 24;
    auto engine = Engine::Open(std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  static size_t Resident(const Engine& engine) {
    return engine.stats().shards_resident;
  }

  static Path PathBetween(VertexId from, VertexId to) {
    auto p = roadnet::ShortestPath(*graph_, from, to,
                                   roadnet::FreeFlowWeight(*graph_));
    EXPECT_TRUE(p.ok());
    return p.ok() ? p.value() : Path();
  }

  static EstimateRequest RequestFor(PathSpec spec) {
    EstimateRequest request;
    request.path = std::move(spec);
    request.departure_time = kDepart;
    request.stats = kStatAll;
    request.budget_seconds = 900.0;
    request.quantiles = {0.5, 0.9};
    request.want_distribution = true;
    return request;
  }
  static EstimateRequest RequestFor(Path path) {
    return RequestFor(PathSpec::ExplicitPath(std::move(path)));
  }

  /// Expects `got` to be exactly `want`: summary (degradation and covered
  /// fraction included), distribution, and resolved path.
  static void ExpectSameAnswer(const StatusOr<EstimateResponse>& got,
                               const StatusOr<EstimateResponse>& want) {
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->summary.ExactlyEquals(want->summary));
    ASSERT_TRUE(got->distribution.has_value());
    ASSERT_TRUE(want->distribution.has_value());
    EXPECT_TRUE(got->distribution->BitIdentical(*want->distribution));
    EXPECT_EQ(got->resolved_path.edges(), want->resolved_path.edges());
  }

  static bool SingleShard(const ShardManifest& manifest, const Path& path) {
    const size_t owner = manifest.ShardOf(path[0]);
    for (size_t k = 1; k < path.size(); ++k) {
      if (manifest.ShardOf(path[k]) != owner) return false;
    }
    return true;
  }

  /// Scans shortest paths over a grid of OD pairs and splits them by
  /// whether every edge falls in one shard of `manifest`. The fixture
  /// models are dense enough that both buckets are non-empty for any
  /// multi-shard split.
  static void ClassifyPaths(const ShardManifest& manifest,
                            std::vector<Path>* in_shard,
                            std::vector<Path>* cross_shard) {
    for (VertexId v = 0; v + 41 < graph_->NumVertices(); v += 7) {
      for (VertexId span : {17, 41}) {
        auto p = roadnet::ShortestPath(*graph_, v, v + span,
                                       roadnet::FreeFlowWeight(*graph_));
        if (!p.ok() || p.value().size() < 2) continue;
        (SingleShard(manifest, p.value()) ? in_shard : cross_shard)
            ->push_back(std::move(p).value());
      }
    }
  }

  /// Route requests across the 2- and 4-shard boundaries. Sampled travel
  /// beats free flow here, so 0.95x the free-flow time leaves the on-time
  /// probability strictly between 0 and 1 within a few thousand
  /// expansions.
  static std::vector<RouteRequest> RouteRequests() {
    std::vector<RouteRequest> requests;
    const std::pair<VertexId, VertexId> ods[] = {
        {308, 349}, {322, 363}, {343, 384}};
    for (const auto& od : ods) {
      const double min_time = roadnet::ShortestPathCost(
          *graph_, od.first, od.second, roadnet::FreeFlowWeight(*graph_));
      EXPECT_LT(min_time, roadnet::kInfCost);
      for (const bool pruned : {false, true}) {
        RouteRequest request;
        request.from = od.first;
        request.to = od.second;
        request.departure_time = kDepart;
        request.budget_seconds = min_time * 0.95;
        request.use_pruning_override = true;
        request.pruning.incumbent = pruned;
        request.pruning.dominance = pruned;
        request.pruning.cheap_first = pruned;
        requests.push_back(request);
      }
    }
    return requests;
  }

  static traj::Dataset* dataset_;
  static const Graph* graph_;
  static PathWeightFunction* wp_;      // trajectory-instantiated generation
  static PathWeightFunction* wp_alt_;  // speed-limit-only generation
  static std::string mono_bin_;
  static std::string alt_bin_;
  static std::string manifest1_;
  static std::string manifest2_;
  static std::string manifest4_;
  static std::string alt_manifest2_;
  static std::vector<std::string>* files_;
  std::vector<std::string> cleanup_;
};

traj::Dataset* ShardedServingTest::dataset_ = nullptr;
const Graph* ShardedServingTest::graph_ = nullptr;
PathWeightFunction* ShardedServingTest::wp_ = nullptr;
PathWeightFunction* ShardedServingTest::wp_alt_ = nullptr;
std::string ShardedServingTest::mono_bin_;
std::string ShardedServingTest::alt_bin_;
std::string ShardedServingTest::manifest1_;
std::string ShardedServingTest::manifest2_;
std::string ShardedServingTest::manifest4_;
std::string ShardedServingTest::alt_manifest2_;
std::vector<std::string>* ShardedServingTest::files_ =
    new std::vector<std::string>();

// ---------------------------------------------------------------------------
// Shard compiler + manifest round trip
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, ManifestRoundTripsAndPartitionsTheKeySpace) {
  for (const std::string* manifest_path :
       {&manifest1_, &manifest2_, &manifest4_}) {
    auto loaded = core::LoadShardManifest(*manifest_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const ShardManifest& manifest = loaded.value();
    EXPECT_EQ(manifest.source_fingerprint, wp_->fingerprint());
    EXPECT_NE(manifest.fingerprint, 0u);
    EXPECT_EQ(manifest.dir,
              std::filesystem::temp_directory_path().string());
    ASSERT_FALSE(manifest.shards.empty());
    EXPECT_EQ(manifest.shards.front().key_lo, 0u);
    EXPECT_EQ(manifest.shards.back().key_hi, core::kMaxArtifactEdgeId - 1);
    for (size_t s = 1; s < manifest.shards.size(); ++s) {
      EXPECT_EQ(manifest.shards[s].key_lo, manifest.shards[s - 1].key_hi + 1);
    }
    // Every shard artifact exists next to the manifest with the declared
    // size and fingerprint.
    EXPECT_TRUE(core::VerifyShardFiles(manifest).ok());
    size_t total_vars = 0;
    for (size_t s = 0; s < manifest.shards.size(); ++s) {
      const std::string path = TempPath(manifest.shards[s].file);
      EXPECT_EQ(std::filesystem::file_size(path), manifest.shards[s].bytes);
      auto wp = core::LoadShard(manifest, s, /*use_mmap=*/false);
      ASSERT_TRUE(wp.ok()) << wp.status().ToString();
      EXPECT_EQ(wp.value().fingerprint(), manifest.shards[s].fingerprint);
      total_vars += wp.value().NumVariables();
    }
    // The shards partition the variable set: no loss, no duplication.
    EXPECT_EQ(total_vars, wp_->NumVariables());
    EXPECT_TRUE(core::IsShardManifest(*manifest_path));
  }
  EXPECT_FALSE(core::IsShardManifest(mono_bin_));
}

TEST_F(ShardedServingTest, SingleShardSplitReproducesTheSourceFingerprint) {
  auto loaded = core::LoadShardManifest(manifest1_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().shards.size(), 1u);
  // One shard holds every variable in id order: the re-frozen model is the
  // source model, fingerprint and all.
  EXPECT_EQ(loaded.value().shards[0].fingerprint, wp_->fingerprint());
}

TEST_F(ShardedServingTest, WriterRejectsBadOptions) {
  const std::string manifest = Track(TempPath(Prefix() + ".bad.pcdemf"));
  ShardWriteOptions zero;
  zero.num_shards = 0;
  EXPECT_EQ(core::WriteModelShards(*wp_, manifest, zero).status().code(),
            StatusCode::kInvalidArgument);
  ShardWriteOptions nested;
  nested.file_prefix = "sub/shard";
  EXPECT_EQ(core::WriteModelShards(*wp_, manifest, nested).status().code(),
            StatusCode::kInvalidArgument);
  ShardWriteOptions too_many;
  too_many.num_shards = wp_->NumVariables() + 1;  // > distinct front edges
  EXPECT_EQ(core::WriteModelShards(*wp_, manifest, too_many).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(manifest));
}

// ---------------------------------------------------------------------------
// Exactness: every answer is the single model's
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, EveryEstimateIsExactAtOneTwoAndFourShards) {
  for (const std::string* manifest_path :
       {&manifest1_, &manifest2_, &manifest4_}) {
    auto loaded = core::LoadShardManifest(*manifest_path);
    ASSERT_TRUE(loaded.ok());
    const ShardManifest& manifest = loaded.value();
    std::vector<Path> in_shard;
    std::vector<Path> cross_shard;
    ClassifyPaths(manifest, &in_shard, &cross_shard);
    ASSERT_GE(in_shard.size(), 3u);
    if (manifest.shards.size() == 1) {
      EXPECT_TRUE(cross_shard.empty()) << "one shard owns the whole key space";
    } else {
      ASSERT_GE(cross_shard.size(), 3u) << "no cross-shard paths to check";
    }
    std::vector<EstimateRequest> requests;
    for (const std::vector<Path>* paths : {&in_shard, &cross_shard}) {
      for (const Path& path : *paths) requests.push_back(RequestFor(path));
    }
    // OD requests resolve to the same free-flow paths, cross-shard ones
    // included.
    for (VertexId v = 0; v + 41 < graph_->NumVertices(); v += 29) {
      requests.push_back(RequestFor(PathSpec::OdPair(v, v + 41)));
    }
    for (const bool use_mmap : {false, true}) {
      SCOPED_TRACE(std::string("shards=") +
                   std::to_string(manifest.shards.size()) +
                   " mmap=" + std::to_string(use_mmap));
      auto mono = OpenOn(mono_bin_, use_mmap);
      auto sharded = OpenOn(*manifest_path, use_mmap);
      ASSERT_NE(mono, nullptr);
      ASSERT_NE(sharded, nullptr);
      for (const EstimateRequest& request : requests) {
        auto got = sharded->Estimate(request);
        ExpectSameAnswer(got, mono->Estimate(request));
        if (!got.ok()) continue;
        // Provenance: the manifest generation and the engine's epoch.
        EXPECT_EQ(got->model_fingerprint, manifest.fingerprint);
        EXPECT_EQ(got->epoch, 1u);
      }
      EXPECT_EQ(sharded->model_fingerprint(), manifest.fingerprint);
      EXPECT_EQ(sharded->model_snapshot(), nullptr);
    }
  }
}

TEST_F(ShardedServingTest, EveryRouteIsExactAtOneTwoAndFourShards) {
  const std::vector<RouteRequest> requests = RouteRequests();
  auto loaded = core::LoadShardManifest(manifest2_);
  ASSERT_TRUE(loaded.ok());
  auto mono = OpenOn(mono_bin_, /*use_mmap=*/false);
  ASSERT_NE(mono, nullptr);
  std::vector<std::string> want;
  size_t crossing = 0;
  for (const RouteRequest& request : requests) {
    auto response = mono->Route(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_GT(response->on_time_probability, 0.0);
    EXPECT_LT(response->on_time_probability, 1.0);
    EXPECT_FALSE(response->truncated);
    if (!SingleShard(loaded.value(), response->best_path)) ++crossing;
    want.push_back(RouteFields(response.value()));
  }
  EXPECT_GT(crossing, 0u) << "no best route crosses the 2-shard boundary";
  for (const std::string* manifest_path :
       {&manifest1_, &manifest2_, &manifest4_}) {
    for (const bool use_mmap : {false, true}) {
      SCOPED_TRACE(*manifest_path + " mmap=" + std::to_string(use_mmap));
      auto sharded = OpenOn(*manifest_path, use_mmap);
      ASSERT_NE(sharded, nullptr);
      for (size_t i = 0; i < requests.size(); ++i) {
        auto got = sharded->Route(requests[i]);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(RouteFields(got.value()), want[i]) << "route " << i;
        EXPECT_EQ(got->model_fingerprint, sharded->model_fingerprint());
      }
    }
  }
}

TEST_F(ShardedServingTest, CachedServingIsExactAndCacheKeysTagTheShard) {
  auto loaded = core::LoadShardManifest(manifest4_);
  ASSERT_TRUE(loaded.ok());
  EngineOptions options;
  options.model_path = manifest4_;
  options.graph = graph_;
  options.num_threads = 1;
  options.query_cache_bytes = size_t{8} << 20;
  auto cached = Engine::Open(std::move(options));
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  auto mono = OpenOn(mono_bin_, /*use_mmap=*/false);
  ASSERT_NE(mono, nullptr);
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(cross_shard.empty());
  // The cache admits a result on its second offer: the second pass still
  // misses, and the third is served from the cache, still exactly.
  for (const int pass : {0, 1, 2}) {
    for (const std::vector<Path>* paths : {&in_shard, &cross_shard}) {
      for (const Path& path : *paths) {
        auto got = cached.value()->Estimate(RequestFor(path));
        ExpectSameAnswer(got, mono->Estimate(RequestFor(path)));
        if (got.ok()) {
          EXPECT_EQ(got->served_from_cache, pass == 2) << "pass " << pass;
        }
      }
    }
  }

  // Frozen ids restart at 0 in every shard, so a manifest view keys a
  // variable by its shard too; a bare id would collide across shards.
  core::ShardSet shards;
  shards.manifest = std::make_shared<ShardManifest>(loaded.value());
  for (size_t s = 0; s < 2; ++s) {
    auto model = core::LoadShard(loaded.value(), s, /*use_mmap=*/false);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    shards.models.push_back(
        std::make_shared<const PathWeightFunction>(std::move(model).value()));
  }
  const core::ModelView view(shards);
  const core::InstantiatedVariable& first0 = shards.models[0]->variables()[0];
  const core::InstantiatedVariable& first1 = shards.models[1]->variables()[0];
  ASSERT_EQ(first0.id, first1.id);
  EXPECT_EQ(view.KeyId(first0), first0.id);
  EXPECT_EQ(view.KeyId(first1), (uint64_t{1} << 32) | first1.id);
  EXPECT_EQ(view.fingerprint(), loaded.value().fingerprint);
}

TEST_F(ShardedServingTest, BadSpecsFailLikeTheSingleModel) {
  auto sharded = OpenOn(manifest2_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  EstimateRequest bad;
  bad.path = PathSpec::OdPair(0, 0);
  EXPECT_EQ(sharded->Estimate(bad).status().code(),
            StatusCode::kInvalidArgument);
  bad.path = PathSpec::ExplicitPath(Path());
  EXPECT_EQ(sharded->Estimate(bad).status().code(),
            StatusCode::kInvalidArgument);

  // Routes the router rejects: an unknown vertex, from == to, and a
  // budget that is not finite. Each fails exactly as on the single model.
  auto mono = OpenOn(mono_bin_, /*use_mmap=*/false);
  ASSERT_NE(mono, nullptr);
  std::vector<RouteRequest> bad_routes(3, RouteRequests()[0]);
  bad_routes[0].to = static_cast<VertexId>(graph_->NumVertices());
  bad_routes[1].to = bad_routes[1].from;
  bad_routes[2].budget_seconds = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < bad_routes.size(); ++i) {
    const Status want = mono->Route(bad_routes[i]).status();
    const Status got = sharded->Route(bad_routes[i]).status();
    EXPECT_EQ(want.code(), StatusCode::kInvalidArgument) << "route " << i;
    EXPECT_EQ(got.code(), want.code()) << "route " << i;
    EXPECT_EQ(got.message(), want.message()) << "route " << i;
  }
  // Nothing attaches for a request that never resolves or never routes.
  EXPECT_EQ(Resident(*sharded), 0u);
  EXPECT_EQ(sharded->stats().shard_attaches, 0u);
}

// ---------------------------------------------------------------------------
// Lazy attach, LRU cap, resident bytes
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, ShardsAttachLazilyAndLruCapEvicts) {
  auto loaded = core::LoadShardManifest(manifest4_);
  ASSERT_TRUE(loaded.ok());
  auto sharded = OpenOn(manifest4_, /*use_mmap=*/false,
                        /*max_resident_shards=*/1);
  auto mono = OpenOn(mono_bin_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  ASSERT_NE(mono, nullptr);
  // Open loads no payload: nothing resident until the first request.
  EXPECT_EQ(sharded->ResidentShardBytes(), std::vector<size_t>(4, 0));
  EXPECT_EQ(Resident(*sharded), 0u);

  // Serve paths owned by at least two distinct shards.
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_GE(in_shard.size(), 2u);
  ASSERT_FALSE(cross_shard.empty());
  size_t distinct_owners = 0;
  std::vector<bool> seen(4, false);
  for (const Path& path : in_shard) {
    const size_t owner = loaded.value().ShardOf(path[0]);
    if (!seen[owner]) {
      seen[owner] = true;
      ++distinct_owners;
    }
    ExpectSameAnswer(sharded->Estimate(RequestFor(path)),
                     mono->Estimate(RequestFor(path)));
    // The cap holds at every step, and the shard attached is the one the
    // path needs.
    EXPECT_EQ(Resident(*sharded), 1u);
    EXPECT_GT(sharded->ResidentShardBytes()[owner], 0u);
  }
  ASSERT_GE(distinct_owners, 2u)
      << "fixture paths all landed in one shard; widen the OD scan";
  const EngineStats stats = sharded->stats();
  EXPECT_GE(stats.shard_attaches, distinct_owners);
  EXPECT_GE(stats.shard_evictions, distinct_owners - 1);

  // A cross-shard request keeps every shard it needs, past the cap; the
  // next request that needs fewer evicts back down to it.
  const Path& cross = cross_shard[0];
  ExpectSameAnswer(sharded->Estimate(RequestFor(cross)),
                   mono->Estimate(RequestFor(cross)));
  std::vector<bool> needed(4, false);
  size_t num_needed = 0;
  for (roadnet::EdgeId e : cross.edges()) {
    const size_t s = loaded.value().ShardOf(e);
    if (!needed[s]) ++num_needed;
    needed[s] = true;
  }
  EXPECT_EQ(Resident(*sharded), num_needed);
  ASSERT_TRUE(sharded->Estimate(RequestFor(in_shard[0])).ok());
  EXPECT_EQ(Resident(*sharded), 1u);

  // A Route needs every shard; it attaches them all and answers exactly.
  const RouteRequest route = RouteRequests()[1];
  auto routed = sharded->Route(route);
  auto expected = mono->Route(route);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(RouteFields(routed.value()), RouteFields(expected.value()));
  EXPECT_EQ(Resident(*sharded), 4u);
  ASSERT_TRUE(sharded->Estimate(RequestFor(in_shard[0])).ok());
  EXPECT_EQ(Resident(*sharded), 1u);
}

TEST_F(ShardedServingTest, PerShardResidentBytesStayBelowMonolithic) {
  auto mono = OpenOn(mono_bin_, /*use_mmap=*/false);
  ASSERT_NE(mono, nullptr);
  ASSERT_EQ(mono->ResidentShardBytes().size(), 1u);
  const size_t mono_bytes = mono->ResidentShardBytes()[0];
  EXPECT_EQ(mono_bytes, mono->model().ResidentBytes());
  ASSERT_GT(mono_bytes, 0u);
  for (const std::string* manifest_path : {&manifest2_, &manifest4_}) {
    auto loaded = core::LoadShardManifest(*manifest_path);
    ASSERT_TRUE(loaded.ok());
    auto sharded = OpenOn(*manifest_path, /*use_mmap=*/false);
    ASSERT_NE(sharded, nullptr);
    // Touch every shard so all are attached (unbounded cap).
    std::vector<Path> in_shard;
    std::vector<Path> cross_shard;
    ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
    for (const std::vector<Path>* paths : {&in_shard, &cross_shard}) {
      for (const Path& path : *paths) {
        ASSERT_TRUE(sharded->Estimate(RequestFor(path)).ok());
      }
    }
    const std::vector<size_t> bytes = sharded->ResidentShardBytes();
    ASSERT_EQ(bytes.size(), loaded.value().shards.size());
    EXPECT_EQ(Resident(*sharded), bytes.size());
    // The flat-memory claim sharding exists for: no single shard is as
    // large as the monolithic model.
    for (size_t b : bytes) {
      EXPECT_GT(b, 0u);
      EXPECT_LT(b, mono_bytes) << "at " << bytes.size() << " shards";
    }
  }
}

// ---------------------------------------------------------------------------
// Per-shard refresh (Swap)
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, SwapIsNoOpOnSameGenerationAndReloadsOnNewOne) {
  auto sharded = OpenOn(manifest2_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  const uint64_t gen_a = sharded->model_fingerprint();
  // Attach both shards first so the swap exercises the reload path.
  auto loaded = core::LoadShardManifest(manifest2_);
  ASSERT_TRUE(loaded.ok());
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(cross_shard.empty());
  ASSERT_TRUE(sharded->Estimate(RequestFor(cross_shard[0])).ok());
  ASSERT_EQ(Resident(*sharded), 2u);

  // Same generation: short-circuit, same epoch, nothing reloads.
  auto noop = sharded->Swap(manifest2_);
  ASSERT_TRUE(noop.ok()) << noop.status().ToString();
  EXPECT_EQ(noop.value(), 1u);
  EXPECT_EQ(sharded->epoch_sequence(), 1u);
  EXPECT_EQ(sharded->stats().shard_attaches, 2u);

  // A new generation (different model, same shard count, fresh files):
  // the swap publishes it, attached shards reload, responses restamp.
  auto swapped = sharded->Swap(alt_manifest2_);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped.value(), 2u);
  auto alt_loaded = core::LoadShardManifest(alt_manifest2_);
  ASSERT_TRUE(alt_loaded.ok());
  EXPECT_EQ(sharded->model_fingerprint(), alt_loaded.value().fingerprint);
  EXPECT_EQ(Resident(*sharded), 2u);

  // Served answers now ExactlyEqual a single-model engine on the alt
  // model, on every path.
  auto mono_alt = OpenOn(alt_bin_, /*use_mmap=*/false);
  ASSERT_NE(mono_alt, nullptr);
  for (const std::vector<Path>* paths : {&in_shard, &cross_shard}) {
    for (const Path& path : *paths) {
      auto got = sharded->Estimate(RequestFor(path));
      ExpectSameAnswer(got, mono_alt->Estimate(RequestFor(path)));
      if (!got.ok()) continue;
      EXPECT_EQ(got->model_fingerprint, alt_loaded.value().fingerprint);
      EXPECT_EQ(got->epoch, 2u);
    }
  }

  // And back: the original generation republishes under epoch 3.
  auto back = sharded->Swap(manifest2_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), 3u);
  EXPECT_EQ(sharded->model_fingerprint(), gen_a);
}

TEST_F(ShardedServingTest, PerShardRefreshReloadsOnlyChangedShards) {
  auto loaded = core::LoadShardManifest(manifest2_);
  ASSERT_TRUE(loaded.ok());
  const ShardManifest& before = loaded.value();
  // A generation that differs from wp_ in one variable owned by shard 1:
  // the same variable counts per front edge, so the same key ranges, and
  // shard 0 byte-identical.
  core::WeightFunctionBuilder builder =
      core::WeightFunctionBuilder::FromFrozen(*wp_);
  bool changed = false;
  for (const core::InstantiatedVariable& v : wp_->variables()) {
    if (before.ShardOf(v.path.front()) != 1) continue;
    core::InstantiatedVariable copy = v;
    copy.support += 1;
    builder.Add(std::move(copy));
    changed = true;
    break;
  }
  ASSERT_TRUE(changed);
  const PathWeightFunction edited = std::move(builder).Freeze();
  const std::string edited_manifest = WriteGeneration(edited, "edit", 2);
  auto after = core::LoadShardManifest(edited_manifest);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().shards.size(), 2u);
  EXPECT_EQ(after.value().shards[0].fingerprint, before.shards[0].fingerprint);
  EXPECT_NE(after.value().shards[1].fingerprint, before.shards[1].fingerprint);

  auto sharded = OpenOn(manifest2_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(before, &in_shard, &cross_shard);
  ASSERT_FALSE(cross_shard.empty());
  ASSERT_TRUE(sharded->Estimate(RequestFor(cross_shard[0])).ok());
  ASSERT_EQ(sharded->stats().shard_attaches, 2u);

  ASSERT_TRUE(sharded->Swap(edited_manifest).ok());
  // Only the changed shard reloaded; both stay attached.
  EXPECT_EQ(sharded->stats().shard_attaches, 3u);
  EXPECT_EQ(Resident(*sharded), 2u);
  const std::string edited_bin = Track(TempPath(Prefix() + ".edit.bin"));
  ASSERT_TRUE(core::SaveWeightFunctionBinary(edited, edited_bin).ok());
  auto mono_edited = OpenOn(edited_bin, /*use_mmap=*/false);
  ASSERT_NE(mono_edited, nullptr);
  for (const Path& path : cross_shard) {
    ExpectSameAnswer(sharded->Estimate(RequestFor(path)),
                     mono_edited->Estimate(RequestFor(path)));
  }
  EXPECT_EQ(sharded->stats().shard_attaches, 3u);
}

TEST_F(ShardedServingTest, SwapMovesAcrossShardCountsAndToAndFromAModel) {
  auto sharded = OpenOn(manifest2_, /*use_mmap=*/false);
  auto mono = OpenOn(mono_bin_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  ASSERT_NE(mono, nullptr);
  const EstimateRequest request = RequestFor(PathBetween(0, 61));
  ASSERT_TRUE(sharded->Estimate(request).ok());

  // Re-sharding is a new generation like any other.
  auto loaded4 = core::LoadShardManifest(manifest4_);
  ASSERT_TRUE(loaded4.ok());
  ASSERT_EQ(sharded->Swap(manifest4_).value(), 2u);
  EXPECT_EQ(sharded->model_fingerprint(), loaded4.value().fingerprint);
  EXPECT_EQ(sharded->ResidentShardBytes().size(), 4u);
  ExpectSameAnswer(sharded->Estimate(request), mono->Estimate(request));

  // A manifest engine can swap to a model artifact, and back.
  ASSERT_EQ(sharded->Swap(mono_bin_).value(), 3u);
  ASSERT_NE(sharded->model_snapshot(), nullptr);
  EXPECT_EQ(sharded->model_fingerprint(), wp_->fingerprint());
  EXPECT_EQ(Resident(*sharded), 0u);
  ExpectSameAnswer(sharded->Estimate(request), mono->Estimate(request));
  ASSERT_EQ(sharded->Swap(manifest2_).value(), 4u);
  EXPECT_EQ(sharded->model_snapshot(), nullptr);
  ExpectSameAnswer(sharded->Estimate(request), mono->Estimate(request));
}

// ---------------------------------------------------------------------------
// Manifest + shard-file corruption (model_artifact_test pattern)
// ---------------------------------------------------------------------------

/// Opens an Engine on `manifest` expecting failure with a clean Status;
/// returns that Status.
Status OpenExpectingFailure(const std::string& manifest,
                            const roadnet::Graph* graph) {
  EngineOptions options;
  options.model_path = manifest;
  options.graph = graph;
  options.num_threads = 1;
  options.query_cache_bytes = 0;
  auto opened = Engine::Open(std::move(options));
  EXPECT_FALSE(opened.ok());
  return opened.ok() ? Status::OK() : opened.status();
}

TEST_F(ShardedServingTest, ByteFlippedManifestsFailCleanly) {
  const std::vector<char> good = ReadAll(manifest2_);
  ASSERT_GE(good.size(), 64u + 2 * 48u);
  auto original = core::LoadShardManifest(manifest2_);
  ASSERT_TRUE(original.ok());
  const std::string flipped = Track(TempPath(Prefix() + ".flip.pcdemf"));
  // The header's reserved words [48, 64) are the only bytes outside the
  // checksum; a flip there must load as the SAME generation, a flip
  // anywhere else must be rejected with a clean Status.
  size_t rejected = 0;
  for (size_t off = 0; off < good.size(); ++off) {
    std::vector<char> bytes = good;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x5a);
    WriteAll(flipped, bytes);
    auto loaded = core::LoadShardManifest(flipped);
    if (off >= 48 && off < 64) {
      ASSERT_TRUE(loaded.ok()) << "reserved-byte flip at " << off << ": "
                               << loaded.status().ToString();
      EXPECT_EQ(loaded.value().fingerprint, original.value().fingerprint);
      continue;
    }
    ASSERT_FALSE(loaded.ok()) << "undetected flip at offset " << off;
    ++rejected;
    EXPECT_NE(loaded.status().code(), StatusCode::kOk);
  }
  EXPECT_EQ(rejected, good.size() - 16);
  // Spot-check the engine front door rejects a corrupted manifest too,
  // whether the flip keeps the magic (checksum) or breaks it.
  for (const size_t off : {size_t{20}, size_t{2}}) {
    std::vector<char> bytes = good;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x5a);
    WriteAll(flipped, bytes);
    EXPECT_EQ(OpenExpectingFailure(flipped, graph_).code(),
              StatusCode::kInvalidArgument)
        << "flip at " << off;
  }
}

TEST_F(ShardedServingTest, TruncatedManifestsFailCleanly) {
  const std::vector<char> good = ReadAll(manifest2_);
  ASSERT_GE(good.size(), 64u + 2 * 48u);
  const std::string cut_path = Track(TempPath(Prefix() + ".cut.pcdemf"));
  const size_t cuts[] = {0,  1,  63,
                         64,  // header only, no records
                         64 + 48,
                         64 + 2 * 48,  // records but no name blob
                         good.size() - 1};
  for (const size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    WriteAll(cut_path, std::vector<char>(good.begin(), good.begin() + cut));
    auto loaded = core::LoadShardManifest(cut_path);
    ASSERT_FALSE(loaded.ok()) << "undetected truncation at " << cut;
    EXPECT_FALSE(OpenExpectingFailure(cut_path, graph_).ok());
  }
  // A manifest that grew a trailing byte is equally torn.
  std::vector<char> grown = good;
  grown.push_back('\0');
  WriteAll(cut_path, grown);
  EXPECT_FALSE(core::LoadShardManifest(cut_path).ok());
  EXPECT_FALSE(OpenExpectingFailure(cut_path, graph_).ok());
}

TEST_F(ShardedServingTest, VersionSkewNamesTheVersionInTheMessage) {
  std::vector<char> bytes = ReadAll(manifest2_);
  ASSERT_GT(bytes.size(), 64u);
  bytes[8] = 99;  // version field (little-endian u32 at offset 8)
  const std::string skewed = Track(TempPath(Prefix() + ".skew.pcdemf"));
  WriteAll(skewed, bytes);
  auto loaded = core::LoadShardManifest(skewed);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().ToString().find("version"), std::string::npos)
      << loaded.status().ToString();
  const Status opened = OpenExpectingFailure(skewed, graph_);
  EXPECT_EQ(opened.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.ToString().find("version"), std::string::npos);
}

TEST_F(ShardedServingTest, MissingShortOrForeignShardFilesFailOpenAndSwap) {
  // A dedicated generation this test may corrupt freely.
  const std::string manifest = WriteGeneration(*wp_, "corrupt", 2);
  auto loaded = core::LoadShardManifest(manifest);
  ASSERT_TRUE(loaded.ok());
  const std::string shard0 = TempPath(loaded.value().shards[0].file);
  const std::vector<char> shard0_bytes = ReadAll(shard0);
  ASSERT_FALSE(shard0_bytes.empty());

  // An engine already serving a DIFFERENT generation: every failed Swap
  // below must leave it publishing that generation.
  auto sharded = OpenOn(manifest2_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  const uint64_t before = sharded->model_fingerprint();

  // (a) Missing shard file.
  ASSERT_EQ(std::remove(shard0.c_str()), 0);
  EXPECT_EQ(OpenExpectingFailure(manifest, graph_).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sharded->Swap(manifest).status().code(), StatusCode::kNotFound);

  // (b) Short (truncated) shard file: rejected by the size check alone.
  WriteAll(shard0, std::vector<char>(shard0_bytes.begin(),
                                     shard0_bytes.begin() +
                                         shard0_bytes.size() / 2));
  {
    const Status open_status = OpenExpectingFailure(manifest, graph_);
    EXPECT_EQ(open_status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(open_status.ToString().find("manifest declares"),
              std::string::npos)
        << open_status.ToString();
  }
  EXPECT_EQ(sharded->Swap(manifest).status().code(),
            StatusCode::kInvalidArgument);

  // (c) Right size, wrong content: flip a checksum byte so the header
  // fingerprint no longer matches the manifest record.
  std::vector<char> foreign = shard0_bytes;
  foreign[16] = static_cast<char>(foreign[16] ^ 0x5a);
  WriteAll(shard0, foreign);
  {
    const Status open_status = OpenExpectingFailure(manifest, graph_);
    EXPECT_EQ(open_status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(open_status.ToString().find("fingerprint"), std::string::npos)
        << open_status.ToString();
  }
  EXPECT_EQ(sharded->Swap(manifest).status().code(),
            StatusCode::kInvalidArgument);

  // The old generation survived every rejected swap.
  EXPECT_EQ(sharded->model_fingerprint(), before);
  EXPECT_EQ(sharded->epoch_sequence(), 1u);
  EXPECT_TRUE(sharded->Estimate(RequestFor(PathBetween(0, 30))).ok());

  // (d) Restored bytes open cleanly again.
  WriteAll(shard0, shard0_bytes);
  EXPECT_NE(OpenOn(manifest, /*use_mmap=*/false), nullptr);

  // (e) A shard replaced after Open with a foreign artifact of the same
  // size fails the request that attaches it, never serving it.
  auto lazy = OpenOn(manifest, /*use_mmap=*/false);
  ASSERT_NE(lazy, nullptr);
  WriteAll(shard0, foreign);
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(cross_shard.empty());
  EXPECT_EQ(lazy->Estimate(RequestFor(cross_shard[0])).status().code(),
            StatusCode::kInvalidArgument);
  WriteAll(shard0, shard0_bytes);
  EXPECT_TRUE(lazy->Estimate(RequestFor(cross_shard[0])).ok());
}

// ---------------------------------------------------------------------------
// Concurrency (run under ASan/TSan in CI)
// ---------------------------------------------------------------------------

TEST_F(ShardedServingTest, ConcurrentBatchMatchesSequentialServing) {
  auto loaded = core::LoadShardManifest(manifest4_);
  ASSERT_TRUE(loaded.ok());
  // A cap below the shard count makes pool workers attach and evict
  // concurrently.
  auto sharded = OpenOn(manifest4_, /*use_mmap=*/false,
                        /*max_resident_shards=*/2, /*num_threads=*/4);
  auto mono = OpenOn(mono_bin_, /*use_mmap=*/false);
  ASSERT_NE(sharded, nullptr);
  ASSERT_NE(mono, nullptr);

  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(loaded.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(in_shard.empty());
  ASSERT_FALSE(cross_shard.empty());
  std::vector<EstimateRequest> batch;
  for (size_t i = 0; i < 32; ++i) {
    const std::vector<Path>& pool = i % 2 == 0 ? in_shard : cross_shard;
    batch.push_back(RequestFor(pool[i % pool.size()]));
  }
  auto responses = sharded->EstimateBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ExpectSameAnswer(responses[i], mono->Estimate(batch[i]));
  }
}

TEST_F(ShardedServingTest, BatchesAndRoutesStayExactUnderEvictionAndSwaps) {
  // Two manifest generations; every response must equal the single-model
  // reference of the generation its fingerprint names.
  auto gen_a = core::LoadShardManifest(manifest2_);
  auto gen_b = core::LoadShardManifest(alt_manifest2_);
  ASSERT_TRUE(gen_a.ok());
  ASSERT_TRUE(gen_b.ok());
  std::vector<Path> in_shard;
  std::vector<Path> cross_shard;
  ClassifyPaths(gen_a.value(), &in_shard, &cross_shard);
  ASSERT_FALSE(cross_shard.empty());
  std::vector<EstimateRequest> batch;
  for (size_t i = 0; i < 6; ++i) {
    const std::vector<Path>& pool = i % 2 == 0 ? in_shard : cross_shard;
    batch.push_back(RequestFor(pool[(3 * i) % pool.size()]));
  }
  const std::vector<RouteRequest> routes = {RouteRequests()[0],
                                            RouteRequests()[3]};
  struct Reference {
    std::vector<CostSummary> estimates;
    std::vector<std::string> routes;
  };
  std::map<uint64_t, Reference> references;
  for (const auto& gen :
       {std::make_pair(gen_a.value().fingerprint, mono_bin_),
        std::make_pair(gen_b.value().fingerprint, alt_bin_)}) {
    auto mono = OpenOn(gen.second, /*use_mmap=*/false);
    ASSERT_NE(mono, nullptr);
    Reference& ref = references[gen.first];
    for (const EstimateRequest& request : batch) {
      auto response = mono->Estimate(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ref.estimates.push_back(response->summary);
    }
    for (const RouteRequest& request : routes) {
      auto response = mono->Route(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ref.routes.push_back(RouteFields(response.value()));
    }
  }

  auto engine = OpenOn(manifest2_, /*use_mmap=*/false,
                       /*max_resident_shards=*/1);
  ASSERT_NE(engine, nullptr);
  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::atomic<size_t> wrong{0};
  std::atomic<size_t> failed{0};
  std::thread batcher([&] {
    while (!stop.load()) {
      auto responses = engine->EstimateBatch(batch);
      for (size_t i = 0; i < responses.size(); ++i) {
        if (!responses[i].ok()) {
          failed.fetch_add(1);
          continue;
        }
        auto ref = references.find(responses[i]->model_fingerprint);
        if (ref == references.end() ||
            !responses[i]->summary.ExactlyEquals(ref->second.estimates[i])) {
          wrong.fetch_add(1);
        }
        served.fetch_add(1);
      }
    }
  });
  std::thread router([&] {
    while (!stop.load()) {
      for (size_t i = 0; i < routes.size(); ++i) {
        auto response = engine->Route(routes[i]);
        if (!response.ok()) {
          failed.fetch_add(1);
          continue;
        }
        auto ref = references.find(response->model_fingerprint);
        if (ref == references.end() ||
            RouteFields(response.value()) != ref->second.routes[i]) {
          wrong.fetch_add(1);
        }
        served.fetch_add(1);
      }
    }
  });
  for (int swap = 0; swap < 6; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto swapped =
        engine->Swap(swap % 2 == 0 ? alt_manifest2_ : manifest2_);
    EXPECT_TRUE(swapped.ok()) << swapped.status().ToString();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  batcher.join();
  router.join();
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(engine->stats().shard_evictions, 0u);
  EXPECT_EQ(engine->epoch_sequence(), 7u);
}

}  // namespace
}  // namespace serving
}  // namespace pcde
