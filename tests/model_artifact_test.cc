// Model artifact tests: the offline-build / online-serve contract.
//
//  * Golden round trips: estimates from build -> save -> load -> estimate
//    are byte-identical to estimating on the just-built model, buffered
//    and mmap, including through the QueryCache (whose keys — model
//    fingerprint + frozen variable ids — survive save/load).
//  * Robustness properties: corrupt, truncated, version-skewed and foreign
//    files fail with a clean Status and never crash, through the loader
//    and through serving::Engine; scripts/ci.sh runs this suite under
//    ASan.
//  * The binary loader does no per-bucket allocation (counted via a
//    replacement operator new).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <vector>

#include "core/estimator.h"
#include "core/instantiation.h"
#include "core/query_cache.h"
#include "core/serialization.h"
#include "serving/engine.h"
#include "traj/generator.h"
#include "traj/store.h"

// ---------------------------------------------------------------------------
// Allocation counting: replacement global operator new/delete so the test
// can assert the binary loader's allocation count scales with variables,
// not hyper-buckets.
// ---------------------------------------------------------------------------

// GCC flags free() inside a replacement operator delete as mismatched; the
// replacement operator new below is malloc-backed, so the pairing is right.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<size_t> g_alloc_count{0};
}

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pcde {
namespace core {
namespace {

using hist::Histogram1D;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Exact (bitwise) histogram equality — the golden round-trip bar.
void ExpectByteIdentical(const Histogram1D& a, const Histogram1D& b,
                         size_t tag) {
  EXPECT_TRUE(a.BitIdentical(b)) << "query " << tag;
}

class ModelArtifactTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new traj::Dataset(traj::MakeDatasetA(2000));
    store_ = new traj::TrajectoryStore(dataset_->MatchedSlice(1.0));
    HybridParams params;
    params.beta = 15;
    wp_ = new PathWeightFunction(
        InstantiateWeightFunction(*dataset_->graph, *store_, params));
  }
  static void TearDownTestSuite() {
    delete wp_;
    delete store_;
    delete dataset_;
    wp_ = nullptr;
    store_ = nullptr;
    dataset_ = nullptr;
  }

  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string Track(std::string p) {
    cleanup_.push_back(p);
    return p;
  }

  struct Query {
    roadnet::Path path;
    double departure_time = 0.0;
  };

  /// Queries over data-instantiated variables (nontrivial decompositions).
  static std::vector<Query> MakeQueries(size_t limit) {
    std::vector<Query> queries;
    for (const InstantiatedVariable& v : wp_->variables()) {
      if (v.from_speed_limit) continue;
      const Interval ij = wp_->binning().IntervalOf(v.interval);
      queries.push_back(Query{v.path, ij.lo + 60.0});
      if (queries.size() >= limit) break;
    }
    return queries;
  }

  /// Every query estimated on `loaded` must be byte-identical to the
  /// just-built model's estimate.
  static void ExpectGoldenEquivalence(const PathWeightFunction& loaded) {
    const std::vector<Query> queries = MakeQueries(40);
    ASSERT_GE(queries.size(), 10u);
    const HybridEstimator built(*wp_);
    const HybridEstimator served(loaded);
    for (size_t i = 0; i < queries.size(); ++i) {
      auto a = built.EstimateCostDistribution(queries[i].path,
                                              queries[i].departure_time);
      auto b = served.EstimateCostDistribution(queries[i].path,
                                               queries[i].departure_time);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ExpectByteIdentical(a.value(), b.value(), i);
    }
  }

  static traj::Dataset* dataset_;
  static traj::TrajectoryStore* store_;
  static PathWeightFunction* wp_;
  std::vector<std::string> cleanup_;
};

traj::Dataset* ModelArtifactTest::dataset_ = nullptr;
traj::TrajectoryStore* ModelArtifactTest::store_ = nullptr;
PathWeightFunction* ModelArtifactTest::wp_ = nullptr;

// ---------------------------------------------------------------------------
// Golden round trips
// ---------------------------------------------------------------------------

TEST_F(ModelArtifactTest, BinaryRoundTripIsByteIdentical) {
  const std::string path = Track(TempPath("pcde_model.bin"));
  ASSERT_TRUE(SaveWeightFunctionBinary(*wp_, path).ok());
  auto loaded = LoadWeightFunctionBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value().fingerprint(), wp_->fingerprint());
  EXPECT_EQ(loaded.value().binning().alpha_seconds(),
            wp_->binning().alpha_seconds());
  ASSERT_EQ(loaded.value().NumVariables(), wp_->NumVariables());
  EXPECT_EQ(loaded.value().CountByRank(false), wp_->CountByRank(false));
  EXPECT_EQ(loaded.value().MemoryUsageBytes(), wp_->MemoryUsageBytes());
  for (size_t i = 0; i < wp_->NumVariables(); ++i) {
    const InstantiatedVariable& a = wp_->variables()[i];
    const InstantiatedVariable& b = loaded.value().variables()[i];
    ASSERT_EQ(b.id, a.id);
    ASSERT_EQ(b.path, a.path);
    ASSERT_EQ(b.interval, a.interval);
    ASSERT_EQ(b.support, a.support);
    ASSERT_EQ(b.from_speed_limit, a.from_speed_limit);
    ASSERT_EQ(b.joint.NumBuckets(), a.joint.NumBuckets());
  }
  ExpectGoldenEquivalence(loaded.value());
}

TEST_F(ModelArtifactTest, MmapLoadIsByteIdenticalToBufferedLoad) {
  const std::string path = Track(TempPath("pcde_model_mmap.bin"));
  ASSERT_TRUE(SaveWeightFunctionBinary(*wp_, path).ok());
  auto mapped = LoadWeightFunctionBinary(path, /*use_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().fingerprint(), wp_->fingerprint());
  ASSERT_EQ(mapped.value().NumVariables(), wp_->NumVariables());
  ExpectGoldenEquivalence(mapped.value());
  // Corruption still fails cleanly through the mmap path.
  const std::string bad = Track(TempPath("pcde_model_mmap_bad.bin"));
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(bad, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(LoadWeightFunctionBinary(bad, /*use_mmap=*/true).ok());
}

TEST_F(ModelArtifactTest, QueryCacheEntriesSurviveSaveLoad) {
  const std::string path = Track(TempPath("pcde_model_cache.bin"));
  ASSERT_TRUE(SaveWeightFunctionBinary(*wp_, path).ok());
  auto loaded = LoadWeightFunctionBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const std::vector<Query> queries = MakeQueries(30);
  ASSERT_GE(queries.size(), 10u);

  // Warm the shared cache through the *built* model, then serve the same
  // queries from the *loaded* model: frozen ids + content fingerprint make
  // every one a hit, and results stay byte-identical to the uncached path.
  // The cache admits a result on its second offer, so warming asks each
  // query twice in a row, and the second ask still misses.
  QueryCache cache;
  HybridEstimator warmer(*wp_);
  warmer.set_query_cache(&cache);
  for (size_t i = 0; i < queries.size(); ++i) {
    for (int ask = 0; ask < 2; ++ask) {
      EstimateBreakdown breakdown;
      ASSERT_TRUE(warmer
                      .EstimateCostDistribution(queries[i].path,
                                                queries[i].departure_time,
                                                &breakdown)
                      .ok());
      EXPECT_FALSE(breakdown.cache_hit) << "query " << i << " ask " << ask;
    }
  }
  const uint64_t hits_before = cache.stats().hits;

  const HybridEstimator uncached(*wp_);
  HybridEstimator served(loaded.value());
  served.set_query_cache(&cache);
  for (size_t i = 0; i < queries.size(); ++i) {
    EstimateBreakdown breakdown;
    auto b = served.EstimateCostDistribution(queries[i].path,
                                             queries[i].departure_time,
                                             &breakdown);
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(breakdown.cache_hit) << "query " << i;
    auto a = uncached.EstimateCostDistribution(queries[i].path,
                                               queries[i].departure_time);
    ASSERT_TRUE(a.ok());
    ExpectByteIdentical(a.value(), b.value(), i);
  }
  EXPECT_EQ(cache.stats().hits, hits_before + queries.size());
}

TEST_F(ModelArtifactTest, BinaryLoadDoesNoPerBucketAllocation) {
  const std::string path = Track(TempPath("pcde_model_alloc.bin"));
  ASSERT_TRUE(SaveWeightFunctionBinary(*wp_, path).ok());
  const uint64_t total_buckets = wp_->sections().TotalBuckets();
  const size_t num_vars = wp_->NumVariables();
  ASSERT_GT(total_buckets, num_vars);  // buckets dominate variables

  const size_t before = g_alloc_count.load();
  auto loaded = LoadWeightFunctionBinary(path);
  const size_t delta = g_alloc_count.load() - before;
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // One file buffer + O(1) index structures + one Path per variable: the
  // count scales with variables, never with hyper-buckets.
  EXPECT_LT(delta, 2 * num_vars + 512)
      << "per-bucket allocation crept into the load path (buckets: "
      << total_buckets << ")";
}

TEST_F(ModelArtifactTest, FromSectionsRejectsSemanticGarbage) {
  // A checksum says nothing about a *crafted* artifact; FromSections must
  // also enforce the semantic invariants HistogramND::Make enforces on a
  // built model.
  struct Flat {
    std::vector<uint64_t> seq_off{0, 1};
    std::vector<roadnet::EdgeId> seq_edges{3};
    std::vector<uint32_t> var_seq{0};
    std::vector<int32_t> intervals{0};
    std::vector<uint64_t> supports{1};
    std::vector<uint8_t> flags{0};
    std::vector<uint64_t> var_dim_off{0, 1};
    std::vector<uint64_t> bound_off{0, 2};
    std::vector<double> bounds{20.0, 30.0};
    std::vector<uint64_t> bucket_off{0, 1};
    std::vector<uint64_t> idx_off{0, 1};
    std::vector<double> probs{1.0};
    std::vector<uint32_t> idx{0};

    WeightFunctionSections Sections() const {
      WeightFunctionSections s;
      s.num_vars = 1;
      s.num_seqs = 1;
      s.seq_off = seq_off.data();
      s.seq_edges = seq_edges.data();
      s.var_seq = var_seq.data();
      s.intervals = intervals.data();
      s.supports = supports.data();
      s.flags = flags.data();
      s.var_dim_off = var_dim_off.data();
      s.bound_off = bound_off.data();
      s.bounds = bounds.data();
      s.bucket_off = bucket_off.data();
      s.idx_off = idx_off.data();
      s.probs = probs.data();
      s.idx = idx.data();
      return s;
    }
  };
  const TimeBinning binning(30.0);
  auto load = [&](const Flat& f) {
    return PathWeightFunction::FromSections(binning, nullptr, f.Sections());
  };
  ASSERT_TRUE(load(Flat{}).ok());  // the baseline payload is valid

  Flat nan_prob;
  nan_prob.probs[0] = std::nan("");
  EXPECT_FALSE(load(nan_prob).ok());
  Flat negative;
  negative.probs[0] = -1.0;
  EXPECT_FALSE(load(negative).ok());
  Flat unnormalized;
  unnormalized.probs[0] = 0.5;
  EXPECT_FALSE(load(unnormalized).ok());
  Flat unsorted;
  unsorted.bounds = {30.0, 20.0};
  EXPECT_FALSE(load(unsorted).ok());
  Flat inf_bound;
  inf_bound.bounds = {20.0, std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(load(inf_bound).ok());
}

TEST_F(ModelArtifactTest, SaveRejectsModelsNoLoaderWouldAccept) {
  // Save-side mirror of the loader's limits: failures surface at build
  // time instead of at query-server start.
  const std::string path = Track(TempPath("pcde_model_unsaveable"));
  {
    // Edge id above the artifact ceiling (live builds allow it).
    WeightFunctionBuilder builder{TimeBinning(30.0)};
    InstantiatedVariable v;
    v.path = roadnet::Path({static_cast<roadnet::EdgeId>(kMaxArtifactEdgeId)});
    v.interval = 0;
    v.joint = hist::HistogramND::FromHistogram1D(Histogram1D::Single(1, 2));
    builder.Add(std::move(v));
    const PathWeightFunction big = std::move(builder).Freeze();
    EXPECT_EQ(SaveWeightFunctionBinary(big, path).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Alpha below the artifact range (sub-second binning).
    WeightFunctionBuilder builder{TimeBinning(0.001)};
    InstantiatedVariable v;
    v.path = roadnet::Path({3});
    v.interval = 0;
    v.joint = hist::HistogramND::FromHistogram1D(Histogram1D::Single(1, 2));
    builder.Add(std::move(v));
    const PathWeightFunction tiny = std::move(builder).Freeze();
    EXPECT_EQ(SaveWeightFunctionBinary(tiny, path).code(),
              StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Robustness properties: corrupt / truncated / version-skewed artifacts
// ---------------------------------------------------------------------------

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(ModelArtifactTest, BinaryRejectsTruncation) {
  const std::string path = Track(TempPath("pcde_model_trunc.bin"));
  ASSERT_TRUE(SaveWeightFunctionBinary(*wp_, path).ok());
  const std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 1000u);
  const std::string cut = Track(TempPath("pcde_model_cut.bin"));
  std::vector<size_t> cuts = {0,  1,  8,  15, 63, 64, 100, bytes.size() / 4,
                              bytes.size() / 2, bytes.size() - 9,
                              bytes.size() - 1};
  for (size_t n : cuts) {
    WriteAll(cut, std::vector<char>(bytes.begin(),
                                    bytes.begin() + static_cast<long>(n)));
    auto loaded = LoadWeightFunctionBinary(cut);
    EXPECT_FALSE(loaded.ok()) << "truncation at " << n << " loaded";
  }
}

TEST_F(ModelArtifactTest, BinaryRejectsVersionSkew) {
  const std::string path = Track(TempPath("pcde_model_ver.bin"));
  ASSERT_TRUE(SaveWeightFunctionBinary(*wp_, path).ok());
  std::vector<char> bytes = ReadAll(path);
  bytes[8] = static_cast<char>(99);  // header.version
  const std::string skewed = Track(TempPath("pcde_model_skew.bin"));
  WriteAll(skewed, bytes);
  auto loaded = LoadWeightFunctionBinary(skewed);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(ModelArtifactTest, BinarySurvivesByteFlipsWithoutCrashing) {
  const std::string path = Track(TempPath("pcde_model_flip.bin"));
  ASSERT_TRUE(SaveWeightFunctionBinary(*wp_, path).ok());
  const std::vector<char> bytes = ReadAll(path);
  const std::string flipped = Track(TempPath("pcde_model_flipped.bin"));
  // Flip one byte at a spread of offsets (header, table, every payload
  // region). Every load must either fail with a clean Status or — when the
  // flip landed in inter-section padding, which the checksum does not
  // cover — yield a model identical to the original. Run under ASan this
  // is the no-crash / no-OOB-read property.
  const size_t stride = std::max<size_t>(bytes.size() / 192, 1);
  size_t rejected = 0, unaffected = 0;
  for (size_t off = 0; off < bytes.size(); off += stride) {
    std::vector<char> corrupt = bytes;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5a);
    WriteAll(flipped, corrupt);
    auto loaded = LoadWeightFunctionBinary(flipped);
    if (loaded.ok()) {
      EXPECT_EQ(loaded.value().fingerprint(), wp_->fingerprint())
          << "flip at " << off << " changed the model but loaded";
      ++unaffected;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  // Padding bytes are rare; almost every flip must be rejected.
  EXPECT_GT(rejected, 20 * unaffected);
}

TEST_F(ModelArtifactTest, SwapSurvivesCorruptArtifactSweep) {
  // The corruption sweep above, through serving::Engine::Swap: a live
  // engine fed every flavor of bad artifact must reject each one with a
  // clean Status and keep serving byte-identically. The engine starts on a
  // *different* model (the speed-limit baseline) so Swap's header-checksum
  // short-circuit never skips the full load of the corrupted payloads.
  HybridParams params;
  params.beta = 15;
  PathWeightFunction base = InstantiateWeightFunction(
      *dataset_->graph, traj::TrajectoryStore(), params);
  const uint64_t base_fp = base.fingerprint();
  ASSERT_NE(base_fp, wp_->fingerprint());
  const std::string base_path = Track(TempPath("pcde_model_swap_base.bin"));
  const std::string good = Track(TempPath("pcde_model_swap_good.bin"));
  ASSERT_TRUE(SaveWeightFunctionBinary(base, base_path).ok());
  ASSERT_TRUE(SaveWeightFunctionBinary(*wp_, good).ok());

  serving::EngineOptions options;
  options.model_path = base_path;
  options.graph = dataset_->graph.get();
  options.num_threads = 1;
  options.query_cache_bytes = 0;
  auto opened = serving::Engine::Open(std::move(options));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  serving::Engine& engine = *opened.value();

  const std::vector<Query> queries = MakeQueries(1);
  ASSERT_FALSE(queries.empty());
  serving::EstimateRequest request;
  request.path = serving::PathSpec::ExplicitPath(queries[0].path);
  request.departure_time = queries[0].departure_time;
  auto baseline = engine.Estimate(request);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::vector<char> bytes = ReadAll(good);
  const std::string bad = Track(TempPath("pcde_model_swap_bad.bin"));

  // Byte-flip sweep. Every Swap attempt must either fail (leaving the
  // baseline epoch serving) or — when the flip landed in checksum-exempt
  // inter-section padding — publish a model identical to the original, in
  // which case the engine is reset to the baseline generation for the next
  // probe. Under ASan this doubles as the no-OOB-read property of the
  // whole load-validate-publish path.
  const size_t stride = std::max<size_t>(bytes.size() / 192, 1);
  size_t rejected = 0, unaffected = 0;
  for (size_t off = 0; off < bytes.size(); off += stride) {
    std::vector<char> corrupt = bytes;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5a);
    WriteAll(bad, corrupt);
    auto swapped = engine.Swap(bad);
    if (swapped.ok()) {
      EXPECT_EQ(engine.model().fingerprint(), wp_->fingerprint())
          << "flip at " << off << " changed the model but swapped in";
      ++unaffected;
      ASSERT_TRUE(engine.Swap(base_path).ok());
    } else {
      EXPECT_EQ(engine.model().fingerprint(), base_fp) << "flip at " << off;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  // Padding bytes are rare; almost every flip must be rejected.
  EXPECT_GT(rejected, 20 * unaffected);

  // Truncations and version skew through the same live engine.
  const uint64_t sequence = engine.epoch_sequence();
  for (size_t n : {size_t{0}, size_t{15}, size_t{63}, size_t{100},
                   bytes.size() / 2, bytes.size() - 1}) {
    WriteAll(bad, std::vector<char>(bytes.begin(),
                                    bytes.begin() + static_cast<long>(n)));
    EXPECT_FALSE(engine.Swap(bad).ok()) << "truncation at " << n;
  }
  {
    std::vector<char> skewed = bytes;
    skewed[8] = static_cast<char>(99);  // header.version
    WriteAll(bad, skewed);
    EXPECT_FALSE(engine.Swap(bad).ok());
  }
  EXPECT_EQ(engine.epoch_sequence(), sequence);

  // Serving was never perturbed by any of it.
  auto after = engine.Estimate(request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value().summary.ExactlyEquals(baseline.value().summary));
  EXPECT_EQ(after.value().model_fingerprint, base_fp);

  // And the undamaged artifact still swaps in cleanly afterwards.
  auto swapped = engine.Swap(good);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(engine.model().fingerprint(), wp_->fingerprint());
}

TEST_F(ModelArtifactTest, TextModelFilesAreRejectedByOpenAndSwap) {
  // PCDEWF1 is the only model format. A record stream in the retired text
  // layout (BINNING, then VAR/DIM/HB groups) is a foreign file: Open and
  // Swap reject it as a content error, Swap without a retry, and the
  // served epoch stays put.
  const std::string text = Track(TempPath("pcde_model_text.txt"));
  {
    std::FILE* f = std::fopen(text.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# pcde weight function v2\nBINNING,30\nVAR,16,40,0,1,3\n"
               "DIM,20,30\nHB,1,0\n",
               f);
    std::fclose(f);
  }
  serving::EngineOptions text_options;
  text_options.model_path = text;
  text_options.graph = dataset_->graph.get();
  text_options.num_threads = 1;
  auto opened_text = serving::Engine::Open(std::move(text_options));
  ASSERT_FALSE(opened_text.ok());
  EXPECT_EQ(opened_text.status().code(), StatusCode::kInvalidArgument)
      << opened_text.status().ToString();

  const std::string good = Track(TempPath("pcde_model_text_good.bin"));
  ASSERT_TRUE(SaveWeightFunctionBinary(*wp_, good).ok());
  serving::EngineOptions options;
  options.model_path = good;
  options.graph = dataset_->graph.get();
  options.num_threads = 1;
  options.swap_policy.max_attempts = 3;  // a content error still never retries
  options.swap_policy.initial_backoff_seconds = 0.0;
  auto opened = serving::Engine::Open(std::move(options));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  serving::Engine& engine = *opened.value();

  auto swapped = engine.Swap(text);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kInvalidArgument)
      << swapped.status().ToString();
  EXPECT_EQ(engine.stats().swap_attempts, 1u);
  EXPECT_EQ(engine.stats().swap_retries, 0u);
  EXPECT_EQ(engine.epoch_sequence(), 1u);

  const std::vector<Query> queries = MakeQueries(1);
  ASSERT_FALSE(queries.empty());
  serving::EstimateRequest request;
  request.path = serving::PathSpec::ExplicitPath(queries[0].path);
  request.departure_time = queries[0].departure_time;
  auto response = engine.Estimate(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().model_fingerprint, wp_->fingerprint());
  EXPECT_EQ(response.value().epoch, 1u);
}

}  // namespace
}  // namespace core
}  // namespace pcde
