// Tests for the sharded LRU query cache: hit/miss accounting, LRU
// memory-budget eviction, and the serving-layer equivalence guarantee —
// concurrent estimates sharing a cache must be bit-identical to the
// sequential estimator without one.
#include <gtest/gtest.h>

#include <memory>

#include "common/thread_pool.h"
#include "core/estimator.h"
#include "core/instantiation.h"
#include "core/query_cache.h"
#include "hist/histogram1d.h"
#include "hist/histogram_nd.h"
#include "routing/stochastic_router.h"
#include "traj/generator.h"
#include "traj/store.h"

namespace pcde {
namespace core {
namespace {

using hist::Histogram1D;
using traj::TrajectoryStore;

Histogram1D TwoBucketHistogram(double base) {
  return Histogram1D::Make(
             {{base, base + 10.0, 0.25}, {base + 10.0, base + 30.0, 0.75}})
      .value();
}

QueryCache::Key KeyOf(uint64_t tag) { return QueryCache::Key{tag, tag ^ 7}; }

TEST(QueryCacheTest, HitMissAndInsertionAccounting) {
  QueryCache cache;
  Histogram1D out;
  EXPECT_FALSE(cache.Lookup(KeyOf(1), &out));
  cache.Insert(KeyOf(1), TwoBucketHistogram(0.0));
  EXPECT_TRUE(cache.Lookup(KeyOf(1), &out));
  EXPECT_EQ(out.NumBuckets(), 2u);
  EXPECT_DOUBLE_EQ(out.bucket(0).prob, 0.25);
  EXPECT_FALSE(cache.Lookup(KeyOf(2), &out));

  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_NEAR(stats.HitRate(), 1.0 / 3.0, 1e-12);
}

TEST(QueryCacheTest, InsertIsIdempotentPerKey) {
  QueryCache cache;
  cache.Insert(KeyOf(5), TwoBucketHistogram(0.0));
  cache.Insert(KeyOf(5), TwoBucketHistogram(0.0));  // concurrent-miss replay
  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryCacheTest, BudgetEvictionIsLeastRecentlyUsedFirst) {
  QueryCacheOptions options;
  options.num_shards = 1;  // deterministic: one LRU list
  // Room for roughly three entries (each ~ 200 + 2 buckets).
  options.max_bytes = 3 * (160 + 2 * 16 + 2 * sizeof(hist::Bucket)) + 200;
  QueryCache cache(options);

  cache.Insert(KeyOf(1), TwoBucketHistogram(1.0));
  cache.Insert(KeyOf(2), TwoBucketHistogram(2.0));
  cache.Insert(KeyOf(3), TwoBucketHistogram(3.0));
  Histogram1D out;
  ASSERT_TRUE(cache.Lookup(KeyOf(1), &out));  // refresh 1: LRU order 2 < 3 < 1

  cache.Insert(KeyOf(4), TwoBucketHistogram(4.0));  // evicts 2 first
  EXPECT_FALSE(cache.Lookup(KeyOf(2), &out));
  EXPECT_TRUE(cache.Lookup(KeyOf(1), &out));
  EXPECT_TRUE(cache.Lookup(KeyOf(4), &out));

  const QueryCacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, options.max_bytes);

  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(QueryCacheTest, OversizedEntriesAreNotAdmitted) {
  QueryCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 64;  // smaller than any entry
  QueryCache cache(options);
  cache.Insert(KeyOf(1), TwoBucketHistogram(0.0));
  EXPECT_EQ(cache.stats().entries, 0u);
  Histogram1D out;
  EXPECT_FALSE(cache.Lookup(KeyOf(1), &out));
}

TEST(QueryCacheTest, KeySeparatesOptionsTimeBucketPartsAndModel) {
  InstantiatedVariable var;
  var.id = 9;
  const Decomposition de{DecompositionPart{&var, 3}};
  const uint64_t fp = QueryCache::Fingerprint(ChainOptions());
  ChainOptions independent;
  independent.force_independence = true;

  const auto base = QueryCache::MakeKey(de, 100.0, 300.0, fp, 1);
  EXPECT_EQ(base, QueryCache::MakeKey(de, 250.0, 300.0, fp, 1));  // same bucket
  EXPECT_NE(base, QueryCache::MakeKey(de, 400.0, 300.0, fp, 1));  // next bucket
  EXPECT_NE(base,
            QueryCache::MakeKey(de, 100.0, 300.0,
                                QueryCache::Fingerprint(independent), 1));
  const Decomposition shifted{DecompositionPart{&var, 4}};
  EXPECT_NE(base, QueryCache::MakeKey(shifted, 100.0, 300.0, fp, 1));
  // Keys carry frozen variable ids, not addresses: an equal-id variable at
  // a different address (a reloaded model) keys the same entry...
  InstantiatedVariable reloaded;
  reloaded.id = 9;
  const Decomposition same_id{DecompositionPart{&reloaded, 3}};
  EXPECT_EQ(base, QueryCache::MakeKey(same_id, 100.0, 300.0, fp, 1));
  // ...while a different id or a different model fingerprint never
  // false-hits.
  reloaded.id = 10;
  EXPECT_NE(base, QueryCache::MakeKey(same_id, 100.0, 300.0, fp, 1));
  EXPECT_NE(base, QueryCache::MakeKey(de, 100.0, 300.0, fp, 2));
}

class CachedEstimationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new traj::Dataset(traj::MakeDatasetA(3000));
    HybridParams params;
    params.beta = 10;
    store_ = new TrajectoryStore(dataset_->MatchedSlice(1.0));
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

  struct Query {
    roadnet::Path path;
    double departure_time = 0.0;
  };

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

  static traj::Dataset* dataset_;
  static TrajectoryStore* store_;
  static PathWeightFunction* wp_;
};

traj::Dataset* CachedEstimationFixture::dataset_ = nullptr;
TrajectoryStore* CachedEstimationFixture::store_ = nullptr;
PathWeightFunction* CachedEstimationFixture::wp_ = nullptr;

void ExpectBitIdentical(const StatusOr<Histogram1D>& got,
                        const StatusOr<Histogram1D>& want, size_t i) {
  ASSERT_EQ(got.ok(), want.ok()) << "query " << i;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << "query " << i;
    return;
  }
  ASSERT_EQ(got.value().NumBuckets(), want.value().NumBuckets())
      << "query " << i;
  for (size_t b = 0; b < got.value().NumBuckets(); ++b) {
    EXPECT_EQ(got.value().bucket(b).range.lo, want.value().bucket(b).range.lo)
        << "query " << i << " bucket " << b;
    EXPECT_EQ(got.value().bucket(b).range.hi, want.value().bucket(b).range.hi)
        << "query " << i << " bucket " << b;
    EXPECT_EQ(got.value().bucket(b).prob, want.value().bucket(b).prob)
        << "query " << i << " bucket " << b;
  }
}

TEST_F(CachedEstimationFixture, BatchWithCacheMatchesSequentialWithout) {
  const std::vector<Query> base = MakeQueries(30);
  ASSERT_GE(base.size(), 10u);
  // Duplicate every query so the batch exercises real hits.
  std::vector<Query> queries = base;
  queries.insert(queries.end(), base.begin(), base.end());

  const HybridEstimator plain(*wp_);
  QueryCache cache;
  HybridEstimator cached_estimator(*wp_);
  cached_estimator.set_query_cache(&cache);

  // The estimates run concurrently on a pool, sharing the cache.
  ThreadPool pool(4);
  std::vector<StatusOr<Histogram1D>> batch(
      queries.size(), Status::Internal("query not run"));
  std::vector<EstimateBreakdown> breakdowns(queries.size());
  pool.ParallelFor(queries.size(), [&](size_t i) {
    batch[i] = cached_estimator.EstimateCostDistribution(
        queries[i].path, queries[i].departure_time, &breakdowns[i]);
  });
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto sequential = plain.EstimateCostDistribution(
        queries[i].path, queries[i].departure_time);
    ExpectBitIdentical(batch[i], sequential, i);
  }

  // The duplicated half must have been served from the cache (with 4
  // threads a duplicate can race its original, so allow a small shortfall).
  uint64_t hits = 0;
  for (const EstimateBreakdown& b : breakdowns) hits += b.cache_hit ? 1 : 0;
  EXPECT_GE(hits, base.size() / 2);
  EXPECT_GE(cache.stats().hits, hits);
}

TEST(CachedRoutingTest, CachedRouterMatchesUncachedAndReusesResults) {
  // A small grid with per-edge unit variables; routing the same query twice
  // against a shared cache must return the uncached result and serve the
  // second run's candidate-path distributions from the cache.
  constexpr int kSide = 4;
  roadnet::Graph g;
  std::vector<roadnet::VertexId> v;
  for (int i = 0; i < kSide; ++i) {
    for (int j = 0; j < kSide; ++j) {
      v.push_back(g.AddVertex(1000.0 * i, 1000.0 * j));
    }
  }
  WeightFunctionBuilder wp_builder{TimeBinning(30.0)};
  Rng rng(11);
  auto connect = [&](roadnet::VertexId a, roadnet::VertexId b) {
    const roadnet::EdgeId e = g.AddEdge(a, b, 1000.0, 13.9).value();
    const double fast = rng.Uniform(60.0, 90.0);
    InstantiatedVariable var;
    var.path = roadnet::Path({e});
    var.interval = kAllDayInterval;
    var.joint = hist::HistogramND::FromHistogram1D(
        Histogram1D::Make({{fast, fast + 30.0, 0.8},
                           {fast + 60.0, fast + 120.0, 0.2}})
            .value());
    var.from_speed_limit = true;
    wp_builder.Add(std::move(var));
  };
  for (int i = 0; i < kSide; ++i) {
    for (int j = 0; j < kSide; ++j) {
      if (i + 1 < kSide) connect(v[i * kSide + j], v[(i + 1) * kSide + j]);
      if (j + 1 < kSide) connect(v[i * kSide + j], v[i * kSide + j + 1]);
    }
  }
  const PathWeightFunction wp = std::move(wp_builder).Freeze();

  routing::RouterConfig plain_config;
  QueryCache cache;
  routing::RouterConfig cached_config = plain_config;
  cached_config.query_cache = &cache;
  const routing::DfsStochasticRouter plain(g, wp, EstimateOptions(),
                                           plain_config);
  const routing::DfsStochasticRouter cached(g, wp, EstimateOptions(),
                                            cached_config);

  const double depart = 8 * 3600.0;
  const double budget = 900.0;
  auto want = plain.Route(v.front(), v.back(), depart, budget);
  auto first = cached.Route(v.front(), v.back(), depart, budget);
  auto second = cached.Route(v.front(), v.back(), depart, budget);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (const auto* got : {&first.value(), &second.value()}) {
    EXPECT_DOUBLE_EQ(got->best_probability, want.value().best_probability);
    EXPECT_EQ(got->best_path.edges(), want.value().best_path.edges());
    EXPECT_EQ(got->candidate_paths, want.value().candidate_paths);
  }
  const QueryCacheStats stats = cache.stats();
  EXPECT_GT(stats.insertions, 0u);
  // The second run re-evaluates the same candidate paths: all hits.
  EXPECT_GE(stats.hits, want.value().candidate_paths);
}

TEST_F(CachedEstimationFixture, RepeatedSingleQueriesHitTheCache) {
  QueryCache cache;
  HybridEstimator estimator(*wp_);
  estimator.set_query_cache(&cache);
  const std::vector<Query> queries = MakeQueries(5);
  ASSERT_FALSE(queries.empty());

  EstimateBreakdown first, second;
  auto a = estimator.EstimateCostDistribution(queries[0].path,
                                              queries[0].departure_time,
                                              &first);
  auto b = estimator.EstimateCostDistribution(queries[0].path,
                                              queries[0].departure_time,
                                              &second);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  ExpectBitIdentical(b, a, 0);
}

}  // namespace
}  // namespace core
}  // namespace pcde
