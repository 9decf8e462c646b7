// Tests for the sharded LRU query cache: hit/miss accounting, second-offer
// admission through the doorkeeper, LRU memory-budget eviction, and the
// serving-layer equivalence guarantee — concurrent estimates sharing a
// cache must be bit-identical to the sequential estimator without one.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/estimator.h"
#include "core/instantiation.h"
#include "core/query_cache.h"
#include "hist/histogram1d.h"
#include "hist/histogram_nd.h"
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
  cache.Insert(KeyOf(1), TwoBucketHistogram(0.0));  // first offer: refused
  EXPECT_FALSE(cache.Lookup(KeyOf(1), &out));
  cache.Insert(KeyOf(1), TwoBucketHistogram(0.0));  // second offer: stored
  EXPECT_TRUE(cache.Lookup(KeyOf(1), &out));
  EXPECT_EQ(out.NumBuckets(), 2u);
  EXPECT_DOUBLE_EQ(out.bucket(0).prob, 0.25);
  EXPECT_FALSE(cache.Lookup(KeyOf(2), &out));

  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.refused, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_NEAR(stats.HitRate(), 1.0 / 4.0, 1e-12);
}

TEST(QueryCacheTest, InsertIsIdempotentPerKey) {
  QueryCache cache;
  cache.Insert(KeyOf(5), TwoBucketHistogram(0.0));  // refused
  cache.Insert(KeyOf(5), TwoBucketHistogram(0.0));  // stored
  cache.Insert(KeyOf(5), TwoBucketHistogram(0.0));  // concurrent-miss replay
  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

/// Offers `value` for `key` twice, so the doorkeeper admits it.
void InsertAdmitted(QueryCache* cache, const QueryCache::Key& key,
                    const Histogram1D& value) {
  cache->Insert(key, value);
  cache->Insert(key, value);
}

TEST(QueryCacheTest, BudgetEvictionIsLeastRecentlyUsedFirst) {
  QueryCacheOptions options;
  options.num_shards = 1;  // deterministic: one LRU list
  // Room for roughly three entries (each ~ 200 + 2 buckets).
  options.max_bytes = 3 * (160 + 2 * 16 + 2 * sizeof(hist::Bucket)) + 200;
  QueryCache cache(options);

  InsertAdmitted(&cache, KeyOf(1), TwoBucketHistogram(1.0));
  InsertAdmitted(&cache, KeyOf(2), TwoBucketHistogram(2.0));
  InsertAdmitted(&cache, KeyOf(3), TwoBucketHistogram(3.0));
  Histogram1D out;
  ASSERT_TRUE(cache.Lookup(KeyOf(1), &out));  // refresh 1: LRU order 2 < 3 < 1

  // A first offer of 4 is refused: it misses and evicts nothing.
  cache.Insert(KeyOf(4), TwoBucketHistogram(4.0));
  EXPECT_FALSE(cache.Lookup(KeyOf(4), &out));
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().entries, 3u);

  cache.Insert(KeyOf(4), TwoBucketHistogram(4.0));  // stored: evicts 2 first
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
  InsertAdmitted(&cache, KeyOf(1), TwoBucketHistogram(0.0));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  Histogram1D out;
  EXPECT_FALSE(cache.Lookup(KeyOf(1), &out));
}

TEST(QueryCacheTest, DoorkeeperAdmitsOnTheSecondOffer) {
  QueryCache cache;
  cache.Insert(KeyOf(1), TwoBucketHistogram(0.0));
  QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.refused, 1u);

  cache.Insert(KeyOf(1), TwoBucketHistogram(0.0));
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.refused, 1u);
  Histogram1D out;
  ASSERT_TRUE(cache.Lookup(KeyOf(1), &out));
  EXPECT_TRUE(out.BitIdentical(TwoBucketHistogram(0.0)));

  // Clear empties the doorkeeper too: the next offer is a first offer.
  cache.Clear();
  cache.Insert(KeyOf(1), TwoBucketHistogram(0.0));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().refused, 2u);
}

TEST(QueryCacheTest, DoorkeeperAdmitsKeysOfferedInTurn) {
  // A round-robin working set as large as an 8 MiB cache holds, asked pass
  // by pass as the engine asks: a lookup, and an offer on a miss. No key's
  // bits are overwritten by another's, so every key is stored by its
  // second offer and the third pass hits throughout.
  constexpr uint64_t kKeys = 5000;
  QueryCacheOptions options;
  options.max_bytes = size_t{8} << 20;
  QueryCache cache(options);
  ASSERT_GE(cache.doorkeeper_bits() / 64, kKeys);  // no reset mid-test
  Histogram1D out;
  auto pass = [&] {
    uint64_t hits = 0;
    for (uint64_t k = 0; k < kKeys; ++k) {
      if (cache.Lookup(KeyOf(k), &out)) {
        ++hits;
        EXPECT_TRUE(out.BitIdentical(TwoBucketHistogram(static_cast<double>(k))));
      } else {
        cache.Insert(KeyOf(k), TwoBucketHistogram(static_cast<double>(k)));
      }
    }
    return hits;
  };
  EXPECT_EQ(pass(), 0u);
  // A first offer is stored only if other keys set both its bits.
  const uint64_t false_admits = cache.stats().insertions;
  EXPECT_EQ(cache.stats().refused, kKeys - false_admits);
  EXPECT_LE(false_admits, kKeys / 100);
  EXPECT_EQ(pass(), false_admits);
  EXPECT_EQ(cache.stats().entries, kKeys);
  EXPECT_EQ(pass(), kKeys);
  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, kKeys);
  EXPECT_EQ(stats.refused, kKeys - false_admits);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(QueryCacheTest, DoorkeeperForgetsAfterAWindowOfRefusals) {
  // The smallest table: 512 words, emptied after every 512th refusal.
  QueryCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = size_t{64} << 10;
  QueryCache cache(options);
  ASSERT_EQ(cache.doorkeeper_bits(), QueryCache::kMinDoorkeeperBits);
  const uint64_t window = cache.doorkeeper_bits() / 64;

  cache.Insert(KeyOf(0), TwoBucketHistogram(0.0));  // refusal 1
  uint64_t k = 1;
  while (cache.stats().refused < window) {
    cache.Insert(KeyOf(k), TwoBucketHistogram(static_cast<double>(k)));
    ++k;
  }
  // The window-th refusal emptied the table, so key 0's second offer is a
  // first offer again, and its third is stored.
  cache.Insert(KeyOf(0), TwoBucketHistogram(0.0));
  EXPECT_EQ(cache.stats().refused, window + 1);
  Histogram1D out;
  EXPECT_FALSE(cache.Lookup(KeyOf(0), &out));
  cache.Insert(KeyOf(0), TwoBucketHistogram(0.0));
  ASSERT_TRUE(cache.Lookup(KeyOf(0), &out));
  EXPECT_TRUE(out.BitIdentical(TwoBucketHistogram(0.0)));
}

TEST(QueryCacheTest, DoorkeeperSizeFollowsTheBudgetWithinFixedBounds) {
  auto bits_for = [](size_t max_bytes) {
    QueryCacheOptions options;
    options.max_bytes = max_bytes;
    return QueryCache(options).doorkeeper_bits();
  };
  EXPECT_EQ(bits_for(0), QueryCache::kMinDoorkeeperBits);
  EXPECT_EQ(bits_for(size_t{8} << 20), size_t{1} << 20);  // 128 KiB
  EXPECT_EQ(bits_for((size_t{8} << 20) + QueryCache::kDoorkeeperBytesPerBit),
            size_t{1} << 21);
  EXPECT_EQ(QueryCache().doorkeeper_bits(), QueryCache::kMaxDoorkeeperBits);
  // A budget meaning "unbounded" gets the largest table, not an
  // allocation of 1/64 of SIZE_MAX, and still admits on the second offer.
  QueryCacheOptions unbounded;
  unbounded.max_bytes = SIZE_MAX;
  QueryCache cache(unbounded);
  EXPECT_EQ(cache.doorkeeper_bits(), QueryCache::kMaxDoorkeeperBits);
  cache.Insert(KeyOf(1), TwoBucketHistogram(0.0));
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.Insert(KeyOf(1), TwoBucketHistogram(0.0));
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(QueryCacheTest, ConcurrentOffersInsertEachKeyAtMostOnce) {
  // 4 threads each offer the same keys twice. The doorkeeper table is
  // shared and lock-free; the shard lock keeps a key from being stored
  // twice, and a hit must return exactly the histogram offered for it.
  constexpr uint64_t kKeys = 1000;
  constexpr int kThreads = 4;
  QueryCache cache;
  // At most kThreads refusals per key, far from a doorkeeper reset.
  ASSERT_GT(cache.doorkeeper_bits() / 64, kThreads * kKeys);
  std::atomic<uint64_t> wrong_hits{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 2; ++round) {
        for (uint64_t k = 0; k < kKeys; ++k) {
          cache.Insert(KeyOf(k), TwoBucketHistogram(static_cast<double>(k)));
        }
      }
      Histogram1D out;
      for (uint64_t k = 0; k < kKeys; ++k) {
        if (!cache.Lookup(KeyOf(k), &out)) continue;
        hits.fetch_add(1);
        if (!out.BitIdentical(TwoBucketHistogram(static_cast<double>(k)))) {
          wrong_hits.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const QueryCacheStats stats = cache.stats();
  EXPECT_EQ(wrong_hits.load(), 0u);
  EXPECT_EQ(stats.evictions, 0u);
  // A key stored twice would count two insertions for one entry.
  EXPECT_EQ(stats.insertions, stats.entries);
  // A thread's first offer of a key sets its bits for good, so its
  // second is admitted: every key is stored before that thread's lookups,
  // and every lookup hits.
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(hits.load(), kThreads * kKeys);
}

/// A frozen one-variable model; `lo` sets its content, so models built with
/// different `lo` differ in fingerprint.
PathWeightFunction OneVariableModel(double lo) {
  WeightFunctionBuilder builder(TimeBinning(30.0));
  InstantiatedVariable var;
  var.path = roadnet::Path({0});
  var.interval = kAllDayInterval;
  var.joint = hist::HistogramND::FromHistogram1D(TwoBucketHistogram(lo));
  builder.Add(std::move(var));
  return std::move(builder).Freeze();
}

TEST(QueryCacheTest, KeySeparatesOptionsTimeBucketPartsAndModel) {
  const PathWeightFunction model = OneVariableModel(60.0);
  const PathWeightFunction other = OneVariableModel(70.0);
  ASSERT_NE(model.fingerprint(), other.fingerprint());
  InstantiatedVariable var;
  var.id = 9;
  const Decomposition de{DecompositionPart{&var, 3}};
  const uint64_t fp = QueryCache::Fingerprint(ChainOptions());
  ChainOptions independent;
  independent.force_independence = true;

  const auto base = QueryCache::MakeKey(de, 100.0, fp, model);
  // Same bucket, then the next one.
  EXPECT_EQ(base, QueryCache::MakeKey(de, 250.0, fp, model));
  EXPECT_NE(base, QueryCache::MakeKey(de, 400.0, fp, model));
  EXPECT_NE(base,
            QueryCache::MakeKey(de, 100.0,
                                QueryCache::Fingerprint(independent), model));
  const Decomposition shifted{DecompositionPart{&var, 4}};
  EXPECT_NE(base, QueryCache::MakeKey(shifted, 100.0, fp, model));
  // Keys carry frozen variable ids, not addresses: an equal-id variable at
  // a different address (a reloaded model) keys the same entry...
  InstantiatedVariable reloaded;
  reloaded.id = 9;
  const Decomposition same_id{DecompositionPart{&reloaded, 3}};
  EXPECT_EQ(base, QueryCache::MakeKey(same_id, 100.0, fp, model));
  // ...while a different id or a different model fingerprint never
  // false-hits.
  reloaded.id = 10;
  EXPECT_NE(base, QueryCache::MakeKey(same_id, 100.0, fp, model));
  EXPECT_NE(base, QueryCache::MakeKey(de, 100.0, fp, other));
}

TEST(QueryCacheTest, SingleModelKeysAreFingerprintOptionsBucketThenIdStart) {
  // The key layout of a single-model view, word for word: serving a model
  // through a ModelView keys exactly the entries the model itself keyed.
  const PathWeightFunction model = OneVariableModel(60.0);
  InstantiatedVariable a;
  a.id = 9;
  InstantiatedVariable b;
  b.id = 4;
  const Decomposition de{DecompositionPart{&a, 0}, DecompositionPart{&b, 2}};
  const uint64_t fp = QueryCache::Fingerprint(ChainOptions());
  EXPECT_EQ(QueryCache::MakeKey(de, 700.0, fp, model),
            (QueryCache::Key{model.fingerprint(), fp, 2, 9, 0, 4, 2}));
  // A departure before midnight buckets negative, as a two's-complement
  // word.
  EXPECT_EQ(QueryCache::MakeKey(de, -1.0, fp, model),
            (QueryCache::Key{model.fingerprint(), fp,
                             static_cast<uint64_t>(int64_t{-1}), 9, 0, 4, 2}));
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
  // Three copies of every query so the batch exercises real hits: the
  // cache stores a result on its second offer, so the third copy hits.
  std::vector<Query> queries = base;
  queries.insert(queries.end(), base.begin(), base.end());
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

  // The third copies must have been served from the cache (with 4 threads
  // a copy can race an earlier one, so allow a small shortfall).
  uint64_t hits = 0;
  for (const EstimateBreakdown& b : breakdowns) hits += b.cache_hit ? 1 : 0;
  EXPECT_GE(hits, base.size() / 2);
  EXPECT_GE(cache.stats().hits, hits);
}

TEST_F(CachedEstimationFixture, RepeatedSingleQueriesHitTheCache) {
  QueryCache cache;
  HybridEstimator estimator(*wp_);
  estimator.set_query_cache(&cache);
  const std::vector<Query> queries = MakeQueries(5);
  ASSERT_FALSE(queries.empty());

  // The first ask is refused by the doorkeeper, the second stores its
  // result, the third hits.
  EstimateBreakdown first, second, third;
  auto a = estimator.EstimateCostDistribution(queries[0].path,
                                              queries[0].departure_time,
                                              &first);
  auto b = estimator.EstimateCostDistribution(queries[0].path,
                                              queries[0].departure_time,
                                              &second);
  auto c = estimator.EstimateCostDistribution(queries[0].path,
                                              queries[0].departure_time,
                                              &third);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(third.cache_hit);
  ExpectBitIdentical(b, a, 0);
  ExpectBitIdentical(c, a, 0);
  EXPECT_EQ(cache.stats().refused, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST_F(CachedEstimationFixture, EstimatorKeysSingleModelEntriesWordForWord) {
  // The key an estimator over a single model inserts, spelled out without
  // MakeKey: model fingerprint, chain-options fingerprint, 5-minute
  // departure bucket, then (frozen id, start) per decomposition part.
  QueryCache cache;
  HybridEstimator estimator(*wp_);
  estimator.set_query_cache(&cache);
  const std::vector<Query> queries = MakeQueries(8);
  ASSERT_FALSE(queries.empty());
  for (const Query& q : queries) {
    // Twice: the cache stores a result on its second offer.
    for (int ask = 0; ask < 2; ++ask) {
      ASSERT_TRUE(
          estimator.EstimateCostDistribution(q.path, q.departure_time).ok());
    }
    auto de = estimator.Decompose(q.path, q.departure_time);
    ASSERT_TRUE(de.ok());
    QueryCache::Key key{wp_->fingerprint(),
                        QueryCache::Fingerprint(ChainOptions()),
                        static_cast<uint64_t>(static_cast<int64_t>(
                            std::floor(q.departure_time / 300.0)))};
    for (const DecompositionPart& part : de.value()) {
      key.push_back(part.variable->id);
      key.push_back(part.start);
    }
    Histogram1D out;
    EXPECT_TRUE(cache.Lookup(key, &out));
  }
}

}  // namespace
}  // namespace core
}  // namespace pcde
