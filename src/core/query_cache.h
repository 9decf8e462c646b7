// Sharded, memory-budgeted LRU cache of estimated cost distributions — the
// batch-serving layer's memoization of repeated sub-path work. Identical
// queries from different users hit the same decomposition, and
// EstimateFromDecomposition is deterministic in the decomposition and chain
// options alone, so a cached histogram is bit-identical to a recomputation:
// batch-with-cache equals sequential-without-cache result for result.
//
// Keys are the decomposition identity — the (variable id, start) sequence,
// ids as core::ModelView::KeyId gives them — plus the departure-time
// bucket, a fingerprint of the chain options, and the view's generation
// fingerprint. Frozen variable ids are stable across save/load of the model
// artifact, so decomposition fingerprints (and therefore cache entries) are
// addressable across processes serving the same artifact; the generation
// fingerprint turns a cache shared across *different* models into misses
// instead of false hits.
//
// Shards are independent mutex-protected LRU lists, selected by key hash,
// so concurrent EstimateBatch workers rarely contend; the byte budget is
// split evenly across shards and enforced by evicting each shard's least
// recently used entries.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/lru.h"
#include "core/chain_estimator.h"
#include "core/decomposition.h"
#include "core/model_view.h"
#include "hist/histogram1d.h"

namespace pcde {
namespace core {

struct QueryCacheOptions {
  /// Number of independent LRU shards; rounded up to a power of two.
  size_t num_shards = 8;
  /// Total byte budget across all shards (keys + histograms + overhead).
  size_t max_bytes = size_t{64} << 20;
  /// Width of the departure-time bucket folded into the key. Queries in the
  /// same bucket that select the same decomposition share an entry.
  double time_bucket_seconds = 300.0;
};

struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  size_t bytes = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

class QueryCache {
 public:
  /// The exact cache identity of a query: the view's generation
  /// fingerprint (a single model's PathWeightFunction::fingerprint —
  /// identical across save/load — or a manifest's), fingerprint of the
  /// chain options, departure-time bucket, then (ModelView::KeyId, start)
  /// per part.
  /// Keys are stored verbatim and compared exactly, so lookups within one
  /// model never false-hit; isolation *across* models rests on the 64-bit
  /// non-cryptographic content fingerprint (an accidental collision is
  /// astronomically unlikely, but do not share a cache with models loaded
  /// from untrusted artifacts).
  using Key = std::vector<uint64_t>;

  explicit QueryCache(QueryCacheOptions options = QueryCacheOptions());

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  const QueryCacheOptions& options() const { return options_; }

  /// Mixes every chain option that influences EstimateFromDecomposition.
  static uint64_t Fingerprint(const ChainOptions& chain);

  static Key MakeKey(const Decomposition& de, double departure_time,
                     double time_bucket_seconds, uint64_t options_fingerprint,
                     const ModelView& view);

  /// True when MakeKey can bucket `departure_time`: it is finite and
  /// floor(departure_time / bucket width) fits int64_t. MakeKey's cast is
  /// undefined behaviour for any other departure time.
  static bool CanKeyDeparture(double departure_time,
                              double time_bucket_seconds);

  /// True and fills *out (a copy of the cached histogram) on a hit.
  bool Lookup(const Key& key, hist::Histogram1D* out);

  /// Inserts (or refreshes) the result for `key`, then evicts the owning
  /// shard down to its byte budget. Entries larger than a whole shard's
  /// budget are not admitted.
  void Insert(const Key& key, const hist::Histogram1D& result);

  QueryCacheStats stats() const;
  void Clear();

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  /// One LRU shard: the shared common/lru.h core under the shard mutex.
  /// The histogram is held by shared_ptr so a hit only bumps a refcount
  /// inside the shard lock; the caller's deep copy happens outside it
  /// (popular entries would otherwise serialize their shard on the copy).
  struct Shard {
    explicit Shard(size_t budget_bytes) : lru(budget_bytes) {}
    std::mutex mutex;
    Lru<Key, std::shared_ptr<const hist::Histogram1D>, KeyHash> lru;
  };

  static size_t EntryBytes(const Key& key, const hist::Histogram1D& result);
  Shard& ShardFor(const Key& key);

  QueryCacheOptions options_;
  size_t shard_mask_ = 0;
  size_t per_shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace core
}  // namespace pcde
