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
// Admission is frequency-aware (the doorkeeper of TinyLFU: Einziger,
// Friedman and Manes, ACM TOS 2017): a result is stored on its key's second
// offer, so a key asked once never displaces entries that are asked again.
// The doorkeeper is a fixed Bloom filter of one bit per
// kDoorkeeperBytesPerBit of the byte budget, 64-bit words, and two bits of
// one word per key. An offer ORs its key's bits into the table and is
// stored only if both were already set. A miss followed by an Insert is an
// offer, so the first ask of a key misses, the second misses and stores,
// and the third hits. Nothing overwrites a key's bits, so keys asked in
// turn are all stored on their second offers; a key whose two bits other
// keys set is stored on its first (a false admit). Every refused offer
// sets at most two bits, and the table is emptied after as many refusals
// as it has words, so at most 1/32 of its bits are set and about one first
// offer in 1,300 is falsely admitted (0.08% of 2M distinct keys, at 1, 8
// and 64 MiB budgets). A key whose two offers straddle that reset is
// refused once more. Traffic that never repeats leaves the cache nearly
// empty.
//
// Shards are independent mutex-protected LRU lists, selected by key hash,
// so concurrent EstimateBatch workers rarely contend; the byte budget is
// split evenly across shards and enforced by evicting each shard's least
// recently used entries. The doorkeeper is lock-free and shared by all
// shards.
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
};

struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Offers the doorkeeper turned away: a bit of the key was not set (a
  /// first offer, or the first since the doorkeeper was last emptied).
  uint64_t refused = 0;
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

  /// Width of the departure-time bucket folded into the key. Queries in the
  /// same bucket that select the same decomposition share an entry.
  static constexpr double kTimeBucketSeconds = 300.0;

  /// Mixes every chain option that influences EstimateFromDecomposition.
  static uint64_t Fingerprint(const ChainOptions& chain);

  static Key MakeKey(const Decomposition& de, double departure_time,
                     uint64_t options_fingerprint, const ModelView& view);

  /// True when MakeKey can bucket `departure_time`: it is finite and
  /// floor(departure_time / kTimeBucketSeconds) fits int64_t. MakeKey's
  /// cast is undefined behaviour for any other departure time.
  static bool CanKeyDeparture(double departure_time);

  /// True and fills *out (a copy of the cached histogram) on a hit.
  bool Lookup(const Key& key, hist::Histogram1D* out);

  /// Offers the result for `key`. The doorkeeper admits it only on the
  /// key's second offer (see the header comment); an admitted result is
  /// inserted (or refreshes recency when present), then the owning shard
  /// is evicted down to its byte budget. Entries larger than a whole
  /// shard's budget are never admitted.
  void Insert(const Key& key, const hist::Histogram1D& result);

  QueryCacheStats stats() const;
  /// Drops every entry and empties the doorkeeper.
  void Clear();

  /// Number of doorkeeper bits: one per kDoorkeeperBytesPerBit of
  /// max_bytes, rounded up to a power of two and kept within
  /// [kMinDoorkeeperBits, kMaxDoorkeeperBits]. The table is emptied after
  /// every doorkeeper_bits() / 64 refusals, so it remembers that many
  /// first offers: one per 512 B of the budget, more keys than a budget
  /// of typical 1-2 KiB entries holds.
  size_t doorkeeper_bits() const { return 64 * doorkeeper_words_; }

  /// One doorkeeper bit per 8 B of budget: the table costs 1/64 of it.
  static constexpr size_t kDoorkeeperBytesPerBit = 8;
  static constexpr size_t kMinDoorkeeperBits = size_t{1} << 15;  // 4 KiB
  /// 1 MiB, reached at a 64 MiB budget; larger budgets, up to SIZE_MAX,
  /// share it.
  static constexpr size_t kMaxDoorkeeperBits = size_t{1} << 23;

 private:
  static uint64_t HashOf(const Key& k);
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(HashOf(k));
    }
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
  Shard& ShardFor(uint64_t hash) { return *shards_[hash & shard_mask_]; }
  void ClearDoorkeeper();

  QueryCacheOptions options_;
  size_t shard_mask_ = 0;
  size_t per_shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Doorkeeper bits, 64 to a word; a power-of-two count of words.
  std::unique_ptr<std::atomic<uint64_t>[]> doorkeeper_;
  size_t doorkeeper_words_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> refused_{0};
};

}  // namespace core
}  // namespace pcde
