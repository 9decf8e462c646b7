#include "core/query_cache.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/mathutil.h"

namespace pcde {
namespace core {

namespace {

/// Fixed per-entry bookkeeping estimate: list node, map node, amortized
/// bucket-array slot.
constexpr size_t kEntryOverheadBytes = 160;

/// MakeKey's departure-time bucket index, before the cast to int64_t.
double DepartureBucket(double departure_time) {
  return std::floor(departure_time / QueryCache::kTimeBucketSeconds);
}

}  // namespace

uint64_t QueryCache::HashOf(const Key& k) {
  uint64_t h = Mix64(k.size());
  for (uint64_t v : k) h = Mix64(h ^ v);
  return h;
}

QueryCache::QueryCache(QueryCacheOptions options) : options_(options) {
  size_t shards = 1;
  while (shards < std::max<size_t>(options_.num_shards, 1)) shards <<= 1;
  options_.num_shards = shards;
  shard_mask_ = shards - 1;
  per_shard_budget_ = std::max<size_t>(options_.max_bytes / shards, 1);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_shard_budget_));
  }
  const size_t wanted_bits =
      std::min(options_.max_bytes / kDoorkeeperBytesPerBit, kMaxDoorkeeperBits);
  size_t bits = kMinDoorkeeperBits;
  while (bits < wanted_bits) bits <<= 1;
  doorkeeper_words_ = bits / 64;
  doorkeeper_ = std::make_unique<std::atomic<uint64_t>[]>(doorkeeper_words_);
}

uint64_t QueryCache::Fingerprint(const ChainOptions& chain) {
  uint64_t h = Mix64(0x9c0de);
  h = Mix64(h ^ chain.max_result_buckets);
  h = Mix64(h ^ chain.sums_per_box_cap);
  h = Mix64(h ^ chain.max_groups);
  h = Mix64(h ^ static_cast<uint64_t>(chain.force_independence));
  return h;
}

QueryCache::Key QueryCache::MakeKey(const Decomposition& de,
                                    double departure_time,
                                    uint64_t options_fingerprint,
                                    const ModelView& view) {
  Key key;
  key.reserve(3 + 2 * de.size());
  key.push_back(view.fingerprint());
  key.push_back(options_fingerprint);
  // The time bucket is strictly redundant today — the chain evaluation is a
  // pure function of (decomposition, options) — but it is kept in the key
  // deliberately: it bounds how long an entry stays addressable as traffic
  // moves through the day, and stays correct if estimation ever becomes
  // time-dependent beyond decomposition choice.
  key.push_back(static_cast<uint64_t>(static_cast<int64_t>(
      DepartureBucket(departure_time))));
  for (const DecompositionPart& part : de) {
    // Frozen variable ids, not addresses: stable across save/load, so the
    // same decomposition keys the same entry in every process serving this
    // model artifact.
    key.push_back(view.KeyId(*part.variable));
    key.push_back(part.start);
  }
  return key;
}

bool QueryCache::CanKeyDeparture(double departure_time) {
  // 2^63 is exact in a double; NaN fails both comparisons.
  constexpr double kInt64Bound = 9223372036854775808.0;
  const double bucket = DepartureBucket(departure_time);
  return bucket >= -kInt64Bound && bucket < kInt64Bound;
}

size_t QueryCache::EntryBytes(const Key& key,
                              const hist::Histogram1D& result) {
  // The key is stored twice (LRU node + index node).
  return 2 * key.size() * sizeof(uint64_t) + result.MemoryUsageBytes() +
         kEntryOverheadBytes;
}

bool QueryCache::Lookup(const Key& key, hist::Histogram1D* out) {
  Shard& shard = ShardFor(HashOf(key));
  std::shared_ptr<const hist::Histogram1D> found;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (auto* entry = shard.lru.Find(key)) found = *entry;
  }
  if (found == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  *out = *found;  // deep copy outside the shard lock
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void QueryCache::Insert(const Key& key, const hist::Histogram1D& result) {
  const size_t bytes = EntryBytes(key, result);
  if (bytes > per_shard_budget_) return;  // cannot fit even alone
  // The doorkeeper: set this key's two bits, and go on only if both were
  // set already (this key, or by chance others, offered since the table
  // was last emptied). The word comes from bits 20 and up of the hash, the
  // bit positions from its top 12 bits, the shard from its low bits.
  // Relaxed suffices: a bit only gates admission, the entry itself is
  // published under the shard lock.
  const uint64_t hash = HashOf(key);
  const uint64_t bits =
      (uint64_t{1} << (hash >> 58)) | (uint64_t{1} << ((hash >> 52) & 63));
  std::atomic<uint64_t>& word =
      doorkeeper_[(hash >> 20) & (doorkeeper_words_ - 1)];
  if ((word.fetch_or(bits, std::memory_order_relaxed) & bits) != bits) {
    // Exactly one offer reaches each multiple of the word count.
    const uint64_t refused =
        refused_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (refused % doorkeeper_words_ == 0) ClearDoorkeeper();
    return;
  }
  Shard& shard = ShardFor(hash);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // A present key means a concurrent worker inserted the same
    // (deterministic) result between our miss and this insert; Touch then
    // only refreshes recency, skipping the histogram copy entirely.
    if (shard.lru.Touch(key)) return;
    const size_t before = shard.lru.entries();
    if (!shard.lru.Insert(
            key, std::make_shared<const hist::Histogram1D>(result), bytes)) {
      return;
    }
    // The insert evicted whatever it did not add. The counter is atomic
    // because different shards evict concurrently.
    const size_t evicted = before + 1 - shard.lru.entries();
    if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

QueryCacheStats QueryCache::stats() const {
  QueryCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    s.entries += shard->lru.entries();
    s.bytes += shard->lru.bytes();
  }
  return s;
}

void QueryCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.Clear();
  }
  ClearDoorkeeper();
}

void QueryCache::ClearDoorkeeper() {
  // Offers racing with this may keep or lose their bits; either way a key
  // is at worst refused once more.
  for (size_t i = 0; i < doorkeeper_words_; ++i) {
    doorkeeper_[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace core
}  // namespace pcde
