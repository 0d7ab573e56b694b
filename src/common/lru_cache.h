#ifndef OLITE_COMMON_LRU_CACHE_H_
#define OLITE_COMMON_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace olite {

/// Aggregate counters of a ShardedLruCache (sum over all shards).
struct LruCacheMetrics {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// A bounded, sharded LRU map for read-mostly serving caches (the OBDA
/// plan cache): lookups and insertions take one per-shard mutex, so
/// concurrent callers with different keys rarely contend.
///
/// The caller supplies a 64-bit hash with every operation (the plan cache
/// already carries a query fingerprint hash); the hash selects the shard
/// and the full key disambiguates exactly — a hash collision can never
/// return the wrong value.
///
/// `Value` should be cheap to copy (the plan cache stores
/// `std::shared_ptr<const …>`); `Get` returns a copy so the entry can be
/// evicted concurrently without invalidating the caller's handle.
///
/// A capacity of 0 disables the cache entirely: `Get` always misses and
/// `Put` is a no-op (the miss/insertion counters stay zero too, so a
/// disabled cache reports all-zero metrics).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  /// `capacity` bounds the *total* entry count; it is split evenly across
  /// `num_shards` shards (rounded up, so the effective total can slightly
  /// exceed `capacity` when it does not divide evenly).
  explicit ShardedLruCache(size_t capacity, size_t num_shards = 8) {
    if (num_shards == 0) num_shards = 1;
    per_shard_capacity_ = capacity == 0
                              ? 0
                              : (capacity + num_shards - 1) / num_shards;
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  bool enabled() const { return per_shard_capacity_ > 0; }
  size_t num_shards() const { return shards_.size(); }

  /// The shard `hash` maps to. Uses the upper hash bits so the shard
  /// selector stays independent of the bucket index an unordered_map
  /// derives from the lower bits.
  size_t ShardOf(uint64_t hash) const {
    return (hash >> 32 ^ hash) % shards_.size();
  }

  /// Returns a copy of the cached value and refreshes its recency, or
  /// nullopt on miss.
  std::optional<Value> Get(const Key& key, uint64_t hash) {
    if (!enabled()) return std::nullopt;
    Shard& shard = *shards_[ShardOf(hash)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.hits;
    return it->second->value;
  }

  /// Inserts or refreshes `key`, evicting the shard's least-recently-used
  /// entry when the shard is full.
  void Put(const Key& key, uint64_t hash, Value value) {
    if (!enabled()) return;
    Shard& shard = *shards_[ShardOf(hash)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= per_shard_capacity_) {
      shard.index.erase(shard.lru.back().key);
      shard.lru.pop_back();
      ++shard.evictions;
    }
    shard.lru.push_front(Entry{key, std::move(value)});
    shard.index.emplace(key, shard.lru.begin());
    ++shard.insertions;
  }

  /// Copies every (key, value) pair, shard by shard (per-shard lock, most
  /// recent first within a shard). A concurrent Put/eviction can make the
  /// snapshot miss or double-see an entry — fine for the migration and
  /// diagnostics uses, which tolerate stragglers.
  std::vector<std::pair<Key, Value>> Items() const {
    std::vector<std::pair<Key, Value>> out;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (const Entry& e : shard->lru) out.emplace_back(e.key, e.value);
    }
    return out;
  }

  /// Evictions performed by one shard so far.
  uint64_t ShardEvictions(size_t shard) const {
    std::lock_guard<std::mutex> lock(shards_[shard]->mu);
    return shards_[shard]->evictions;
  }

  /// Counter totals across all shards (one lock per shard, not atomic as
  /// a whole — fine for diagnostics).
  LruCacheMetrics metrics() const {
    LruCacheMetrics m;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      m.hits += shard->hits;
      m.misses += shard->misses;
      m.insertions += shard->insertions;
      m.evictions += shard->evictions;
      m.entries += shard->lru.size();
    }
    return m;
  }

 private:
  struct Entry {
    Key key;
    Value value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  size_t per_shard_capacity_ = 0;
  /// unique_ptr so shards (with their mutexes) stay put in memory.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace olite

#endif  // OLITE_COMMON_LRU_CACHE_H_
