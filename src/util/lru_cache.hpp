// Least-recently-used cache.
//
// Models the timestamp caches of POET and Object-Level Trace (§1.1): those
// tools keep a bounded set of computed Fidge/Mattern vectors and recompute
// forward on miss. Intrusive list + hash map; all operations O(1) expected.
//
// CONTRACT: single-threaded. Even get() mutates the recency list, so any
// cross-thread sharing — including all-reader sharing — is a data race.
// Concurrent users wrap it in a lock or keep one instance per thread.
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/check.hpp"

namespace ct {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    CT_CHECK(capacity > 0);
  }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Returns the cached value and marks it most-recently used, or nullptr.
  Value* get(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  bool contains(const Key& key) const { return map_.count(key) != 0; }

  /// Inserts or replaces; evicts the least-recently-used entry on overflow.
  /// Returns the number of evictions performed (0 or 1).
  ///
  /// One hash lookup total: try_emplace probes and claims the slot in a
  /// single pass (the value — a list iterator — is filled in after the
  /// node exists, so the miss path never hashes twice).
  std::size_t put(const Key& key, Value value) {
    const auto [it, inserted] = map_.try_emplace(key);
    if (!inserted) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return 0;
    }
    order_.emplace_front(key, std::move(value));
    it->second = order_.begin();
    if (map_.size() <= capacity_) return 0;
    map_.erase(order_.back().first);
    order_.pop_back();
    return 1;
  }

  void clear() {
    map_.clear();
    order_.clear();
  }

 private:
  std::size_t capacity_;
  std::list<std::pair<Key, Value>> order_;
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      map_;
};

}  // namespace ct
