// One memo abstraction for every derive-once cache in the system: the
// process-wide dPerf cost-profile, trace-set and trace-summary memos behind
// scenario::Runner, and the serve daemon's canonical-spec -> response cache.
//
// Values are handed out as shared_ptr<const Value>, so a caller keeps what it
// looked up alive across a concurrent eviction and nothing is copied on a
// hit. get() derives each key exactly once: the first caller runs the
// derivation *outside* the map lock, concurrent callers of the same key wait
// for that result, and callers of other keys are never blocked behind it.
// A derivation that throws caches nothing; its waiters see the same
// exception and the next caller derives afresh.
//
// Byte accounting: every resident entry is charged weigh(key, value) bytes.
// Under a finite budget the least-recently-used entries are evicted until the
// total fits again; an entry bigger than the whole budget is never cached
// (and evicts nothing to make room). kUnbounded never evicts.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace pdc::support {

/// Point-in-time counters of one Memo.
struct MemoCounters {
  std::uint64_t hits = 0;        // lookups answered from (or waiting on) an entry
  std::uint64_t misses = 0;      // lookups that found nothing (get: derivations run)
  std::uint64_t evictions = 0;   // entries dropped to honour the budget
  std::uint64_t insertions = 0;  // new entries admitted
  std::size_t entries = 0;       // resident entries
  std::size_t bytes = 0;         // sum of weigh() over resident entries
  std::size_t budget_bytes = 0;
};

template <class Key, class Value>
class Memo {
 public:
  using Ptr = std::shared_ptr<const Value>;
  using Weigh = std::function<std::size_t(const Key&, const Value&)>;

  static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  Memo(std::size_t budget_bytes, Weigh weigh)
      : budget_(budget_bytes), weigh_(std::move(weigh)) {}

  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// The value for `key`, running `derive()` (returning a Value) on the
  /// first request only. Rethrows the derivation's exception.
  template <class Derive>
  Ptr get(const Key& key, Derive&& derive) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (auto it = map_.find(key); it != map_.end()) {
      ++hits_;
      const std::shared_ptr<Slot> slot = it->second;
      if (slot->ready) {
        lru_.splice(lru_.begin(), lru_, slot->lru);
      } else {
        derived_.wait(lock, [&slot] { return slot->ready; });
        if (slot->error) std::rethrow_exception(slot->error);
      }
      return slot->value;
    }
    ++misses_;
    const auto slot = std::make_shared<Slot>();
    map_.emplace(key, slot);
    lock.unlock();

    Ptr value;
    std::exception_ptr error;
    std::size_t bytes = 0;
    try {
      value = std::make_shared<const Value>(derive());
      bytes = weigh_(key, *value);
    } catch (...) {
      error = std::current_exception();
    }

    lock.lock();
    slot->ready = true;
    slot->value = value;
    slot->error = error;
    // put() may have replaced the pending entry meanwhile; then it stays.
    if (auto it = map_.find(key); it != map_.end() && it->second == slot) {
      if (error || bytes > budget_)
        map_.erase(it);
      else
        admit_locked(it, bytes);
    }
    lock.unlock();
    derived_.notify_all();
    if (error) std::rethrow_exception(error);
    return value;
  }

  /// Looks `key` up without deriving, counting a hit (and refreshing its LRU
  /// position) or a miss. An entry still being derived counts as a miss.
  Ptr find(const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end() || !it->second->ready) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second->lru);
    return it->second->value;
  }

  /// Inserts or replaces `key`. A value bigger than the whole budget is not
  /// cached, and replacing a resident key with one drops that key.
  void put(const Key& key, Value value) {
    const std::size_t bytes = weigh_(key, value);
    auto slot = std::make_shared<Slot>();
    slot->ready = true;
    slot->value = std::make_shared<const Value>(std::move(value));
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      const bool resident = it->second->ready;
      if (resident) {
        bytes_ -= it->second->bytes;
        lru_.erase(it->second->lru);
      }
      if (bytes > budget_) {
        if (resident) ++evictions_;
        map_.erase(it);
        return;
      }
      it->second = std::move(slot);
      link_locked(it, bytes);
      evict_to_budget_locked();
      return;
    }
    if (bytes > budget_) return;
    admit_locked(map_.emplace(key, std::move(slot)).first, bytes);
  }

  MemoCounters stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    MemoCounters s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.insertions = insertions_;
    s.entries = lru_.size();
    s.bytes = bytes_;
    s.budget_bytes = budget_;
    return s;
  }

 private:
  struct Slot;
  using Map = std::map<Key, std::shared_ptr<Slot>>;

  /// A map entry: pending while its first derivation runs, then resident
  /// (ready, charged, and linked into the LRU list).
  struct Slot {
    bool ready = false;
    Ptr value;
    std::exception_ptr error;
    std::size_t bytes = 0;
    typename std::list<typename Map::iterator>::iterator lru;
  };

  void link_locked(typename Map::iterator it, std::size_t bytes) {
    it->second->bytes = bytes;
    it->second->lru = lru_.insert(lru_.begin(), it);
    bytes_ += bytes;
  }

  void admit_locked(typename Map::iterator it, std::size_t bytes) {
    ++insertions_;
    link_locked(it, bytes);
    evict_to_budget_locked();
  }

  void evict_to_budget_locked() {
    while (bytes_ > budget_ && !lru_.empty()) {
      const typename Map::iterator victim = lru_.back();
      bytes_ -= victim->second->bytes;
      lru_.pop_back();
      map_.erase(victim);
      ++evictions_;
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable derived_;  // some pending slot became ready
  const std::size_t budget_;
  const Weigh weigh_;
  Map map_;
  std::list<typename Map::iterator> lru_;  // resident entries, front = most recent
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, insertions_ = 0;
};

}  // namespace pdc::support
