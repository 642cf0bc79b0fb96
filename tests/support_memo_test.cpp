// support::Memo: the serve response cache's semantics (LRU under a byte
// budget, oversized entries, byte accounting) and the derive-once contract
// the dPerf memos rely on under concurrent campaign and serve workers.
#include "support/memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pdc::support {
namespace {

using StringMemo = Memo<std::string, std::string>;

/// The serve daemon's configuration: canonical spec text -> response body,
/// each entry charged key + value bytes.
StringMemo response_cache(std::size_t budget_bytes) {
  return StringMemo{budget_bytes, [](const std::string& key, const std::string& value) {
                      return key.size() + value.size();
                    }};
}

TEST(Memo, CountsHitsAndMisses) {
  StringMemo cache = response_cache(1 << 20);
  EXPECT_FALSE(cache.find("a"));
  cache.put("a", "alpha");
  const auto hit = cache.find("a");
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, "alpha");
  const MemoCounters s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.bytes, std::string("a").size() + std::string("alpha").size());
}

TEST(Memo, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Each entry charges key (1) + value (10) = 11 bytes; budget fits two.
  StringMemo cache = response_cache(22);
  const std::string ten(10, 'x');
  cache.put("a", ten);
  cache.put("b", ten);
  ASSERT_TRUE(cache.find("a"));  // refresh a: b is now LRU
  cache.put("c", ten);           // evicts b
  EXPECT_TRUE(cache.find("a"));
  EXPECT_FALSE(cache.find("b"));
  EXPECT_TRUE(cache.find("c"));
  const MemoCounters s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, s.budget_bytes);
}

TEST(Memo, ReplacingAKeyAdjustsBytes) {
  StringMemo cache = response_cache(1 << 20);
  cache.put("k", "short");
  cache.put("k", std::string(100, 'y'));
  const MemoCounters s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 1u + 100u);
  EXPECT_EQ(cache.find("k")->size(), 100u);
}

TEST(Memo, OversizedEntriesAreNotCachedAndEvictNothing) {
  StringMemo cache = response_cache(32);
  cache.put("keep", "1234");
  cache.put("huge", std::string(1000, 'z'));  // bigger than the whole budget
  EXPECT_TRUE(cache.find("keep"));
  EXPECT_FALSE(cache.find("huge"));
  EXPECT_EQ(cache.stats().entries, 1u);
}

// Regression: replacing a resident key with a value bigger than the whole
// budget used to leave the oversized entry resident and let the eviction
// loop drain every other entry trying to make room. The replacement must
// simply drop the key (the header's oversized-entry promise) and leave the
// rest of the working set alone.
TEST(Memo, OversizedReplacementDropsKeyAndKeepsWorkingSet) {
  StringMemo cache = response_cache(32);
  cache.put("keep", "1234");          // 8 bytes
  cache.put("k", "v");                // 2 bytes
  cache.put("k", std::string(100, 'z'));  // oversized replacement
  EXPECT_FALSE(cache.find("k"));
  EXPECT_TRUE(cache.find("keep"));
  const MemoCounters s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, std::string("keep").size() + std::string("1234").size());
}

// The bytes counter must equal the byte footprint of the live entries after
// any interleaving of inserts, replacements, oversized puts and evictions —
// checked here across every transition the cache implements.
TEST(Memo, BytesMatchLiveEntriesThroughAllTransitions) {
  StringMemo cache = response_cache(40);
  const auto live_bytes = [&cache](std::initializer_list<const char*> keys) {
    std::size_t total = 0;
    for (const char* k : keys) {
      const auto v = cache.find(k);
      if (v) total += std::string(k).size() + v->size();
    }
    return total;
  };
  cache.put("a", "12345");  // 6
  cache.put("b", "12345");  // 6
  EXPECT_EQ(cache.stats().bytes, live_bytes({"a", "b"}));
  cache.put("a", std::string(12, 'x'));  // in-place growth
  EXPECT_EQ(cache.stats().bytes, live_bytes({"a", "b"}));
  cache.put("a", "1");  // in-place shrink
  EXPECT_EQ(cache.stats().bytes, live_bytes({"a", "b"}));
  cache.put("c", std::string(34, 'y'));  // forces LRU eviction
  EXPECT_EQ(cache.stats().bytes, live_bytes({"a", "b", "c"}));
  cache.put("d", std::string(64, 'z'));  // oversized insert: not cached
  EXPECT_EQ(cache.stats().bytes, live_bytes({"a", "b", "c", "d"}));
  cache.put("c", std::string(64, 'w'));  // oversized replacement: drops c
  EXPECT_EQ(cache.stats().bytes, live_bytes({"a", "b", "c", "d"}));
  EXPECT_LE(cache.stats().bytes, cache.stats().budget_bytes);
}

TEST(Memo, ZeroBudgetDisablesCaching) {
  StringMemo cache = response_cache(0);
  cache.put("a", "b");
  EXPECT_FALSE(cache.find("a"));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(Memo, ConcurrentRequestsForOneKeyDeriveOnce) {
  Memo<int, int> memo{Memo<int, int>::kUnbounded, [](const int&, const int&) { return 1; }};
  constexpr int kThreads = 8;
  std::atomic<int> derivations{0};
  std::atomic<int> arrived{0};
  std::vector<Memo<int, int>::Ptr> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ++arrived;
      while (arrived.load() < kThreads) std::this_thread::yield();
      got[static_cast<std::size_t>(i)] = memo.get(7, [&] {
        ++derivations;
        // Long enough that the other threads ask while this one derives.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return 42;
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(derivations.load(), 1);
  for (const auto& p : got) {
    ASSERT_TRUE(p);
    EXPECT_EQ(p.get(), got[0].get());  // one shared value, never a copy
    EXPECT_EQ(*p, 42);
  }
  const MemoCounters s = memo.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, kThreads - 1u);
  EXPECT_EQ(s.entries, 1u);
}

// Key A's derivation blocks until key B's derivation has started. If
// derivations ran under the memo's lock, B could not start until A
// finished and A would time out.
TEST(Memo, DistinctKeysDeriveConcurrently) {
  Memo<int, int> memo{Memo<int, int>::kUnbounded, [](const int&, const int&) { return 1; }};
  std::mutex mu;
  std::condition_variable cv;
  bool a_started = false;
  bool b_started = false;
  bool a_saw_b = false;
  std::thread a([&] {
    memo.get(1, [&] {
      std::unique_lock<std::mutex> lock(mu);
      a_started = true;
      cv.notify_all();
      a_saw_b = cv.wait_for(lock, std::chrono::seconds(10), [&] { return b_started; });
      return 1;
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return a_started; }));
  }
  memo.get(2, [&] {
    std::lock_guard<std::mutex> lock(mu);
    b_started = true;
    cv.notify_all();
    return 2;
  });
  a.join();
  EXPECT_TRUE(a_saw_b);
  EXPECT_EQ(memo.stats().entries, 2u);
}

TEST(Memo, FailedDerivationCachesNothingAndIsRetried) {
  Memo<int, int> memo{Memo<int, int>::kUnbounded, [](const int&, const int&) { return 1; }};
  EXPECT_THROW(memo.get(1, []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(memo.stats().entries, 0u);
  EXPECT_EQ(*memo.get(1, [] { return 5; }), 5);
  const MemoCounters s = memo.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 1u);
}

}  // namespace
}  // namespace pdc::support
