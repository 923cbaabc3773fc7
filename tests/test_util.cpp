#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/memo_cache.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/thread_pool.hpp"

namespace ccmm {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitIsIndependent) {
  Rng parent(5);
  Rng child = parent.split();
  // The child stream should not simply replay the parent.
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (parent.next() == child.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Format, BasicSubstitution) {
  EXPECT_EQ(format("x=%d y=%s", 42, "ok"), "x=42 y=ok");
  EXPECT_EQ(format("%u", 7u), "7");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Join, JoinsWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "n"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "100"});
  const std::string s = t.render();
  EXPECT_NE(s.find("alpha  1"), std::string::npos);
  EXPECT_NE(s.find("b      100"), std::string::npos);
}

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> n{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&n] { n.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ForkJoinSmallCountsRunInline) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  int runs = 0;
  pool.fork_join(0, [&](std::size_t) { ++runs; });
  pool.fork_join(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(pool.submitted(), 0u);
}

TEST(ThreadPool, ForkJoinMorePartsThanWorkers) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(100);
  pool.fork_join(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Helpers are capped by the pool's width (the caller takes one
  // worker's share), not by the part count.
  EXPECT_EQ(pool.submitted(), 1u);
}

TEST(ThreadPool, ForkJoinOnOneWorkerPool) {
  // The caller alone fills a one-worker pool's width: all inline.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hits(4, 0);
    pool.fork_join(hits.size(), [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++hits[i];
    });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
  EXPECT_EQ(pool.submitted(), 0u);
}

TEST(ThreadPool, ForkJoinFromConcurrentCallers) {
  // Four threads share one pool; each waits only for its own parts.
  ThreadPool pool(4);
  constexpr std::size_t kParts = 16;
  constexpr int kRounds = 100;
  std::vector<std::vector<int>> hits(4, std::vector<int>(kParts, 0));
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < hits.size(); ++t)
    callers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r)
        pool.fork_join(kParts, [&](std::size_t i) { ++hits[t][i]; });
    });
  for (std::thread& th : callers) th.join();
  for (const std::vector<int>& h : hits)
    for (const int x : h) EXPECT_EQ(x, kRounds);
}

TEST(ThreadPool, ForkJoinFromInsideAWorkerDoesNotDeadlock) {
  // Every worker of the pool calls fork_join at once: no worker is left
  // to run a queued helper, so each caller must finish its own parts.
  for (const std::size_t workers : {1u, 3u}) {
    ThreadPool pool(workers);
    std::atomic<int> total{0};
    for (std::size_t w = 0; w < workers; ++w)
      pool.submit([&] {
        pool.fork_join(8, [&](std::size_t) { total.fetch_add(1); });
      });
    pool.wait_idle();
    EXPECT_EQ(total.load(), static_cast<int>(8 * workers));
  }
}

TEST(ThreadPool, ForkJoinHelperStartingAfterReturnFindsNothing) {
  // Both workers are parked on plain tasks, so the one helper fork_join
  // queues cannot start until the call has returned; it must then find
  // nothing to claim and must not touch the caller's (dead) frame.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> parked{0};
  for (int w = 0; w < 2; ++w)
    pool.submit([&] {
      parked.fetch_add(1);
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return release; });
    });
  while (parked.load() < 2) std::this_thread::yield();
  {
    std::vector<int> hits(3, 0);
    pool.fork_join(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
  EXPECT_EQ(pool.submitted(), 3u);  // the parked tasks and one helper
  {
    const std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
}

TEST(ThreadPool, ForkJoinRethrowsOnTheCallerAndGivesBackItsWidth) {
  ThreadPool pool(4);
  for (const std::size_t bad : {0u, 5u}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.fork_join(8,
                                [&](std::size_t i) {
                                  if (i == bad)
                                    throw std::runtime_error("part failed");
                                  ran.fetch_add(1);
                                }),
                 std::runtime_error);
    EXPECT_LE(ran.load(), 7);
  }
  // The inline path (one part) throws straight through.
  EXPECT_THROW(pool.fork_join(
                   1, [](std::size_t) { throw std::runtime_error("inline"); }),
               std::runtime_error);
  // Once the helpers drained, a fan-out gets the whole width again: no
  // throwing call kept its share of the pool.
  pool.wait_idle();
  const std::uint64_t before = pool.submitted();
  std::vector<std::atomic<int>> hits(8);
  pool.fork_join(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.submitted() - before, 3u);
}

TEST(ShardedMemoCache, LookupInsertAndStats) {
  ShardedMemoCache<int> cache(4, 8);
  EXPECT_FALSE(cache.lookup("a").has_value());
  cache.insert("a", 1);
  cache.insert("b", 2);
  ASSERT_TRUE(cache.lookup("a").has_value());
  EXPECT_EQ(*cache.lookup("a"), 1);
  EXPECT_EQ(*cache.lookup("b"), 2);
  const auto s = cache.stats();
  EXPECT_EQ(s.insertions, 2u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 2u);
  cache.clear();
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ShardedMemoCache, EvictsFullShardsInsteadOfGrowing) {
  // One shard, capacity 4: the 5th insert clears the shard first.
  ShardedMemoCache<int> cache(1, 4);
  for (int i = 0; i < 5; ++i) cache.insert(std::string(1, char('a' + i)), i);
  const auto s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.entries, 4u);
  ASSERT_TRUE(cache.lookup("e").has_value());  // the newest key survives
  EXPECT_EQ(*cache.lookup("e"), 4);
}

TEST(ShardedMemoCache, ConcurrentMixedAccess) {
  ShardedMemoCache<int> cache(8, 1024);
  ThreadPool pool(4);
  pool.parallel_for(2000, [&](std::size_t i) {
    const std::string key = format("k%zu", i % 64);
    if (const auto hit = cache.lookup(key)) {
      EXPECT_EQ(*hit, static_cast<int>(i % 64));
    } else {
      cache.insert(key, static_cast<int>(i % 64));
    }
  });
  for (std::size_t k = 0; k < 64; ++k) {
    const auto hit = cache.lookup(format("k%zu", k));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, static_cast<int>(k));
  }
}

}  // namespace
}  // namespace ccmm
