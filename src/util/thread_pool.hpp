// ccmm/util/thread_pool.hpp
//
// A small fixed-size thread pool with a parallel_for helper and a
// help-first fork_join. parallel_for serves the enumeration engine and
// the constructibility fixpoint, where the work is embarrassingly
// parallel across computations in the universe; fork_join serves
// callers that fan out from many threads at once (every online
// checking session splits each fed batch over its location shards).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ccmm {

class ThreadPool {
 public:
  /// Spawn `nthreads` workers. 0 means: the CCMM_THREADS environment
  /// variable if set to an integer in [1, 1024], else
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t nthreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; tasks must not throw (std::terminate otherwise).
  /// Must not be called from one of this pool's own workers: a worker
  /// that submits and then blocks in wait_idle() (as parallel_for does)
  /// can deadlock the pool once every worker is blocked the same way.
  /// Debug builds assert on such reentrant submission instead of
  /// deadlocking silently.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Run f(i) for i in [0, n), blocking. Work-stealing schedule: workers
  /// repeatedly claim the next grain-sized index range off a shared
  /// atomic counter, so skewed per-index costs rebalance instead of
  /// serializing on the unluckiest static block. Degenerate cases (n <=
  /// 1, single-worker pools) run inline on the caller; at most min(n,
  /// size()) tasks are ever spawned, none with an empty range.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& f);

  /// Run f(i) for i in [0, n), blocking, help-first: the caller claims
  /// indices off a shared atomic counter alongside helper tasks, then
  /// waits only for the indices helpers have already claimed — never
  /// for a helper that has not started, nor for unrelated pool tasks.
  /// So it is safe from several threads at once and from inside this
  /// pool's own workers. Helpers take only idle width: with k threads
  /// already doing fork_join work (callers, this one included, plus
  /// queued or running helpers), at most min(n - 1, size() - k) are
  /// queued. With none (n <= 1, a one-worker pool, or a pool already
  /// that busy) every index runs inline and nothing is submitted. A
  /// helper that starts after the call returned finds nothing left to
  /// claim and exits; the shared job state it holds outlives the call.
  /// If f throws, the indices not yet started are skipped and the first
  /// exception is rethrown here once every started index has finished.
  void fork_join(std::size_t n, const std::function<void(std::size_t)>& f);

  /// Tasks ever queued: submit() calls plus fork_join helpers.
  [[nodiscard]] std::uint64_t submitted() const;

 private:
  void worker_loop();
  void enqueue(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  std::uint64_t submitted_ = 0;
  bool stop_ = false;
  std::atomic<std::size_t> fork_join_busy_{0};  // see fork_join
};

/// Global pool sized to the machine; lazily constructed, never destroyed
/// before main() returns.
ThreadPool& global_pool();

}  // namespace ccmm
