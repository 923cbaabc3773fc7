#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "util/check.hpp"

namespace ccmm {
namespace {

/// Worker count from the CCMM_THREADS environment variable, or 0 when
/// unset/invalid. Values outside [1, 1024] are ignored rather than
/// trusted (a typo'd export should not spawn a million threads).
std::size_t threads_from_env() {
  const char* s = std::getenv("CCMM_THREADS");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0' || v < 1 || v > 1024) return 0;
  return static_cast<std::size_t>(v);
}

/// The pool whose worker loop the current thread is running, if any.
/// Used to catch reentrant submission (see ThreadPool::submit).
thread_local const ThreadPool* tls_worker_of = nullptr;

/// One fork_join call, shared by the caller and its helper tasks. A
/// helper may start after the call returned, so it holds the job by
/// shared_ptr; `f` is dereferenced only for claimed indices, and every
/// claimed index finishes before the call returns.
struct ForkJoinJob {
  ForkJoinJob(std::size_t parts, const std::function<void(std::size_t)>& fn)
      : n(parts), f(&fn), unfinished(parts) {}

  /// Claim and run indices until none are left. After the first throw
  /// the remaining indices are claimed but skipped; the exception is
  /// kept for the caller to rethrow.
  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          (*f)(i);
        } catch (...) {
          const std::lock_guard lk(mu);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      if (unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard lk(mu);
        done.notify_one();
      }
    }
  }

  const std::size_t n;
  const std::function<void(std::size_t)>* f;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> unfinished;
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done;
  std::exception_ptr error;  // the first throw; guarded by mu
};

}  // namespace

ThreadPool::ThreadPool(std::size_t nthreads) {
  if (nthreads == 0) nthreads = threads_from_env();
  if (nthreads == 0) {
    nthreads = std::thread::hardware_concurrency();
    if (nthreads == 0) nthreads = 2;
  }
  workers_.reserve(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  // A worker submitting to its own pool and then waiting (parallel_for)
  // deadlocks once all workers block in wait_idle: the queued tasks have
  // no thread left to run on. Fail loudly in debug builds.
  CCMM_ASSERT(tls_worker_of != this);
  enqueue(std::move(task));
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard lk(mu_);
    CCMM_CHECK(!stop_, "submit after shutdown");
    tasks_.push(std::move(task));
    ++in_flight_;
    ++submitted_;
  }
  cv_task_.notify_one();
}

std::uint64_t ThreadPool::submitted() const {
  std::lock_guard lk(mu_);
  return submitted_;
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& f) {
  if (n == 0) return;
  // Degenerate shapes run inline: a single index (or a single worker)
  // gains nothing from the queue, and running on the caller avoids
  // spawning tasks whose claimed range would be empty.
  if (n == 1 || size() <= 1) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  // Work stealing by atomic chunk claiming: every task loops grabbing
  // the next `grain` indices until the counter runs past n. Fast
  // workers simply claim more chunks, so one pathologically expensive
  // index (skewed judge costs in the fixpoint engine) delays only the
  // worker that drew it. The grain targets ~8 claims per task to keep
  // counter traffic negligible while still rebalancing.
  const std::size_t ntasks = std::min(size(), n);
  const std::size_t grain = std::max<std::size_t>(1, n / (ntasks * 8));
  std::atomic<std::size_t> next{0};
  for (std::size_t t = 0; t < ntasks; ++t) {
    submit([&, n, grain] {
      for (;;) {
        const std::size_t lo = next.fetch_add(grain, std::memory_order_relaxed);
        if (lo >= n) return;
        const std::size_t hi = std::min(n, lo + grain);
        for (std::size_t i = lo; i < hi; ++i) f(i);
      }
    });
  }
  wait_idle();
}

void ThreadPool::fork_join(std::size_t n,
                           const std::function<void(std::size_t)>& f) {
  // Lend only idle width: this caller, the other fork_join callers and
  // the helpers still queued or running share size() threads, so
  // concurrent fan-outs (several sessions fed at once) never pile more
  // runnable threads onto the pool than it has workers.
  struct Release {  // this caller's share, also when f throws
    std::atomic<std::size_t>& busy;
    ~Release() { busy.fetch_sub(1, std::memory_order_relaxed); }
  } const release{fork_join_busy_};
  const std::size_t busy =
      fork_join_busy_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t helpers =
      n <= 1 || busy >= size() ? 0 : std::min(n - 1, size() - busy);
  if (helpers == 0) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  const auto job = std::make_shared<ForkJoinJob>(n, f);
  fork_join_busy_.fetch_add(helpers, std::memory_order_relaxed);
  // Helpers go through enqueue, not submit: the caller never waits for
  // a queued helper, so submitting from a worker cannot deadlock.
  for (std::size_t h = 0; h < helpers; ++h)
    enqueue([this, job] {
      job->run();
      fork_join_busy_.fetch_sub(1, std::memory_order_relaxed);
    });
  job->run();
  // Every index is claimed now; wait for the ones helpers still run.
  std::unique_lock lk(job->mu);
  job->done.wait(lk, [&] {
    return job->unfinished.load(std::memory_order_acquire) == 0;
  });
  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::worker_loop() {
  tls_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lk(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ccmm
