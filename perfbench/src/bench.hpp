// perfbench/src/bench.hpp
//
// Shared machinery of the ccmm end-to-end benchmark: run options, the
// result record (metrics + known-answer checks), the span tracer, the
// statistics helpers, honest peak-RSS accounting, the host record, and
// the seed-keyed input cache.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: report per-layer metrics from spans instead of the
  /// end-to-end metrics.
  bool trace = false;
  /// Toy input sizes (the smoke test).
  bool smoke = false;
  /// Invert each workload's known answers (self-test of the checks:
  /// the run must fail).
  bool wrong_expected = false;
  /// Inputs cache, span files and result records live here.
  std::filesystem::path work_dir = ".bench_build/perfbench-work";
};

// ---------------------------------------------------------------------
// Result: metrics plus the operation/verdict accounting of one run.
// ---------------------------------------------------------------------

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count operations attempted (checks, batches, pairs).
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// One operation errored, was refused, or returned a wrong verdict.
  void fail(const std::string& why);
  /// A verdict check against a known answer; a mismatch fails one
  /// operation. Returns ok.
  bool expect(bool ok, const std::string& what);
  /// A fact recorded with the result but not a metric (generation
  /// time, input digest, pool sizes).
  void note(const std::string& key, const std::string& value);

  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::string json() const;
  [[nodiscard]] std::string notes_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t reported_ = 0;
};

// ---------------------------------------------------------------------
// Tracing: spans around the calls into each layer, kept in memory and
// written when the run ends. One Tracer per thread.
// ---------------------------------------------------------------------

struct Span {
  const char* name = "";
  double start_us = 0.0;  // since the tracer's epoch
  double end_us = 0.0;
  std::int32_t parent = -1;  // index into the same tracer, -1 = top level
  std::uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {
    spans_.reserve(1 << 16);
  }
  [[nodiscard]] Clock::time_point epoch() const { return epoch_; }
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  /// Open a span (nested under the innermost open one); -1 when off.
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t index, double end_us);
  /// Record a span whose extent is known only afterwards (an
  /// asynchronous request); returns its index, -1 when off.
  std::int32_t record(const char* name, double start_us, double end_us,
                      std::int32_t parent, std::uint64_t request);
  [[nodiscard]] double us_at(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  /// Append another thread's spans (indices rebased); its top-level
  /// spans become children of `parent`.
  void merge(const Tracer& other, std::int32_t parent = -1);

 private:
  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Times a region always (the untraced metrics need the duration) and
/// records it as a span when the tracer is on.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer.open(name, request)),
        start_(Clock::now()) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// End the region (idempotent); returns its length in seconds.
  double stop();
  /// The span's index in its tracer, -1 when the tracer is off.
  [[nodiscard]] std::int32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

/// Self time per layer (the span name up to its first '.'), seconds:
/// each span's duration minus the part its children cover.
[[nodiscard]] std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans);
/// Share of [t0_us, t1_us] covered by the union of top-level spans.
[[nodiscard]] double top_level_coverage(const std::vector<Span>& spans,
                                        double t0_us, double t1_us);
/// Tab-separated span dump: index parent request name start_us end_us.
void write_spans(const std::vector<Span>& spans,
                 const std::filesystem::path& path);
/// The per-layer self times, the tracing overhead (traced wall minus
/// untraced wall over the same operations) and the coverage of the
/// traced phase, as metrics.
void report_trace_metrics(Result& result, const Tracer& tracer,
                          double untraced_s, double traced_s,
                          double phase_t0_us, double phase_t1_us);

// ---------------------------------------------------------------------
// Timed loops and statistics.
// ---------------------------------------------------------------------

/// Run op(i) for i = 0, 1, ... until `budget_s` has elapsed and at
/// least `min_ops` ran; returns the count.
std::size_t run_for(double budget_s, std::size_t min_ops,
                    const std::function<void(std::size_t)>& op);

/// The timed phase every batch workload shares. Untraced: reset the
/// peak-RSS mark, run op(0), op(1), ... for the budget. Traced: run the
/// operations untraced for half the budget, then the same operations
/// traced, and report the span metrics and the tracing overhead.
struct TimedPhase {
  std::size_t ops = 0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
};
TimedPhase run_timed_phase(const Options& opts, Result& result,
                           Tracer& tracer, std::size_t min_ops,
                           const std::function<void(std::size_t)>& op);

[[nodiscard]] double median(std::vector<double> v);
/// Linear interpolation between closest ranks; q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------
// Process facts.
// ---------------------------------------------------------------------

/// Reset the peak-RSS high-water mark (Linux /proc/self/clear_refs),
/// so the next peak_rss_mb() covers only what follows. False where the
/// kernel refuses; the caller records that the peak is inherited.
bool reset_peak_rss();
/// VmHWM of this process in MiB (getrusage fallback).
[[nodiscard]] double peak_rss_mb();

/// nproc, CPU model, CCMM_THREADS, SIMD level, NUMA summary, compiler,
/// build type — as a JSON object. (Pool sizes are in the run notes.)
[[nodiscard]] std::string host_json();

// ---------------------------------------------------------------------
// Input cache: generated inputs reused by (workload, size, seed) key,
// with a content digest checked on every reuse.
// ---------------------------------------------------------------------

[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t h = 0xcbf29ce484222325ull);
[[nodiscard]] std::string hex64(std::uint64_t v);

struct CachedInputs {
  std::filesystem::path dir;
  bool reused = false;
  double generate_s = 0.0;  // 0 when reused
  std::string digest;
};

/// Return the directory for `key`, generating its `files` with
/// `generate(dir)` unless a previous run left them with a matching
/// digest. Keeps the few most recent entries.
CachedInputs cached_inputs(
    const std::filesystem::path& root, const std::string& key,
    const std::vector<std::string>& files,
    const std::function<void(const std::filesystem::path&)>& generate);

}  // namespace perfbench
