#include "bench.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "util/numa.hpp"
#include "util/resource.hpp"
#include "util/simd.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace perfbench {

namespace fs = std::filesystem;

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

// ---------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Result::fail(const std::string& why) {
  ++failed_;
  if (reported_++ < 20) std::cerr << "perfbench: FAILED: " << why << "\n";
}

bool Result::expect(bool ok, const std::string& what) {
  if (!ok) fail("wrong verdict: " + what);
  return ok;
}

void Result::note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

std::string Result::notes_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : notes_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(k) + ": " + json_string(v);
  }
  return out + "}";
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

std::int32_t Tracer::open(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.end_us = s.start_us;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  spans_.push_back(s);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index, double end_us) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us = end_us;
  // Scopes close innermost-first; pop through to the closed span.
  while (!stack_.empty()) {
    const std::int32_t top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

std::int32_t Tracer::record(const char* name, double start_us, double end_us,
                            std::int32_t parent, std::uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  s.parent = parent;
  s.request = request;
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::merge(const Tracer& other, std::int32_t parent) {
  const double shift =
      std::chrono::duration<double, std::micro>(other.epoch_ - epoch_).count();
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.start_us += shift;
    s.end_us += shift;
    s.parent = s.parent >= 0 ? s.parent + base : parent;
    spans_.push_back(s);
  }
}

double Scope::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const auto end = Clock::now();
  seconds_ = seconds_between(start_, end);
  if (index_ >= 0) tracer_.close(index_, tracer_.now_us());
  return seconds_;
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    const double self =
        std::max(0.0, spans[i].end_us - spans[i].start_us - child_us[i]);
    out[layer] += self * 1e-6;
  }
  return out;
}

double top_level_coverage(const std::vector<Span>& spans, double t0_us,
                          double t1_us) {
  if (t1_us <= t0_us) return 0.0;
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans) {
    if (s.parent >= 0) continue;
    const double a = std::max(s.start_us, t0_us);
    const double b = std::min(s.end_us, t1_us);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return covered / (t1_us - t0_us);
}

void write_spans(const std::vector<Span>& spans, const fs::path& path) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "index\tparent\trequest\tname\tstart_us\tend_us\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf, "%zu\t%d\t%llu\t%s\t%.3f\t%.3f\n", i,
                  s.parent, static_cast<unsigned long long>(s.request),
                  s.name, s.start_us, s.end_us);
    out << buf;
  }
}

void report_trace_metrics(Result& result, const Tracer& tracer,
                          double untraced_s, double traced_s,
                          double phase_t0_us, double phase_t1_us) {
  for (const auto& [layer, s] : self_seconds_by_layer(tracer.spans()))
    result.metric("self." + layer + "_s", s, "s");
  result.metric("tracing.overhead_s", traced_s - untraced_s, "s");
  result.metric("tracing.spans", static_cast<double>(tracer.spans().size()),
                "count");
  result.metric("tracing.coverage",
                top_level_coverage(tracer.spans(), phase_t0_us, phase_t1_us),
                "ratio");
}

// ---------------------------------------------------------------------
// Loops and statistics
// ---------------------------------------------------------------------

std::size_t run_for(double budget_s, std::size_t min_ops,
                    const std::function<void(std::size_t)>& op) {
  const auto t0 = Clock::now();
  std::size_t i = 0;
  while (i < min_ops || seconds_between(t0, Clock::now()) < budget_s) op(i++);
  return i;
}

TimedPhase run_timed_phase(const Options& opts, Result& result,
                           Tracer& tracer, std::size_t min_ops,
                           const std::function<void(std::size_t)>& op) {
  TimedPhase phase;
  if (!opts.trace) {
    if (!reset_peak_rss()) result.note("peak_rss", "inherited (no reset)");
    const auto t0 = Clock::now();
    phase.ops = run_for(opts.seconds, min_ops, op);
    phase.wall_s = seconds_between(t0, Clock::now());
    phase.peak_rss_mb = peak_rss_mb();
    return phase;
  }
  const auto t0 = Clock::now();
  phase.ops = run_for(opts.seconds / 2, min_ops, op);
  const double untraced_s = seconds_between(t0, Clock::now());
  tracer.set_enabled(true);
  const double t1_us = tracer.now_us();
  const auto t1 = Clock::now();
  for (std::size_t i = 0; i < phase.ops; ++i) op(i);
  phase.wall_s = seconds_between(t1, Clock::now());
  const double t2_us = tracer.now_us();
  report_trace_metrics(result, tracer, untraced_s, phase.wall_s, t1_us,
                       t2_us);
  return phase;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  if (pos == static_cast<double>(lo) || v[hi] == v[lo]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------
// Process facts
// ---------------------------------------------------------------------

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  return static_cast<double>(ccmm::current_peak_rss_bytes()) /
         (1024.0 * 1024.0);
}

namespace {

std::size_t online_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

std::string host_json() {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(colon + 2);
        break;
      }
    }
  }
  const char* threads_env = std::getenv("CCMM_THREADS");
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(online_cpus());
  out += ", \"cpu\": " + json_string(cpu);
  out += ", \"ccmm_threads\": " +
         json_string(threads_env != nullptr ? threads_env : "");
  out += ", \"simd\": " +
         json_string(ccmm::simd_level_name(ccmm::active_simd_level()));
  out += ", \"numa\": " + json_string(ccmm::numa_topology().to_string());
  out += ", \"compiler\": " + json_string(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  return out + "}";
}

// ---------------------------------------------------------------------
// Input cache
// ---------------------------------------------------------------------

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

std::string digest_files(const fs::path& dir,
                         const std::vector<std::string>& files) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const std::string& name : files) {
    const fs::path p = dir / name;
    if (!fs::is_regular_file(p)) return "";
    const std::string bytes = read_file(p);
    h = fnv1a(name.data(), name.size(), h);
    h = fnv1a(bytes.data(), bytes.size(), h);
  }
  return hex64(h);
}

constexpr std::size_t kKeepEntries = 6;

void evict_old(const fs::path& root, const fs::path& keep) {
  std::vector<std::pair<fs::file_time_type, fs::path>> entries;
  for (const auto& e : fs::directory_iterator(root))
    if (e.is_directory() && e.path() != keep)
      entries.emplace_back(fs::last_write_time(e.path()), e.path());
  if (entries.size() < kKeepEntries) return;
  std::sort(entries.begin(), entries.end());
  for (std::size_t i = 0; i + kKeepEntries - 1 < entries.size(); ++i)
    fs::remove_all(entries[i].second);
}

}  // namespace

CachedInputs cached_inputs(
    const fs::path& root, const std::string& key,
    const std::vector<std::string>& files,
    const std::function<void(const fs::path&)>& generate) {
  CachedInputs out;
  out.dir = root / key;
  const fs::path digest_path = out.dir / "DIGEST";
  if (fs::is_regular_file(digest_path)) {
    std::string recorded = read_file(digest_path);
    while (!recorded.empty() && recorded.back() == '\n') recorded.pop_back();
    const std::string actual = digest_files(out.dir, files);
    if (!actual.empty() && actual == recorded) {
      out.reused = true;
      out.digest = actual;
      fs::last_write_time(out.dir, fs::file_time_type::clock::now());
      return out;
    }
    std::cerr << "perfbench: cached inputs " << out.dir
              << " fail their digest; regenerating\n";
  }
  fs::remove_all(out.dir);
  fs::create_directories(out.dir);
  evict_old(root, out.dir);
  const auto t0 = Clock::now();
  generate(out.dir);
  out.generate_s = seconds_between(t0, Clock::now());
  out.digest = digest_files(out.dir, files);
  std::ofstream(digest_path) << out.digest << "\n";
  return out;
}

}  // namespace perfbench
