// lint: `ccmm_lint instance.txt --trace t.tbin` on a wide trace (many
// locations, few events each). Each operation loads the binary trace,
// runs the full default analyze_trace pipeline (five streaming models,
// the oracle race scan, the lints, a certificate attempt), then the
// five-model verdict pass alone (large_check_trace, kLargeCheckAll). The
// traced run adds the LC check alone on nproc threads and on one.
// The trace is a serial SC execution with one planted stale read, so
// the known answer is: LC, NN, NW, WN and WW are violated on exactly
// the stale read's location and hold on every other one.
#include "analyze/passes.hpp"
#include "inputs.hpp"
#include "trace/large_check.hpp"
#include "trace/lint_pipeline.hpp"
#include "trace/trace_binary.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ccmm;

namespace {

constexpr std::uint32_t kFive =
    kSuiteLC | kSuiteNN | kSuiteNW | kSuiteWN | kSuiteWW;

/// Known answer for the `models` a report checked: each is violated on
/// the stale read's location and holds on every other one.
void expect_stale_only(const Options& opts, Result& result,
                       const LargeCheckReport& r, const StaleRead& stale,
                       std::uint32_t models, const char* what) {
  bool ok = r.valid_observer && (r.checked & models) == models &&
            (r.satisfied & models) == 0;
  bool seen = false;
  for (const LocationCheck& l : r.locations) {
    const std::uint32_t want =
        (l.loc == stale.loc) != opts.wrong_expected ? models : 0u;
    ok = ok && l.valid && (l.violated & models) == want;
    seen = seen || l.loc == stale.loc;
  }
  result.attempt();
  result.expect(ok && seen, std::string(what) +
                                ": the stale read must violate LC/NN/NW/WN/"
                                "WW on location " +
                                std::to_string(stale.loc) + " only");
}

}  // namespace

void run_lint(const Options& opts, Result& result, Tracer& tracer) {
  const std::size_t ops = opts.smoke ? std::size_t{1} << 10
                                     : std::size_t{1} << 16;
  const std::size_t locs = opts.smoke ? 64 : 1024;
  const TraceFiles in = trace_files(opts, ops, locs);
  result.note("generate_s", std::to_string(in.inputs.generate_s));
  result.note("inputs_digest", in.inputs.digest);
  result.note("inputs_reused", in.inputs.reused ? "yes" : "no");
  result.note("events", std::to_string(in.events));

  double parse_s = 0.0;
  const Computation c = parse_instance(in.instance, 11, tracer, &parse_s);
  const analyze::TraceLintOptions lint_opt;
  LargeCheckOptions all_opt;
  all_opt.models = kLargeCheckAll;
  result.note("pool_threads", std::to_string(global_pool().size()));

  std::vector<double> load_s, lint_s, all_s;
  std::vector<double> ingest_ms, group_ms, kernel_ms, report_ms, bpn;
  std::size_t diagnostics = 0;
  const TimedPhase phase =
      run_timed_phase(opts, result, tracer, 3, [&](std::size_t i) {
        Scope top(tracer, "lint.op", i);
        Trace t;
        {
          Scope s(tracer, "trace.load", i);
          t = load_trace(in.tbin, c);
          load_s.push_back(s.stop());
        }
        {
          Scope s(tracer, "analyze.trace", i);
          const analyze::TraceLintResult r =
              analyze::analyze_trace(c, t, lint_opt);
          lint_s.push_back(s.stop());
          if (!r.trace_ok || !r.report.has_value()) {
            result.attempt();
            result.fail("lint: the trace must fit the computation");
          } else {
            expect_stale_only(opts, result, *r.report, in.stale, kFive,
                              "lint analyze_trace");
          }
          diagnostics = r.diagnostics.size();
        }
        {
          Scope s(tracer, "trace.check_all", i);
          const LargeCheckReport r = large_check_trace(c, t, all_opt);
          all_s.push_back(s.stop());
          expect_stale_only(opts, result, r, in.stale, kFive,
                            "lint all-model check");
          ingest_ms.push_back(r.ingest_millis);
          group_ms.push_back(r.group_build_millis);
          kernel_ms.push_back(r.kernel_millis);
          report_ms.push_back(r.report_millis);
          bpn.push_back(r.bytes_per_node);
        }
      });

  const auto events = static_cast<double>(in.events);
  std::vector<double> op_lint, op_all;
  for (std::size_t i = 0; i < load_s.size(); ++i) {
    op_lint.push_back(load_s[i] + lint_s[i]);
    op_all.push_back(load_s[i] + all_s[i]);
  }
  if (!opts.trace) {
    result.metric("setup_s", parse_s, "s");
    result.metric("peak_rss_mb", phase.peak_rss_mb, "MB");
    result.metric("rate_per_s", events / median(op_lint), "1/s");
    result.metric("rate2_per_s", events / median(op_all), "1/s");
    result.metric("latency_ms", median(op_lint) * 1e3, "ms");
    return;
  }
  result.metric("io.read_computation_s", parse_s, "s");
  result.metric("trace.load_s", median(load_s), "s");
  result.metric("analyze.trace_s", median(lint_s), "s");
  result.metric("trace.check_all_s", median(all_s), "s");
  result.metric("trace.ingest_ms", median(ingest_ms), "ms");
  result.metric("trace.group_build_ms", median(group_ms), "ms");
  result.metric("trace.kernel_ms", median(kernel_ms), "ms");
  result.metric("trace.report_ms", median(report_ms), "ms");
  result.metric("trace.bytes_per_node", median(bpn), "B");
  result.metric("analyze.diagnostics", static_cast<double>(diagnostics),
                "count");

  // LC alone, the `ccmm_check --trace` verdict, on a pool of nproc
  // threads and on a 1-thread pool: its cost and thread speedup.
  {
    ThreadPool pool_n(0);  // CCMM_THREADS or the hardware
    ThreadPool pool_1(1);
    LargeCheckOptions lc_opt;
    lc_opt.models = kSuiteLC;
    const Trace t = load_trace(in.tbin, c);
    std::vector<double> check_s, check_1t_s;
    for (std::size_t i = 0; i < 3; ++i) {
      for (ThreadPool* pool : {&pool_n, &pool_1}) {
        lc_opt.pool = pool;
        Scope s(tracer, pool == &pool_1 ? "trace.check_1t" : "trace.check", i);
        const LargeCheckReport r = large_check_trace(c, t, lc_opt);
        (pool == &pool_1 ? check_1t_s : check_s).push_back(s.stop());
        expect_stale_only(opts, result, r, in.stale, kSuiteLC,
                          "lint LC check");
      }
    }
    result.metric("trace.check_s", median(check_s), "s");
    result.metric("trace.check_1t_s", median(check_1t_s), "s");
    result.metric("trace.thread_speedup",
                  median(check_1t_s) / median(check_s), "x");
  }

  // The race scan alone, on the same computation and options.
  analyze::AnalyzeStats stats;
  Scope s(tracer, "analyze.races");
  const auto diags = analyze::analyze_computation(c, lint_opt.analysis, &stats);
  result.metric("analyze.races_s", s.stop(), "s");
  result.metric("analyze.race_diagnostics", static_cast<double>(diags.size()),
                "count");
  result.metric("analyze.races", static_cast<double>(stats.races), "count");
}

}  // namespace perfbench
