// perfbench/src/workloads.hpp
//
// The three workloads. Each generates (or reuses) its seeded inputs,
// times its set-up calls, runs its timed phase, checks every verdict
// against a known answer, and records metrics into the Result: the
// end-to-end metrics on an untraced run, the per-layer metrics (span
// self times, tracing overhead, layer counters) on a traced run.
#pragma once

#include "bench.hpp"

namespace perfbench {

void run_lint(const Options& opts, Result& result, Tracer& tracer);
void run_serve(const Options& opts, Result& result, Tracer& tracer);
void run_bounded(const Options& opts, Result& result, Tracer& tracer);

}  // namespace perfbench
