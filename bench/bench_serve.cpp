// Microbenchmarks for ccmm_serve, the online checking service. Both
// run a real server on a unix socket and drive it through ServeClient,
// so the numbers include framing, the socket hop, and the session
// kernel — everything but the network. BM_ServeIngest is the
// throughput headline (stream a full trace, finish, and get the batch-
// identical report), compared with BM_LargeCheckLC at the same size
// and CCMM_THREADS (the target is within 1.1x). BM_ServeLatency is the
// interactive headline: the batch -> verdict round trip a client pays
// for a mid-stream answer, with p50/p99 on the row.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "exec/sc_memory.hpp"
#include "proc/random_program.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/session_kernel.hpp"
#include "trace/trace_binary.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)

#include <unistd.h>

namespace ccmm {
namespace {

struct ServeInstance {
  Computation c;
  std::vector<BinaryTraceEvent> recs;
};

ServeInstance make_serve_instance(std::size_t n) {
  Rng rng(n * 13 + 5);
  proc::RandomCilkOptions opt;
  opt.target_ops = n;
  opt.nlocations = 16;
  ServeInstance in;
  in.c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const Trace trace = run_serial(in.c, mem).trace;
  in.recs.resize(trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    in.recs[i] = BinaryTraceEvent{e.seq, e.time, e.proc, e.node,
                                  e.observed == kBottom
                                      ? 0xFFFFFFFFu
                                      : static_cast<std::uint32_t>(e.observed),
                                  0};
  }
  std::stable_sort(
      in.recs.begin(), in.recs.end(),
      [](const BinaryTraceEvent& a, const BinaryTraceEvent& b) {
        return a.seq < b.seq;
      });
  return in;
}

/// One server per benchmark, on its own socket. The kernel runs inline
/// on the readiness loop, with no channel hop; a session of 2^14 nodes
/// or more still fans each batch out to the global pool, so
/// CCMM_THREADS sets the thread count a row runs at.
struct BenchServer {
  std::string path;
  serve::Server server;

  static serve::ServerOptions make_options(const std::string& path) {
    serve::ServerOptions so;
    so.listen = "unix:" + path;
    so.shards = 1;
    so.kernel_offload = false;
    return so;
  }
  BenchServer()
      : path("/tmp/ccmm_bench_serve." + std::to_string(::getpid()) + ".sock"),
        server(make_options(path)) {
    server.start();
  }
  ~BenchServer() {
    server.stop();
    ::unlink(path.c_str());
  }
  std::string addr() const { return "unix:" + path; }
};

/// Stream the whole trace through the socket in kChunk-event frames,
/// then finish(): the wall time to a full batch-identical report.
void BM_ServeIngest(benchmark::State& state) {
  const ServeInstance in =
      make_serve_instance(static_cast<std::size_t>(state.range(0)));
  BenchServer bs;
  constexpr std::size_t kChunk = 8192;
  serve::ClientOptions copt;
  copt.session.models = kSuiteLC;
  copt.batch_events = kChunk;
  copt.flush_after_ms = 0;  // size watermark only: saturate, don't pace
  bool satisfied = false;
  double wall_s = 0.0;
  for (auto _ : state) {
    // Session setup (computation text round-trip) is untimed: the
    // batch twin BM_LargeCheckLC starts from an in-memory computation
    // too. The timed region is the service data plane — event frames
    // over the socket, the incremental kernel, and the final report.
    state.PauseTiming();
    serve::ServeClient client(bs.addr(), copt);
    client.open(in.c);
    state.ResumeTiming();
    const auto w0 = std::chrono::steady_clock::now();
    for (std::size_t at = 0; at < in.recs.size(); at += kChunk)
      client.feed(in.recs.data() + at,
                  std::min(kChunk, in.recs.size() - at));
    const LargeCheckReport r = client.finish();
    wall_s += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            w0)
                  .count();
    satisfied = r.satisfied;
    state.PauseTiming();
    client.close_session();
    state.ResumeTiming();
    benchmark::DoNotOptimize(satisfied);
  }
  const auto total = static_cast<std::int64_t>(state.iterations()) *
                     static_cast<std::int64_t>(in.recs.size());
  state.SetItemsProcessed(total);
  // Wall-clock ingest rate over the feed loop alone.
  if (wall_s > 0)
    state.counters["events_per_sec"] = static_cast<double>(total) / wall_s;
}
// Real time: the client thread mostly sleeps on the socket while the
// server works, so its CPU time would size the iteration count far
// past --benchmark_min_time.
BENCHMARK(BM_ServeIngest)->Arg(65536)->Arg(1 << 20)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// The interactive round trip: one kChunk-event batch plus a flagged
/// verdict ping, timed together — what a client pays per mid-stream
/// answer. Sessions are recycled outside the timed region when the
/// trace runs dry; p50/p99 over all round trips land on the row.
void BM_ServeLatency(benchmark::State& state) {
  const ServeInstance in =
      make_serve_instance(static_cast<std::size_t>(state.range(0)));
  BenchServer bs;
  constexpr std::size_t kChunk = 4096;
  serve::ClientOptions copt;
  copt.session.models = kSuiteLC;
  copt.batch_events = kChunk;
  copt.flush_after_ms = 0;
  serve::ServeClient client(bs.addr(), copt);
  client.open(in.c);
  std::size_t at = 0;
  std::vector<double> ms;
  for (auto _ : state) {
    if (at >= in.recs.size()) {
      state.PauseTiming();
      client.close_session();
      client.open(in.c);
      at = 0;
      state.ResumeTiming();
    }
    const auto t0 = std::chrono::steady_clock::now();
    client.feed(in.recs.data() + at, std::min(kChunk, in.recs.size() - at));
    client.flush();
    const SessionVerdict v = client.verdict();
    const auto t1 = std::chrono::steady_clock::now();
    at += kChunk;
    ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    benchmark::DoNotOptimize(v.events);
  }
  client.close_session();
  std::sort(ms.begin(), ms.end());
  if (!ms.empty()) {
    state.counters["p50_ms"] = ms[ms.size() / 2];
    state.counters["p99_ms"] = ms[ms.size() * 99 / 100];
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_ServeLatency)->Arg(1 << 20)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ccmm

#endif  // __unix__ || __APPLE__
