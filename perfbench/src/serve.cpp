// serve: the ccmm_serve daemon with its default options (1 shard,
// kernel offload on), in-process on a unix socket. Four connections,
// driven by two generator threads, each stream a 16-location SC trace
// in fixed-size batches, every batch flagged for a verdict reply; one
// of the four traces carries a planted stale read. The generators speak
// the wire protocol directly (serve/protocol.hpp) so that one thread
// keeps batches in flight on two connections at once.
//
// Untraced run, on one set of sessions:
//  * latency: open loop at a fixed total offered rate, in four windows.
//    Each batch has a due time and is sent then, whatever is still in
//    flight; latency runs from the due time to the verdict reply.
//  * ingest: after each window a closed-loop round, each connection
//    sending its next batch when the previous verdict arrives; the rate
//    follows from the median round trip.
//  * after each round, a slice of the clean stream fed to each of four
//    in-process CheckSessions on four threads (the kernel without the
//    socket).
// Then the rest of each stream is sent and every session finished; the
// final reports are checked against the known answers.
//
// A traced run keeps one latency window of all its batches, then runs a
// closed-loop round untraced and the same round traced (the tracing
// overhead and span coverage), then the max-rate search: from the
// ingest rate, the highest offered rate whose p90 latency stays within
// 10 ms with no growing generator lag (5% resolution). Last, the
// in-process session is fed the whole clean stream, traced.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include "inputs.hpp"
#include "io/text.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/session_kernel.hpp"
#include "util/net.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ccmm;
using serve::FrameHeader;
using serve::FrameType;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kGenerators = 2;
constexpr double kLatencyLimitMs = 10.0;
constexpr double kLagGrowthLimitMs = 5.0;
constexpr double kSearchStep = 1.25;
constexpr double kSearchResolution = 1.05;
constexpr std::uint64_t kMaxFrame = std::uint64_t{1} << 30;

struct Sizes {
  std::size_t ops;           // random_cilk target_ops of the computation
  std::size_t batch;         // events per batch
  double base_rate;          // offered events/s of the latency phase
  std::size_t latency_batches;  // per connection, latency phase
  std::size_t windows;          // latency windows, an ingest round after each
  std::size_t ingest_batches;   // per connection and ingest round
  std::size_t probe_batches;    // per connection and probe
  std::size_t max_probes;       // probe attempts, retries included
};

Sizes sizes_for(const Options& opts) {
  if (opts.smoke) return {std::size_t{1} << 13, 256, 200'000.0, 8, 2, 4, 3, 3};
  return {5 * (std::size_t{1} << 18), 4096, 500'000.0, 100, 4, 60, 16, 12};
}

/// One client connection and its session.
class Conn {
 public:
  explicit Conn(const std::string& addr)
      : fd_(net::connect_to(net::Addr::parse(addr))) {}
  [[nodiscard]] int fd() const { return fd_.get(); }

  void send(FrameType type, std::uint8_t flags, const void* payload,
            std::size_t size) {
    serve::write_frame(fd_.get(), type, flags, payload, size);
  }
  /// Next reply; kError frames are returned, not thrown.
  FrameHeader read(std::vector<unsigned char>& payload) {
    FrameHeader h;
    if (!serve::read_frame(fd_.get(), h, payload, kMaxFrame))
      throw net::NetError("server closed the connection");
    return h;
  }
  FrameHeader call(FrameType type, const void* payload, std::size_t size,
                   std::vector<unsigned char>& reply) {
    send(type, 0, payload, size);
    return read(reply);
  }

 private:
  net::Fd fd_;
};

std::string error_text(const std::vector<unsigned char>& payload) {
  return std::string(payload.begin(), payload.end());
}

struct Stream {
  const std::vector<BinaryTraceEvent>* recs = nullptr;
  bool planted = false;
  std::size_t stale_batch = 0;
  std::unique_ptr<Conn> conn;
  std::size_t next = 0;  // next batch to send
  bool broken = false;
  [[nodiscard]] std::size_t batches(std::size_t batch) const {
    return (recs->size() + batch - 1) / batch;
  }
};

struct Sample {
  double due_s = 0.0;  // since the phase start
  double latency_ms = INFINITY;
  double lag_ms = 0.0;
  double send_us = 0.0;
  double wait_us = 0.0;
  bool ok = false;
};

struct Phase {
  std::vector<Sample> samples;
  std::vector<std::string> errors;
  double wall_s = 0.0;
  std::size_t events = 0;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

/// Known answers for a verdict after batch j: an SC prefix is in LC, so
/// no violation may be certain; past the stale read LC may (not must)
/// already be known violated, and nothing else was requested.
bool verdict_ok(const Stream& s, std::size_t j, std::size_t batch,
                const SessionVerdict& v, bool wrong_expected) {
  const std::size_t end = std::min((j + 1) * batch, s.recs->size());
  if (!v.valid || v.events != end) return false;
  if (s.planted && j >= s.stale_batch) return (v.violated & ~kSuiteLC) == 0;
  return (v.violated == 0) != wrong_expected;
}

/// One phase: `nbatches` per connection, open loop at `total_rate`
/// events/s (0 = closed loop). Generator thread g drives connections
/// g, g + kGenerators, ...
Phase run_phase(std::vector<Stream>& streams, const Sizes& sz,
                double total_rate, std::size_t nbatches, bool wrong_expected,
                std::vector<Tracer>& tracers) {
  std::vector<Phase> parts(kGenerators);
  const bool open_loop = total_rate > 0;
  // An open loop starts slightly in the future so every thread sees
  // the same first due time.
  const auto t0 =
      Clock::now() + std::chrono::milliseconds(open_loop ? 2 : 0);
  const double period_s =
      open_loop ? static_cast<double>(sz.batch * kConnections) / total_rate
                : 0.0;

  auto drive = [&](std::size_t g) {
    Phase& part = parts[g];
    Tracer& tracer = tracers[g];
    struct InFlight {
      std::size_t batch;
      Clock::time_point due, sent, sent_end;
    };
    struct Mine {
      Stream* s;
      std::size_t index;  // connection number
      std::size_t sent = 0;
      std::deque<InFlight> inflight;
    };
    std::vector<Mine> mine;
    for (std::size_t k = g; k < streams.size(); k += kGenerators)
      mine.push_back(Mine{&streams[k], k, 0, {}});
    // Connections are staggered across the period.
    auto due_of = [&](const Mine& m) {
      const double at = (static_cast<double>(m.sent) +
                         static_cast<double>(m.index) / kConnections) *
                        period_s;
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(at));
    };
    auto give_up = [&](Mine& m, const std::string& why) {
      m.s->broken = true;
      part.errors.push_back(why);
      // Everything in flight or unsent on this connection is lost.
      const std::size_t lost = m.inflight.size() + (nbatches - m.sent);
      for (std::size_t k = 0; k < lost; ++k) part.samples.push_back(Sample{});
      m.inflight.clear();
      m.sent = nbatches;
    };
    std::vector<unsigned char> payload;
    std::vector<pollfd> fds;
    std::vector<Mine*> polled;
    for (;;) {
      const auto now = Clock::now();
      std::optional<Clock::time_point> next_due;
      for (Mine& m : mine) {
        while (m.sent < nbatches && !m.s->broken) {
          const auto due = open_loop ? due_of(m) : now;
          if (open_loop ? due > now : !m.inflight.empty()) {
            if (open_loop) next_due = std::min(next_due.value_or(due), due);
            break;
          }
          Stream& s = *m.s;
          const std::size_t j = s.next++;
          const std::size_t begin = j * sz.batch;
          const std::size_t count = std::min(sz.batch, s.recs->size() - begin);
          InFlight f{j, due, Clock::now(), {}};
          try {
            s.conn->send(FrameType::kEvents, serve::kFlagWantVerdict,
                         s.recs->data() + begin,
                         count * sizeof(BinaryTraceEvent));
          } catch (const std::exception& e) {
            give_up(m, std::string("batch refused: ") + e.what());
            break;
          }
          f.sent_end = Clock::now();
          part.events += count;
          m.inflight.push_back(f);
          ++m.sent;
        }
      }
      fds.clear();
      polled.clear();
      for (Mine& m : mine)
        if (!m.inflight.empty()) {
          fds.push_back(pollfd{m.s->conn->fd(), POLLIN, 0});
          polled.push_back(&m);
        }
      if (fds.empty() && !next_due) break;
      // Wait for a reply or the next due time, whichever comes first.
      timespec timeout{};
      if (next_due) {
        const auto wait = std::max(Clock::duration::zero(),
                                   *next_due - Clock::now());
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
        timeout.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
        timeout.tv_nsec = static_cast<long>(ns % 1'000'000'000);
      }
      if (::ppoll(fds.data(), fds.size(), next_due ? &timeout : nullptr,
                  nullptr) < 0 &&
          errno != EINTR)
        throw std::runtime_error("poll failed");
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Mine& m = *polled[i];
        const InFlight f = m.inflight.front();
        m.inflight.pop_front();
        Sample smp;
        smp.due_s = seconds_between(t0, f.due);
        smp.lag_ms = std::max(0.0, ms_between(f.due, f.sent));
        smp.send_us = seconds_between(f.sent, f.sent_end) * 1e6;
        try {
          const FrameHeader h = m.s->conn->read(payload);
          const auto done = Clock::now();
          smp.wait_us = seconds_between(f.sent_end, done) * 1e6;
          if (h.type != FrameType::kVerdict) {
            part.samples.push_back(smp);
            give_up(m, "batch " + std::to_string(f.batch) +
                           " refused: " + error_text(payload));
            continue;
          }
          const SessionVerdict v =
              serve::decode_verdict(payload.data(), payload.size());
          smp.ok = verdict_ok(*m.s, f.batch, sz.batch, v, wrong_expected);
          if (!smp.ok)
            part.errors.push_back("wrong verdict after batch " +
                                  std::to_string(f.batch) + " (violated=" +
                                  std::to_string(v.violated) + ")");
          smp.latency_ms = ms_between(f.due, done);
          const std::uint64_t request = m.index * 1'000'000 + f.batch;
          const std::int32_t top = tracer.record(
              "serve.batch", tracer.us_at(f.sent), tracer.us_at(done), -1,
              request);
          tracer.record("serve.send", tracer.us_at(f.sent),
                        tracer.us_at(f.sent_end), top, request);
          tracer.record("serve.verdict_wait", tracer.us_at(f.sent_end),
                        tracer.us_at(done), top, request);
        } catch (const std::exception& e) {
          part.samples.push_back(smp);
          give_up(m, std::string("connection lost: ") + e.what());
          continue;
        }
        part.samples.push_back(smp);
      }
    }
  };
  std::vector<std::thread> threads;
  std::vector<std::string> crashes(kGenerators);
  for (std::size_t g = 0; g < kGenerators; ++g)
    threads.emplace_back([&, g] {
      try {
        drive(g);
      } catch (const std::exception& e) {
        crashes[g] = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  Phase out;
  out.wall_s = seconds_between(t0, Clock::now());
  for (std::size_t g = 0; g < kGenerators; ++g) {
    Phase& p = parts[g];
    out.samples.insert(out.samples.end(), p.samples.begin(), p.samples.end());
    out.errors.insert(out.errors.end(), p.errors.begin(), p.errors.end());
    out.events += p.events;
    if (!crashes[g].empty()) out.errors.push_back("generator: " + crashes[g]);
  }
  return out;
}

std::vector<double> latencies(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(s.ok ? s.latency_ms : INFINITY);
  return v;
}

/// Median lag of the last quarter of batches (by due time) minus that
/// of the first quarter.
double lag_growth_ms(const Phase& p) {
  std::vector<Sample> s = p.samples;
  std::sort(s.begin(), s.end(),
            [](const Sample& a, const Sample& b) { return a.due_s < b.due_s; });
  const std::size_t q = std::max<std::size_t>(1, s.size() / 4);
  std::vector<double> first, last;
  for (std::size_t i = 0; i < q && i < s.size(); ++i) {
    first.push_back(s[i].lag_ms);
    last.push_back(s[s.size() - 1 - i].lag_ms);
  }
  return median(last) - median(first);
}

bool meets_limit(const Phase& p) {
  return p.errors.empty() &&
         quantile(latencies(p.samples), 0.9) <= kLatencyLimitMs &&
         lag_growth_ms(p) <= kLagGrowthLimitMs;
}

void account(Result& result, const Phase& p) {
  result.attempt(p.samples.size());
  for (const std::string& e : p.errors) result.fail("serve: " + e);
}

std::size_t remaining(const std::vector<Stream>& streams, std::size_t batch) {
  std::size_t r = SIZE_MAX;
  for (const Stream& s : streams) r = std::min(r, s.batches(batch) - s.next);
  return r;
}

struct StatsSnapshot {
  std::uint64_t batches, verdicts, throttles, stream_rejects;
};

StatsSnapshot snapshot(const serve::Server& server) {
  const serve::ServerStats& s = server.stats();
  return {s.batches.load(), s.verdicts.load(), s.throttles.load(),
          s.stream_rejects.load()};
}

/// Finish every session and check the final report: a clean stream is
/// in LC everywhere; the planted one violates LC on the stale read's
/// location only.
void finish_streams(std::vector<Stream>& streams, const StaleRead& stale,
                    bool wrong_expected, Result& result) {
  std::vector<unsigned char> reply;
  for (Stream& s : streams) {
    result.attempt();
    if (s.broken) {
      result.fail("serve: session lost before finish");
      continue;
    }
    try {
      const FrameHeader h = s.conn->call(FrameType::kFinish, nullptr, 0, reply);
      if (h.type != FrameType::kReport) {
        result.fail("serve: finish refused: " + error_text(reply));
        continue;
      }
      const LargeCheckReport r =
          serve::decode_report(reply.data(), reply.size());
      bool ok = r.valid_observer;
      for (const LocationCheck& l : r.locations) {
        const bool stale_here = s.planted && l.loc == stale.loc;
        ok = ok && l.valid &&
             (l.violated & kSuiteLC) == (stale_here ? kSuiteLC : 0u);
      }
      ok = ok && r.in_model(kSuiteLC) == !s.planted;
      result.expect(ok != wrong_expected,
                    s.planted ? "serve: the stale read must violate LC on "
                                "its location only"
                              : "serve: an SC trace must be in LC");
      s.conn->send(FrameType::kClose, 0, nullptr, 0);
    } catch (const std::exception& e) {
      result.fail(std::string("serve: finish failed: ") + e.what());
    }
  }
}

/// The kernel alone: an in-process CheckSession fed the clean stream
/// batch by batch, each feed followed by a fast verdict.
class LocalSession {
 public:
  LocalSession(const Computation& c,
               const std::vector<BinaryTraceEvent>& recs, std::size_t batch,
               Tracer& tracer)
      : recs_(recs), batch_(batch), tracer_(tracer) {
    Scope s(tracer_, "session.open");
    session_ = std::make_unique<CheckSession>(c);
    open_s = s.stop();
  }

  /// Feed the next `n` batches (fewer at the end of the stream).
  void feed(std::size_t n) {
    for (; n > 0 && next_ < recs_.size(); --n, next_ += batch_) {
      const std::size_t count = std::min(batch_, recs_.size() - next_);
      const std::uint64_t request = next_ / batch_;
      double seconds = 0.0;
      {
        Scope s(tracer_, "session.feed", request);
        session_->feed(recs_.data() + next_, count);
        seconds = s.stop();
        feed_us.push_back(seconds * 1e6);
      }
      Scope s(tracer_, "session.fast_verdict", request);
      const SessionVerdict v = session_->fast_verdict();
      verdict_us.push_back(s.stop() * 1e6);
      seconds += verdict_us.back() * 1e-6;
      batch_eps.push_back(static_cast<double>(count) / seconds);
      clean_ = clean_ && v.valid && v.violated == 0;
    }
  }

  /// Feed the rest and finish; known answer: an SC trace is in LC.
  void finish(const Options& opts, Result& result) {
    feed(SIZE_MAX);
    Scope s(tracer_, "session.finish");
    const LargeCheckReport r = session_->finish();
    finish_s = s.stop();
    result.attempt();
    result.expect((clean_ && r.valid_observer && r.in_model(kSuiteLC)) !=
                      opts.wrong_expected,
                  "in-process session: SC trace must be in LC");
  }

  [[nodiscard]] std::size_t batches() const {
    return (recs_.size() + batch_ - 1) / batch_;
  }

  double open_s = 0.0;
  double finish_s = 0.0;
  std::vector<double> feed_us, verdict_us, batch_eps;

 private:
  const std::vector<BinaryTraceEvent>& recs_;
  std::size_t batch_;
  Tracer& tracer_;
  std::unique_ptr<CheckSession> session_;
  std::size_t next_ = 0;
  bool clean_ = true;
};

/// Geometric search for the highest offered rate meeting the latency
/// limit. The closed-loop ingest rate is the server's capacity, so the
/// search starts there: it climbs by kSearchStep while probes pass, or
/// descends by kSearchStep until one passes, then bisects the bracket to
/// 5%. A probe that misses the limit is tried once more before it
/// counts. The result is interpolated inside the final bracket [lo, hi]
/// where the p90 latency crosses the limit, so it is not a grid point;
/// 0 when no probe passed.
double max_rate_search(std::vector<Stream>& streams, const Sizes& sz,
                       double ingest_eps, const Options& opts,
                       Result& result, std::vector<Tracer>& tracers) {
  std::size_t attempts = 0;
  auto can_probe = [&] {
    return attempts < sz.max_probes &&
           remaining(streams, sz.batch) >= sz.probe_batches;
  };
  double p90_at = INFINITY;  // p90 of the last probe (best attempt)
  auto passes = [&](double rate) {
    p90_at = INFINITY;
    for (int tries = 0; tries < 2 && can_probe(); ++tries) {
      ++attempts;
      const Phase p = run_phase(streams, sz, rate, sz.probe_batches,
                                opts.wrong_expected, tracers);
      account(result, p);
      p90_at = std::min(p90_at, quantile(latencies(p.samples), 0.9));
      if (meets_limit(p)) return true;
    }
    return false;
  };
  double lo = 0.0, hi = 0.0, lo_p90 = 0.0, hi_p90 = INFINITY;
  const bool climb = passes(ingest_eps);
  (climb ? lo : hi) = ingest_eps;
  (climb ? lo_p90 : hi_p90) = p90_at;
  for (double rate = ingest_eps; (lo == 0.0 || hi == 0.0) && can_probe();) {
    rate = climb ? rate * kSearchStep : rate / kSearchStep;
    const bool pass = passes(rate);
    (pass ? lo : hi) = rate;
    (pass ? lo_p90 : hi_p90) = p90_at;
  }
  while (lo > 0 && hi > 0 && hi / lo > kSearchResolution && can_probe()) {
    const double mid = std::sqrt(lo * hi);
    if (passes(mid)) {
      lo = mid;
      lo_p90 = p90_at;
    } else {
      hi = mid;
      hi_p90 = p90_at;
    }
  }
  result.note("search_attempts", std::to_string(attempts));
  if (lo > 0 && hi > 0 && std::isfinite(hi_p90) &&
      hi_p90 > kLatencyLimitMs && hi_p90 > lo_p90) {
    const double t = std::clamp(
        (kLatencyLimitMs - lo_p90) / (hi_p90 - lo_p90), 0.0, 1.0);
    return lo * std::pow(hi / lo, t);
  }
  return lo;
}

}  // namespace

void run_serve(const Options& opts, Result& result, Tracer& tracer) {
  const Sizes sz = sizes_for(opts);
  std::signal(SIGPIPE, SIG_IGN);  // a dead server is EPIPE, not a kill

  // Inputs: one computation shared by the four connections (its open
  // request is rendered once), its serial SC trace, and a copy with a
  // planted stale read.
  const auto g0 = Clock::now();
  Rng rng(opts.seed * 0x9e3779b97f4a7c15ull + sz.ops * 31 + 16);
  const Computation c = make_cilk(sz.ops, 16, rng);
  Trace trace = sc_trace(c);
  const std::vector<BinaryTraceEvent> clean = to_records(trace);
  const StaleRead stale = plant_stale_read(c, trace, rng);
  const std::vector<BinaryTraceEvent> planted = to_records(trace);
  trace = Trace();
  serve::OpenRequest open_req;
  open_req.computation_text = io::write_computation(c);
  const std::string open_payload = serve::encode_open(open_req);
  open_req = serve::OpenRequest();
  std::uint64_t digest = digest_computation(c, fnv1a(nullptr, 0));
  digest = digest_records(planted, digest_records(clean, digest));
  result.note("generate_s", std::to_string(seconds_between(g0, Clock::now())));
  result.note("inputs_digest", hex64(digest));
  result.note("events", std::to_string(clean.size() * kConnections));

  // Set-up: server start and one session open per connection.
  const std::string path =
      (opts.work_dir / ("serve-" + std::to_string(::getpid()) + ".sock"))
          .string();
  const std::string addr = "unix:" + path;
  serve::ServerOptions so;
  so.listen = addr;
  auto server = std::make_unique<serve::Server>(so);
  double start_s = 0.0;
  {
    Scope s(tracer, "serve.start");
    server->start();
    start_s = s.stop();
  }
  std::vector<Stream> streams(kConnections);
  std::vector<double> open_s;
  std::vector<unsigned char> reply;
  for (std::size_t k = 0; k < kConnections; ++k) {
    Stream& s = streams[k];
    s.planted = k + 1 == kConnections;
    s.recs = s.planted ? &planted : &clean;
    s.stale_batch = stale.position / sz.batch;
    Scope sc(tracer, "serve.open", k);
    s.conn = std::make_unique<Conn>(addr);
    const FrameHeader h = s.conn->call(FrameType::kOpen, open_payload.data(),
                                       open_payload.size(), reply);
    if (h.type != FrameType::kOpened)
      throw std::runtime_error("open refused: " + error_text(reply));
    open_s.push_back(sc.stop());
  }

  std::vector<Tracer> tracers;
  for (std::size_t g = 0; g < kGenerators; ++g)
    tracers.emplace_back(tracer.epoch());
  const StatsSnapshot before = snapshot(*server);

  if (!opts.trace) {
    // The in-process sessions are opened before the timed phase, one per
    // connection, and fed on as many threads at once: one thread would
    // measure only the vCPU it happens to run on, which other tenants
    // of the host may be slowing for seconds at a time.
    std::vector<std::unique_ptr<LocalSession>> locals;
    for (std::size_t k = 0; k < kConnections; ++k)
      locals.push_back(
          std::make_unique<LocalSession>(c, clean, sz.batch, tracer));
    if (!reset_peak_rss()) result.note("peak_rss", "inherited (no reset)");
    // Latency windows at the base rate alternate with closed-loop ingest
    // rounds and slices of the in-process sessions, so the samples of
    // each spread over the run.
    // Closed loop: one batch in flight per connection, so by Little's
    // law the rate is connections x batch / mean round trip. The median
    // round trip of all ingest batches stands in for the mean, so that
    // a short stall of the host over a few batches does not move it.
    std::vector<double> latency_ms, round_trip_s;
    const std::size_t local_slice =
        (locals.front()->batches() + sz.windows - 1) / sz.windows;
    for (std::size_t w = 0; w < sz.windows; ++w) {
      const Phase window =
          run_phase(streams, sz, sz.base_rate, sz.latency_batches / sz.windows,
                    opts.wrong_expected, tracers);
      account(result, window);
      const std::vector<double> lat = latencies(window.samples);
      latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
      const Phase ingest = run_phase(streams, sz, 0.0, sz.ingest_batches,
                                     opts.wrong_expected, tracers);
      account(result, ingest);
      for (const Sample& smp : ingest.samples)
        round_trip_s.push_back((smp.send_us + smp.wait_us) * 1e-6);
      std::vector<std::thread> feeders;
      for (auto& local : locals)
        feeders.emplace_back([&local, local_slice] { local->feed(local_slice); });
      for (std::thread& t : feeders) t.join();
    }
    std::vector<double> session_eps;
    for (auto& local : locals) {
      local->finish(opts, result);
      session_eps.insert(session_eps.end(), local->batch_eps.begin(),
                         local->batch_eps.end());
    }
    const double ingest_eps = static_cast<double>(kConnections * sz.batch) /
                              median(round_trip_s);
    const double peak = peak_rss_mb();
    result.metric("setup_s",
                  start_s + static_cast<double>(kConnections) * median(open_s),
                  "s");
    result.metric("peak_rss_mb", peak, "MB");
    result.metric("rate_per_s", ingest_eps, "1/s");
    result.metric("rate2_per_s", median(session_eps), "1/s");
    result.metric("latency_ms", median(latency_ms), "ms");
  } else {
    // Open loop at the base rate: the latency quantiles and the cost of
    // one batch at that rate. The generators idle between due times by
    // design, so spans could not account for this phase's wall time.
    const Phase open = run_phase(streams, sz, sz.base_rate,
                                 sz.latency_batches, opts.wrong_expected,
                                 tracers);
    account(result, open);
    // Closed loop over one ingest round, untraced and then traced: the
    // tracing overhead, and a traced phase in which every connection
    // always has a batch in flight, so its top-level serve.batch spans
    // cover the wall time.
    const Phase untraced = run_phase(streams, sz, 0.0, sz.ingest_batches,
                                     opts.wrong_expected, tracers);
    account(result, untraced);
    for (Tracer& t : tracers) t.set_enabled(true);
    const double t1_us = tracer.now_us();
    const Phase traced = run_phase(streams, sz, 0.0, sz.ingest_batches,
                                   opts.wrong_expected, tracers);
    const double t2_us = tracer.now_us();
    account(result, traced);
    for (Tracer& t : tracers) {
      t.set_enabled(false);
      tracer.merge(t);
    }
    report_trace_metrics(result, tracer, untraced.wall_s, traced.wall_s,
                         t1_us, t2_us);

    std::vector<double> send_us, wait_us, rt_us, lag_ms, closed_rt_s;
    for (const Sample& s : open.samples) {
      send_us.push_back(s.send_us);
      wait_us.push_back(s.wait_us);
      rt_us.push_back(s.send_us + s.wait_us);
      lag_ms.push_back(s.lag_ms);
    }
    for (const Sample& s : untraced.samples)
      closed_rt_s.push_back((s.send_us + s.wait_us) * 1e-6);
    const std::vector<double> lat_ms = latencies(open.samples);
    result.metric("serve.start_s", start_s, "s");
    result.metric("serve.open_s", median(open_s), "s");
    result.metric("serve.send_us", median(send_us), "us");
    result.metric("serve.verdict_wait_us", median(wait_us), "us");
    result.metric("serve.generator_lag_ms", quantile(lag_ms, 0.9), "ms");
    result.metric("serve.latency_p50_ms", median(lat_ms), "ms");
    result.metric("serve.latency_p90_ms", quantile(lat_ms, 0.9), "ms");
    // The search probes run untraced, after the traced phase.
    const double ingest_eps = static_cast<double>(kConnections * sz.batch) /
                              median(closed_rt_s);
    result.metric("serve.max_rate_eps",
                  max_rate_search(streams, sz, ingest_eps, opts, result,
                                  tracers),
                  "1/s");

    // The kernel alone, traced.
    tracer.set_enabled(true);
    LocalSession local(c, clean, sz.batch, tracer);
    local.finish(opts, result);
    tracer.set_enabled(false);
    result.metric("session.open_s", local.open_s, "s");
    result.metric("session.feed_us", median(local.feed_us), "us");
    result.metric("session.fast_verdict_us", median(local.verdict_us), "us");
    result.metric("session.finish_ms", local.finish_s * 1e3, "ms");
    result.metric("serve.overhead_us", median(rt_us) - median(local.feed_us),
                  "us");
  }

  const StatsSnapshot after = snapshot(*server);
  result.metric("serve.batches",
                static_cast<double>(after.batches - before.batches), "count");
  result.metric("serve.verdicts",
                static_cast<double>(after.verdicts - before.verdicts), "count");
  result.metric("serve.throttles",
                static_cast<double>(after.throttles - before.throttles),
                "count");
  result.metric("serve.stream_rejects",
                static_cast<double>(after.stream_rejects -
                                    before.stream_rejects),
                "count");

  // Send the rest of every stream, then check each final report.
  account(result, run_phase(streams, sz, 0.0, remaining(streams, sz.batch),
                            opts.wrong_expected, tracers));
  finish_streams(streams, stale, opts.wrong_expected, result);
  for (Stream& s : streams) s.conn.reset();
  server->stop();
  server.reset();
  ::unlink(path.c_str());
}

}  // namespace perfbench
