// ccmm/serve/server.hpp
//
// ccmm_serve: the online checking daemon. Many concurrent clients
// stream binary trace events over unix/tcp sockets (serve/protocol.hpp
// frames); each session runs a CheckSession — the incremental
// per-location kernel — and gets verdicts in milliseconds without the
// server ever re-scanning a prefix.
//
// Threading model (the perf core of the design):
//
//   acceptor ──fd──▶ shard 0: readiness loop (epoll) ──▶ kernel thread
//                    shard 1: readiness loop         ──▶ kernel thread
//                    …
//
//   * The acceptor hands each connection to the least-loaded shard.
//   * A shard's readiness loop only parses frames and writes control
//     replies; every session-mutating frame (open/events/check/…)
//     becomes a task on the shard's FIFO BoundedChannel, so per-
//     session operations are applied in arrival order.
//   * The shard's kernel thread drains the channel and runs the
//     CheckSession work. It is NUMA-pinned per plan_shard_placement(),
//     and sessions are CONSTRUCTED on it. A session of 2^14 nodes or
//     more splits its locations over several location shards, and each
//     event batch fans out from the kernel thread to global_pool(): the
//     kernel thread validates the batch, then fills columns and
//     advances states alongside the pool's workers (help-first, so
//     several kernel threads can share the pool). CCMM_THREADS caps
//     the pool and with it the fan-out.
//   * Backpressure: a session may have at most max_pending_batches
//     event batches in flight. At the cap the shard stops parsing that
//     connection and drops its read interest — bytes pile up in the
//     socket buffer, and kernel flow control (TCP window / unix buffer
//     limits) pushes back on the client's write() — then re-arms when
//     the kernel thread drains the session below the cap.
//
// With shards=1 and kernel_offload=false the event loop runs the
// kernel work inline, with no channel hop; large sessions still fan
// each batch out to the global pool. CCMM_THREADS=1 as well makes the
// whole event path one thread — the honest configuration for a 1-core
// host, with no queueing and no context switches.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"

namespace ccmm::serve {

struct ServerOptions {
  /// "unix:/path" or "tcp:host:port" (net::Addr grammar).
  std::string listen = "unix:/tmp/ccmm_serve.sock";
  /// Event-loop/kernel thread pairs. 0 = one per NUMA node.
  std::size_t shards = 1;
  /// False: run kernel work inline on the readiness loop (1-core mode).
  bool kernel_offload = true;
  /// Per-session in-flight event-batch cap (the backpressure knob).
  std::size_t max_pending_batches = 8;
  /// Largest accepted frame payload.
  std::uint64_t max_frame_bytes = std::uint64_t{1} << 30;
  /// Upper bound on blocking inside one reply write. A client that
  /// stops reading while a large kReport/kSnapshotData is in flight
  /// gets its connection dropped at this deadline instead of parking
  /// a shard thread (and every session behind it) forever. <0 = wait
  /// indefinitely.
  int write_timeout_ms = 5000;
};

/// Monotonic counters for /status; all atomics, read racily.
struct ServerStats {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> sessions_opened{0};
  std::atomic<std::uint64_t> events_ingested{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> verdicts{0};
  std::atomic<std::uint64_t> reports{0};
  std::atomic<std::uint64_t> stream_rejects{0};
  std::atomic<std::uint64_t> throttles{0};
  std::atomic<std::uint64_t> http_requests{0};
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + spawn the acceptor and shard threads; returns immediately.
  /// Throws net::NetError when the address cannot be bound.
  void start();
  /// Tear everything down (idempotent). Live sessions are discarded.
  void stop();

  [[nodiscard]] const ServerOptions& options() const noexcept;
  [[nodiscard]] const ServerStats& stats() const noexcept;
  [[nodiscard]] std::size_t session_count() const;
  /// The /status page (also served over HTTP GET on the same socket).
  [[nodiscard]] std::string status_text() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ccmm::serve
