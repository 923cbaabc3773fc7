// ccmm_serve — the online checking daemon. Binds a unix or tcp socket,
// accepts ccmm_serve protocol connections (see src/serve/protocol.hpp),
// and runs one incremental CheckSession per open session. Plain HTTP
// GET on the same socket returns the /status metrics page.
//
//   $ ./ccmm_serve --listen unix:/tmp/ccmm.sock
//   $ ./ccmm_serve --listen tcp:127.0.0.1:7421 --shards 4
//   $ CCMM_THREADS=1 ./ccmm_serve --listen unix:/tmp/ccmm.sock --inline-kernel
//   $ curl --unix-socket /tmp/ccmm.sock http://localhost/status
//
// SIGINT/SIGTERM shut down cleanly and print the final status page.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "serve/server.hpp"

using namespace ccmm;

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

int usage() {
  std::fprintf(
      stderr,
      "usage: ccmm_serve [--listen ADDR] [--shards N] [--inline-kernel]\n"
      "                  [--max-pending N] [--status-every SECONDS]\n"
      "  ADDR: unix:/path/to.sock | tcp:host:port "
      "(default unix:/tmp/ccmm_serve.sock)\n"
      "  --shards 0 allocates one shard per NUMA node\n"
      "  --inline-kernel runs sessions on the event loop (1-core hosts)\n"
      "  CCMM_THREADS caps the pool each large session's batches fan out "
      "to\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions opts;
  long status_every = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen" && i + 1 < argc) {
      opts.listen = argv[++i];
    } else if (arg == "--shards" && i + 1 < argc) {
      opts.shards = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--inline-kernel") {
      opts.kernel_offload = false;
    } else if (arg == "--max-pending" && i + 1 < argc) {
      opts.max_pending_batches =
          static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--status-every" && i + 1 < argc) {
      status_every = std::atol(argv[++i]);
    } else {
      return usage();
    }
  }

  serve::Server server(opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccmm_serve: %s\n", e.what());
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::printf("ccmm_serve listening on %s (%zu shard%s, kernel %s)\n",
              server.options().listen.c_str(), server.options().shards,
              server.options().shards == 1 ? "" : "s",
              server.options().kernel_offload ? "offloaded" : "inline");
  std::fflush(stdout);

  auto last_status = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (status_every > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_status >= std::chrono::seconds(status_every)) {
        last_status = now;
        std::fputs(server.status_text().c_str(), stdout);
        std::fflush(stdout);
      }
    }
  }
  std::puts("\nshutting down");
  std::fputs(server.status_text().c_str(), stdout);
  server.stop();
  return 0;
}
