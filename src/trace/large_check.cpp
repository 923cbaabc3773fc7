#include "trace/large_check.hpp"

#include <algorithm>

#include "trace/loc_driver.hpp"
#include "util/str.hpp"

namespace ccmm {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

LargeCheckReport large_check(const Computation& c, const ObserverFunction& phi,
                             const LargeCheckOptions& options) {
  const auto t0 = Clock::now();
  LargeCheckReport report;
  report.checked = options.models & kLargeCheckExt;
  const std::size_t n = c.node_count();
  if (phi.node_count() != n) {
    report.detail = "observer function and computation disagree on node count";
    report.total_millis = millis_since(t0);
    return report;
  }
  const LocDriver driver(c, options.models, options.oracle, options.simd);
  const std::vector<LocTask> tasks = driver.tasks_for(phi);
  // Checks too small to shard never spin up the global pool.
  const std::size_t pool_size =
      !options.parallel || n < LocDriver::kShardMinNodes ? 1
      : options.pool != nullptr ? options.pool->size()
                                : global_pool().size();
  driver.run(tasks, pool_size,
             options.chunk_nodes != 0 ? options.chunk_nodes
                                      : LocDriver::kChunkNodes,
             options.progress, report);
  report.total_millis = millis_since(t0);
  return report;
}

std::string LargeCheckReport::to_string() const {
  std::string out;
  out += format("oracle: %s (%zu bytes, built in %.2f ms)\n",
                oracle_kind.c_str(), oracle_memory_bytes, oracle_build_millis);
  out += format(
      "data plane: %s kernels, %zu shards, %.1f B/node "
      "(csr %zu + groups %zu + scratch %zu x %zu + aux %zu + oracle %zu)\n",
      simd.c_str(), shards, bytes_per_node,
      csr_bytes, groups_bytes, scratch_peak_bytes, shards, aux_bytes,
      oracle_memory_bytes);
  out += format(
      "stages: ingest %.2f ms, group build %.2f ms, kernel %.2f ms, "
      "report %.2f ms; numa: %s\n",
      ingest_millis, group_build_millis, kernel_millis, report_millis,
      numa.c_str());
  if (peak_rss_bytes != 0)
    out += format("peak rss: %.1f MiB\n",
                  static_cast<double>(peak_rss_bytes) / (1024.0 * 1024.0));
  out += format("observer: %s\n", valid_observer ? "valid" : "INVALID");
  if (valid_observer) {
    for (std::uint32_t bit = 1; bit != 0 && bit <= checked; bit <<= 1) {
      if ((checked & bit) == 0) continue;
      out += format("  %-3s %s\n", ModelSuite::bit_name(bit),
                    (satisfied & bit) != 0 ? "holds" : "VIOLATED");
    }
  }
  if (!detail.empty()) out += "  " + detail + "\n";
  TextTable t({"loc", "writers", "valid", "violated", "ms"});
  for (const LocationCheck& lc : locations) {
    std::string v;
    for (std::uint32_t bit = 1; bit != 0 && bit <= lc.violated; bit <<= 1)
      if ((lc.violated & bit) != 0) {
        if (!v.empty()) v += ",";
        v += ModelSuite::bit_name(bit);
      }
    t.add_row({format("%u", lc.loc), format("%zu", lc.writers),
               lc.valid ? "yes" : "no", v.empty() ? "-" : v,
               format("%.2f", lc.millis)});
  }
  out += t.render();
  out += format("total: %.2f ms over %zu locations\n", total_millis,
                locations.size());
  return out;
}

ObserverFunction observer_from_trace(const Computation& c, const Trace& trace,
                                     ThreadPool* pool) {
  const std::size_t n = c.node_count();
  ObserverFunction phi(n);
  const std::vector<Location> locs = c.written_locations();

  // Events in execution order, as indices (events naming unknown nodes
  // are dropped, as before). Simulator and binary traces are already
  // seq-sorted; skip the sort for them.
  std::vector<std::uint32_t> order;
  order.reserve(trace.events.size());
  bool sorted = true;
  std::uint64_t prev_seq = 0;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    if (e.node >= n) continue;
    if (!order.empty() && e.seq < prev_seq) sorted = false;
    prev_seq = e.seq;
    order.push_back(static_cast<std::uint32_t>(i));
  }
  if (!sorted)
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return trace.events[a].seq < trace.events[b].seq;
                     });

  // Resolve each kept event's node and accessed location (its index in
  // `locs`; kNoLoc for nops and accesses to never-written locations)
  // once, so the column fills below stream two flat arrays and never
  // touch the op table, the event records or a binary search.
  constexpr std::uint32_t kNoLoc = 0xFFFFFFFFu;
  std::vector<NodeId> enode(order.size());
  std::vector<std::uint32_t> eloc(order.size(), kNoLoc);
  for (std::size_t k = 0; k < order.size(); ++k) {
    enode[k] = trace.events[order[k]].node;
    const Op o = c.op(enode[k]);
    if (o.is_nop()) continue;
    const auto it = std::lower_bound(locs.begin(), locs.end(), o.loc);
    if (it != locs.end() && *it == o.loc)
      eloc[k] = static_cast<std::uint32_t>(it - locs.begin());
  }

  // One pass per written location, carrying the last write: recorded
  // observations win, writes self-observe (2.3), everything else gets
  // the carried write — the value the node would have seen. Columns
  // are independent, so they fill in parallel on `pool`, and each is
  // installed whole via set_column instead of per-entry phi.set calls
  // that re-search the location list 10⁸ times on a large trace.
  std::vector<std::vector<NodeId>> cols(locs.size());
  const auto fill = [&](std::size_t i) {
    std::vector<NodeId> col(n, kBottom);
    NodeId last = kBottom;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const NodeId u = enode[k];
      if (eloc[k] != i) {
        if (last != kBottom) col[u] = last;
        continue;
      }
      if (c.op(u).is_write()) {
        col[u] = u;
        last = u;
      } else {
        const NodeId x = trace.events[order[k]].observed;
        if (x != kBottom && x < n) col[u] = x;
      }
    }
    cols[i] = std::move(col);
  };
  if (pool != nullptr) {
    pool->parallel_for(locs.size(), fill);
  } else {
    for (std::size_t i = 0; i < locs.size(); ++i) fill(i);
  }
  for (std::size_t i = 0; i < locs.size(); ++i)
    phi.set_column(locs[i], std::move(cols[i]));
  // Recorded observations at never-written locations still land in Φ
  // (they must fail 2.1 later, so they cannot be dropped here).
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (eloc[k] != kNoLoc) continue;
    const TraceEvent& e = trace.events[order[k]];
    const Op o = c.op(e.node);
    if (o.is_read() && e.observed != kBottom && e.observed < n)
      phi.set(o.loc, e.node, e.observed);
  }
  // Writes self-observe even when the trace omits their event entirely.
  for (NodeId u = 0; u < n; ++u)
    if (c.op(u).is_write()) phi.set(c.op(u).loc, u, u);
  return phi;
}

std::optional<ObserverFunction> trace_observer(const Computation& c,
                                              const Trace& trace,
                                              bool parallel, ThreadPool* pool,
                                              std::string& error) {
  std::string why;
  if (!trace_consistent_with(trace, c, &why)) {
    error = "trace does not fit the computation: " + why;
    return std::nullopt;
  }
  if (!parallel) return observer_from_trace(c, trace);
  return observer_from_trace(c, trace,
                             pool != nullptr ? pool : &global_pool());
}

LargeCheckReport large_check_trace(const Computation& c, const Trace& trace,
                                   const LargeCheckOptions& options) {
  const auto t0 = Clock::now();
  std::string error;
  const std::optional<ObserverFunction> phi =
      trace_observer(c, trace, options.parallel, options.pool, error);
  if (!phi) {
    LargeCheckReport report;
    report.checked = options.models & kLargeCheckExt;
    report.detail = std::move(error);
    return report;
  }
  const double decode_ms = millis_since(t0);
  LargeCheckReport report = large_check(c, *phi, options);
  report.ingest_millis += decode_ms;
  return report;
}

}  // namespace ccmm
