#include "trace/large_check.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <span>
#include <thread>

#include "dag/sweep.hpp"
#include "trace/loc_kernel.hpp"
#include "util/numa.hpp"
#include "util/resource.hpp"
#include "util/str.hpp"

namespace ccmm {
namespace {

using Clock = std::chrono::steady_clock;

double millis_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Events per chunk. Large enough that per-chunk bookkeeping is noise,
/// small enough that a chunk of topo slots plus its pred edges stays
/// cache-resident while every location of a shard walks it.
constexpr std::uint32_t kChunkNodes = 1u << 17;

/// Below this the whole check is a few milliseconds and thread spawn
/// would dominate: run every location on the caller's thread.
constexpr std::size_t kShardMinNodes = std::size_t{1} << 14;

/// One unit of sharded work: a location, its dense Φ column (nullptr
/// when the observer stores no column for it, i.e. the column is all-⊥)
/// and its writers in id order — a slice of the LocationGroups arena,
/// never a per-task Computation::writers() rescan.
struct LocTask {
  Location loc = 0;
  const std::vector<NodeId>* col = nullptr;
  std::span<const NodeId> writers;
};

/// What one shard measured: stage times summed over its tasks, and the
/// scratch it held (arena peak + states + staging buffer).
struct ShardStats {
  double ingest_ms = 0.0;
  double kernel_ms = 0.0;
  double report_ms = 0.0;
  std::size_t bytes = 0;
};

/// The oracle kind make_oracle would pick, when that is decidable
/// without building anything — the lazy path still reports it. Empty
/// means unpredictable (kAuto's chain-cover probe), so build eagerly.
std::string predicted_oracle_kind(const Computation& c,
                                  const OracleOptions& options) {
  switch (options.choice) {
    case OracleChoice::kClosure:
      return "closure";
    case OracleChoice::kSpOrder:
      return "sp-order";
    case OracleChoice::kChain:
      return "chain";
    case OracleChoice::kAuto:
      break;
  }
  const SpStructure* sp = c.sp_structure().get();
  if (sp != nullptr && sp->node_count == c.node_count()) return "sp-order";
  if (c.node_count() <= options.closure_threshold) return "closure";
  return {};
}

const char* pred_label(std::uint32_t bit) { return ModelSuite::bit_name(bit); }

std::size_t csr_bytes_of(const Csr& csr) {
  return csr.head.capacity() * sizeof(std::uint32_t) +
         csr.tgt.capacity() * sizeof(NodeId);
}

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

  // The oracle is lazy: condition 2.2 only consults it for pairs whose
  // observed write sits later in the scan order, and on trace-shaped
  // observers that set is empty — the build (often the largest fixed
  // cost of a postmortem) then never happens and its bytes drop out of
  // the footprint. The reported kind is the one make_oracle would
  // pick; only kAuto's chain-cover probe is unpredictable, and that
  // one case builds eagerly.
  const std::string predicted = predicted_oracle_kind(c, options.oracle);
  const auto t_oracle = Clock::now();
  const LazyOracle oracle =
      predicted.empty()
          ? LazyOracle(make_oracle(c.dag(), c.sp_structure().get(),
                                   options.oracle))
          : LazyOracle([&c, &options] {
              return make_oracle(c.dag(), c.sp_structure().get(),
                                 options.oracle);
            });
  const double eager_oracle_ms = millis_since(t_oracle);

  const auto t_group = Clock::now();
  std::vector<NodeId> topo;
  if (c.dag().ids_topological()) {
    topo.resize(n);
    std::iota(topo.begin(), topo.end(), NodeId{0});
  } else {
    topo = c.dag().topological_order();
  }

  // The composites expand to the base bits their scans decide; the
  // per-location fold clips back to the requested mask.
  std::uint32_t base = report.checked & kLargeCheckAll;
  if ((report.checked & kSuiteWNPlus) != 0) base |= kSuiteWN;
  if ((report.checked & kSuiteNNPlus) != 0) base |= kSuiteNN;
  const bool want_fresh = (report.checked & kLargeCheckPlus) != 0;

  // Flatten the edges once for every location to share. The incremental
  // kernel classifies quotient edges and carries the freshness shadow
  // over predecessors, so pred is the workhorse CSR; succ is only
  // needed for the mask models' backward sweep — an LC-only postmortem
  // (the 128M headline) never materializes it.
  const bool want_masks =
      (base & (kSuiteNN | kSuiteNW | kSuiteWN | kSuiteWW)) != 0;
  const bool want_lc = (base & kSuiteLC) != 0;
  Csr succ;
  Csr pred;
  if (want_masks) succ = make_succ_csr(c.dag());
  if (want_lc || want_masks || want_fresh) pred = make_pred_csr(c.dag());
  report.csr_bytes = csr_bytes_of(succ) + csr_bytes_of(pred);
  const SimdLevel simd = options.simd.value_or(active_simd_level());
  report.simd = simd_level_name(simd);

  // Worklist: written locations (an absent column fails 2.3 there) plus
  // every stored column with a non-⊥ entry (an unexpected observation
  // must fail 2.1, so it cannot be skipped either). The grouping arena
  // hands every task a slice of its flat writer array — one O(n) scan
  // and seven allocations total instead of two vectors per location.
  const LocationGroups groups = group_location_accesses(c);
  report.groups_bytes = groups.memory_bytes();
  const auto writers_of = [&](Location l) -> std::span<const NodeId> {
    const auto it = std::lower_bound(groups.locs.begin(), groups.locs.end(), l);
    if (it == groups.locs.end() || *it != l) return {};
    return groups.writers(
        static_cast<std::size_t>(it - groups.locs.begin()));
  };
  std::vector<LocTask> tasks;
  {
    const std::vector<Location>& stored = phi.stored_locations();
    std::size_t si = 0;
    const auto stored_task = [&](std::size_t i) {
      return LocTask{stored[i], &phi.stored_column(i), writers_of(stored[i])};
    };
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const std::span<const NodeId> wr = groups.writers(gi);
      if (wr.empty()) continue;  // read-only: no column required
      const Location l = groups.locs[gi];
      while (si < stored.size() && stored[si] < l) {
        const LocTask t = stored_task(si++);
        if (std::any_of(t.col->begin(), t.col->end(),
                        [](NodeId x) { return x != kBottom; }))
          tasks.push_back(t);
      }
      if (si < stored.size() && stored[si] == l)
        tasks.push_back(stored_task(si++));
      else
        tasks.push_back(LocTask{l, nullptr, wr});
    }
    for (; si < stored.size(); ++si) {
      const LocTask t = stored_task(si);
      if (std::any_of(t.col->begin(), t.col->end(),
                      [](NodeId x) { return x != kBottom; }))
        tasks.push_back(t);
    }
  }
  report.locations.resize(tasks.size());

  // The shared writer→block and writer→location maps (a node writes at
  // most one location, so two n-entry arrays serve every task at once —
  // `wblock[u] != 0 && wloc[u] == l` replaces every op-table probe in
  // the hot loops) and, when ids are not already topological, the
  // node→position inverse. These are what let the chunk-major scan ask
  // "which block" in O(1) with no per-location O(n) load/restore.
  std::vector<std::uint32_t> wblock(n, 0);
  std::vector<std::uint32_t> wloc(n, 0);
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const std::span<const NodeId> wr = groups.writers(gi);
    const Location l = groups.locs[gi];
    for (std::size_t i = 0; i < wr.size(); ++i) {
      wblock[wr[i]] = static_cast<std::uint32_t>(i) + 1;
      wloc[wr[i]] = l;
    }
  }
  std::vector<std::uint32_t> posv;
  const std::uint32_t* pos_of = nullptr;
  if (!c.dag().ids_topological()) {
    posv.resize(n);
    for (std::uint32_t p = 0; p < n; ++p) posv[topo[p]] = p;
    pos_of = posv.data();
  }
  report.aux_bytes = (wblock.capacity() + wloc.capacity() +
                      posv.capacity()) * sizeof(std::uint32_t);
  report.group_build_millis = millis_since(t_group);

  const LocKernelCtx kctx{
      &c,    &oracle,       &topo,       pos_of,         &pred,      &succ,
      wblock.data(), wloc.data(), base, report.checked, want_fresh, simd};

  // Shard layout: tasks are packed onto shards, and every shard runs
  // the whole chunk loop for its own locations — stage_chunk, then
  // advance, chunk by chunk, then finalize — so no thread stages
  // another shard's work. Shard 0 runs on the caller's thread, the rest
  // on dedicated threads (not pool tasks, so a check issued from inside
  // a pool task cannot starve that pool). One shard is the serial path.
  ThreadPool& pool = options.pool != nullptr ? *options.pool : global_pool();
  const std::uint32_t chunk =
      options.chunk_nodes != 0 ? options.chunk_nodes : kChunkNodes;
  const std::size_t nshards =
      tasks.empty() ? 0
                    : (options.parallel && n >= kShardMinNodes
                           ? std::min(tasks.size(), pool.size())
                           : std::size_t{1});
  report.shards = nshards;
  const NumaTopology& numa = numa_topology();
  report.numa = numa.to_string();

  // Pack tasks onto the shards in longest-processing-time order. Cost
  // model: every task pays an O(n) stage + advance pass (1 unit); a
  // mask-only request adds one sweep per 256-block batch (with LC
  // requested, only LC-failing locations sweep).
  std::vector<std::size_t> cost(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    cost[i] = 1 + (want_masks && !want_lc
                       ? (tasks[i].writers.size() + kSweepBits) / kSweepBits
                       : 0);
  std::vector<std::size_t> by_cost(tasks.size());
  std::iota(by_cost.begin(), by_cost.end(), std::size_t{0});
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  std::vector<std::vector<std::size_t>> shard_tasks(nshards);
  std::vector<std::size_t> shard_load(nshards, 0);
  for (const std::size_t i : by_cost) {
    const std::size_t s = static_cast<std::size_t>(
        std::min_element(shard_load.begin(), shard_load.end()) -
        shard_load.begin());
    shard_tasks[s].push_back(i);
    shard_load[s] += cost[i];
  }

  const std::vector<std::size_t> plan = plan_shard_placement(nshards, numa);
  std::vector<ShardStats> stats(nshards);
  // Positions each shard has consumed. Progress reports their average
  // over all tasks: it grows with every chunk of shard 0 (the caller's
  // own), whichever shard is ahead, and never decreases.
  std::vector<std::atomic<std::uint32_t>> consumed(nshards);
  std::uint64_t reported = 0;
  const auto report_progress = [&] {
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < nshards; ++s)
      sum += std::uint64_t{consumed[s].load(std::memory_order_relaxed)} *
             shard_tasks[s].size();
    const std::uint64_t done = sum / tasks.size();
    if (done > reported && done < n) {
      reported = done;
      options.progress(done, n);
    }
  };
  const auto run_shard = [&](std::size_t s) {
    // Pin to the shard's NUMA node BEFORE the first allocation: the
    // arena and states below are first-touched inside the binding, so
    // their pages land on the node that re-reads them every chunk.
    // Single-node topologies make this a no-op.
    const NumaBinding bind(numa, plan[s]);
    const std::vector<std::size_t>& mine = shard_tasks[s];
    ShardStats& st = stats[s];
    LocArena arena;
    std::vector<LocState> states(mine.size());
    for (std::size_t k = 0; k < mine.size(); ++k)
      states[k].init(kctx, tasks[mine[k]].loc, tasks[mine[k]].col,
                     tasks[mine[k]].writers);
    // One staging buffer for every task of the shard: each task's
    // staged blocks are consumed by its advance immediately (still hot
    // in cache), so a shard never holds more than one chunk's blk array.
    LocChunkStage staged;
    for (std::uint32_t p0 = 0; p0 < n; p0 += chunk) {
      const std::uint32_t p1 =
          static_cast<std::uint32_t>(std::min<std::size_t>(n, p0 + chunk));
      for (std::size_t k = 0; k < mine.size(); ++k) {
        const LocTask& t = tasks[mine[k]];
        const auto ti = Clock::now();
        stage_chunk(kctx, t.loc, t.col, p0, p1, arena, staged);
        st.ingest_ms += millis_since(ti);
        const auto tk = Clock::now();
        states[k].advance(p0, p1, arena, &staged);
        st.kernel_ms += millis_since(tk);
      }
      consumed[s].store(p1, std::memory_order_relaxed);
      if (s == 0 && options.progress) report_progress();
    }
    const auto tr = Clock::now();
    std::size_t bytes = staged.blk.capacity() * sizeof(std::uint32_t);
    for (std::size_t k = 0; k < mine.size(); ++k) {
      states[k].finalize_into(report.locations[mine[k]], arena);
      bytes += states[k].memory_bytes();
    }
    st.report_ms = millis_since(tr);
    arena.note_peak();
    st.bytes = arena.peak_bytes + bytes;
  };
  {
    std::vector<std::jthread> workers;
    for (std::size_t s = 1; s < nshards; ++s)
      workers.emplace_back(run_shard, s);
    if (nshards > 0) run_shard(0);
  }
  if (options.progress) options.progress(n, n);

  // Stages are the max over shards (they run concurrently), so they can
  // sum to more than the wall-clock total on sharded runs.
  std::size_t scratch_peak = 0;
  for (const ShardStats& st : stats) {
    report.ingest_millis = std::max(report.ingest_millis, st.ingest_ms);
    report.kernel_millis = std::max(report.kernel_millis, st.kernel_ms);
    report.report_millis = std::max(report.report_millis, st.report_ms);
    scratch_peak = std::max(scratch_peak, st.bytes);
  }
  report.scratch_peak_bytes = scratch_peak;

  // Oracle accounting: real numbers when it was built (eagerly or on a
  // 2.2 flush), the predicted kind and zero bytes when the scan never
  // needed it.
  if (oracle.built()) {
    report.oracle_kind = oracle.get().kind();
    report.oracle_memory_bytes = oracle.get().memory_bytes();
    report.oracle_build_millis =
        predicted.empty() ? eager_oracle_ms : oracle.build_millis();
  } else {
    report.oracle_kind = predicted;
  }

  report.valid_observer = true;
  std::uint32_t violated = 0;
  for (const LocationCheck& lc : report.locations) {
    if (!lc.valid) report.valid_observer = false;
    violated |= lc.violated;
    if (report.detail.empty() && !lc.detail.empty()) report.detail = lc.detail;
  }
  report.satisfied = report.valid_observer ? (report.checked & ~violated) : 0;
  report.peak_rss_bytes = current_peak_rss_bytes();
  if (n > 0)
    report.bytes_per_node =
        static_cast<double>(report.csr_bytes + report.groups_bytes +
                            report.scratch_peak_bytes * report.shards +
                            report.aux_bytes + report.oracle_memory_bytes) /
        static_cast<double>(n);
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
        v += pred_label(bit);
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

LargeCheckReport large_check_trace(const Computation& c, const Trace& trace,
                                   const LargeCheckOptions& options) {
  const auto t0 = Clock::now();
  std::string why;
  if (!trace_consistent_with(trace, c, &why)) {
    LargeCheckReport report;
    report.checked = options.models & kLargeCheckExt;
    report.detail = "trace does not fit the computation: " + why;
    return report;
  }
  ThreadPool* pool = nullptr;
  if (options.parallel)
    pool = options.pool != nullptr ? options.pool : &global_pool();
  const ObserverFunction phi = observer_from_trace(c, trace, pool);
  const double decode_ms = millis_since(t0);
  LargeCheckReport report = large_check(c, phi, options);
  report.ingest_millis += decode_ms;
  return report;
}

}  // namespace ccmm
