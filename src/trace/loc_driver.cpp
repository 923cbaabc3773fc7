#include "trace/loc_driver.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "dag/sweep.hpp"
#include "util/numa.hpp"
#include "util/resource.hpp"

namespace ccmm {
namespace {

using Clock = std::chrono::steady_clock;

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

std::size_t csr_bytes_of(const Csr& csr) {
  return csr.head.capacity() * sizeof(std::uint32_t) +
         csr.tgt.capacity() * sizeof(NodeId);
}

}  // namespace

void LocShard::add(const LocKernelCtx& ctx, const LocTask& task,
                   std::size_t row) {
  states.emplace_back().init(ctx, task.loc, task.col, task.writers);
  rows.push_back(row);
}

void LocShard::advance_to(
    std::uint32_t p1, std::uint32_t chunk,
    const std::function<void(std::uint32_t)>& after_chunk) {
  std::uint32_t p0 = p1;
  for (const LocState& st : states) p0 = std::min(p0, st.consumed());
  while (p0 < p1) {
    const std::uint32_t c1 = p1 - p0 > chunk ? p0 + chunk : p1;
    for (LocState& st : states) {
      const std::uint32_t from = st.consumed();
      if (from >= c1) continue;
      // A state past its first failure ignores the rest of the stream,
      // so it is not staged either.
      if (!st.done()) {
        const auto ti = Clock::now();
        st.stage(from, c1, arena, staged);
        stats.ingest_ms += millis_since(ti);
      }
      const auto tk = Clock::now();
      st.advance(from, c1, staged);
      stats.kernel_ms += millis_since(tk);
    }
    p0 = c1;
    if (after_chunk) after_chunk(c1);
  }
}

void LocShard::finalize(std::vector<LocationCheck>& out) {
  const auto t0 = Clock::now();
  std::size_t bytes = staged.blk.capacity() * sizeof(std::uint32_t);
  for (std::size_t k = 0; k < states.size(); ++k) {
    states[k].finalize_into(out[rows[k]], arena);
    bytes += states[k].memory_bytes();
  }
  stats.report_ms = millis_since(t0);
  arena.note_peak();
  stats.bytes = arena.peak_bytes + bytes;
}

LocDriver::LocDriver(const Computation& c, std::uint32_t models,
                     const OracleOptions& oracle,
                     std::optional<SimdLevel> simd)
    : c_(c),
      oracle_opts_(oracle),
      predicted_oracle_(predicted_oracle_kind(c, oracle)),
      oracle_([this] {
        return make_oracle(c_.dag(), c_.sp_structure().get(), oracle_opts_);
      }) {
  // The oracle is lazy: condition 2.2 only consults it for pairs whose
  // observed write sits later in the scan order, and on trace-shaped
  // observers that set is empty — the build (often the largest fixed
  // cost of a postmortem) then never happens and its bytes drop out of
  // the footprint. Only kAuto's chain-cover probe makes the kind
  // unpredictable, and that one case builds up front.
  if (predicted_oracle_.empty()) (void)oracle_.get();

  const auto t0 = Clock::now();
  const std::size_t n = c.node_count();
  // The scan order. The kernel consumes positions of THIS order however
  // the columns are produced, which is what makes every first-failure
  // position — and so every witness string — identical between the
  // postmortem and the online stream.
  if (c.dag().ids_topological()) {
    topo_.resize(n);
    std::iota(topo_.begin(), topo_.end(), NodeId{0});
  } else {
    topo_ = c.dag().topological_order();
    posv_.resize(n);
    for (std::uint32_t p = 0; p < n; ++p) posv_[topo_[p]] = p;
  }

  // The composites expand to the base bits their scans decide; the
  // per-location fold clips back to the requested mask.
  const std::uint32_t checked = models & kLargeCheckExt;
  std::uint32_t base = checked & kLargeCheckAll;
  if ((checked & kSuiteWNPlus) != 0) base |= kSuiteWN;
  if ((checked & kSuiteNNPlus) != 0) base |= kSuiteNN;
  want_lc_ = (base & kSuiteLC) != 0;
  want_masks_ = (base & (kSuiteNN | kSuiteNW | kSuiteWN | kSuiteWW)) != 0;

  // pred carries the incremental LC edges, the freshness shadow and the
  // stream's arrival validation; succ is only needed for the mask
  // models' backward sweep — an LC-only postmortem (the 128M headline)
  // never materializes it.
  pred_ = make_pred_csr(c.dag());
  if (want_masks_) succ_ = make_succ_csr(c.dag());

  // The shared writer→block and writer→location maps: a node writes at
  // most one location, so two n-entry arrays serve every location at
  // once, and `wblock[u] != 0 && wloc[u] == l` replaces every op-table
  // probe in the hot loops.
  groups_ = group_location_accesses(c);
  wblock_.assign(n, 0);
  wloc_.assign(n, 0);
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    const std::span<const NodeId> wr = groups_.writers(gi);
    for (std::size_t i = 0; i < wr.size(); ++i) {
      wblock_[wr[i]] = static_cast<std::uint32_t>(i) + 1;
      wloc_[wr[i]] = groups_.locs[gi];
    }
  }

  ctx_ = LocKernelCtx{&c,
                      &oracle_,
                      &topo_,
                      posv_.empty() ? nullptr : posv_.data(),
                      &pred_,
                      &succ_,
                      wblock_.data(),
                      wloc_.data(),
                      base,
                      checked,
                      (checked & kLargeCheckPlus) != 0,
                      simd.value_or(active_simd_level())};
  setup_ms_ = millis_since(t0);
}

std::vector<LocTask> LocDriver::tasks_for(const ObserverFunction& phi) const {
  const auto writers_of = [&](Location l) -> std::span<const NodeId> {
    const auto it =
        std::lower_bound(groups_.locs.begin(), groups_.locs.end(), l);
    if (it == groups_.locs.end() || *it != l) return {};
    return groups_.writers(
        static_cast<std::size_t>(it - groups_.locs.begin()));
  };
  const std::vector<Location>& stored = phi.stored_locations();
  std::vector<LocTask> tasks;
  std::size_t si = 0;
  const auto stored_task = [&](std::size_t i) {
    return LocTask{stored[i], &phi.stored_column(i), writers_of(stored[i])};
  };
  const auto push_if_observed = [&](const LocTask& t) {
    if (std::any_of(t.col->begin(), t.col->end(),
                    [](NodeId x) { return x != kBottom; }))
      tasks.push_back(t);
  };
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    const std::span<const NodeId> wr = groups_.writers(gi);
    if (wr.empty()) continue;  // read-only: no column required
    const Location l = groups_.locs[gi];
    while (si < stored.size() && stored[si] < l)
      push_if_observed(stored_task(si++));
    if (si < stored.size() && stored[si] == l)
      tasks.push_back(stored_task(si++));
    else
      tasks.push_back(LocTask{l, nullptr, wr});
  }
  for (; si < stored.size(); ++si) push_if_observed(stored_task(si));
  return tasks;
}

std::size_t LocDriver::shard_count(std::size_t ntasks,
                                   std::size_t pool_size) const {
  if (c_.node_count() < kShardMinNodes) return 1;
  return std::max<std::size_t>(1, std::min(ntasks, pool_size));
}

std::vector<std::vector<std::size_t>> LocDriver::pack(
    std::span<const LocTask> tasks, std::size_t nshards) const {
  // Cost model: every task pays an O(n) stage + advance pass (1 unit);
  // a mask-only request adds one sweep per 256-block batch (with LC
  // requested, only LC-failing locations sweep).
  std::vector<std::size_t> cost(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    cost[i] = 1 + (want_masks_ && !want_lc_
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
  return shard_tasks;
}

void LocDriver::run(
    std::span<const LocTask> tasks, std::size_t pool_size,
    std::uint32_t chunk,
    const std::function<void(std::size_t, std::size_t)>& progress,
    LargeCheckReport& report) const {
  const std::size_t n = c_.node_count();
  report.locations.resize(tasks.size());
  const std::size_t nshards = shard_count(tasks.size(), pool_size);
  const std::vector<std::vector<std::size_t>> shard_tasks =
      pack(tasks, nshards);

  const NumaTopology& numa = numa_topology();
  const std::vector<std::size_t> plan = plan_shard_placement(nshards, numa);
  std::vector<LocShardStats> stats(nshards);
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
      progress(done, n);
    }
  };
  const auto run_shard = [&](std::size_t s) {
    // Pin to the shard's NUMA node BEFORE the first allocation: the
    // arena and states below are first-touched inside the binding, so
    // their pages land on the node that re-reads them every chunk.
    // Single-node topologies make this a no-op.
    const NumaBinding bind(numa, plan[s]);
    LocShard shard;
    shard.states.reserve(shard_tasks[s].size());
    for (const std::size_t i : shard_tasks[s]) shard.add(ctx_, tasks[i], i);
    shard.advance_to(static_cast<std::uint32_t>(n), chunk,
                     [&](std::uint32_t end) {
                       consumed[s].store(end, std::memory_order_relaxed);
                       if (s == 0 && progress) report_progress();
                     });
    shard.finalize(report.locations);
    stats[s] = shard.stats;
  };
  {
    // Shard 0 runs on the caller's thread, the rest on dedicated
    // threads (not pool tasks, so a check issued from inside a pool
    // task cannot starve that pool). One shard is the serial path.
    std::vector<std::jthread> workers;
    for (std::size_t s = 1; s < nshards; ++s)
      workers.emplace_back(run_shard, s);
    run_shard(0);
  }
  if (progress) progress(n, n);
  fold(report, stats, 0);
}

void LocDriver::fold(LargeCheckReport& report,
                     std::span<const LocShardStats> shards,
                     std::size_t stream_bytes) const {
  const std::size_t n = c_.node_count();
  report.checked = ctx_.checked;
  report.simd = simd_level_name(ctx_.simd);
  report.shards = shards.size();
  report.numa = numa_topology().to_string();
  report.csr_bytes = csr_bytes_of(succ_) + csr_bytes_of(pred_);
  report.groups_bytes = groups_.memory_bytes();
  report.aux_bytes = map_bytes() + stream_bytes;
  report.group_build_millis = setup_ms_;

  // Stages are the max over shards (they run concurrently), so they can
  // sum to more than the wall-clock total on sharded runs.
  for (const LocShardStats& st : shards) {
    report.ingest_millis = std::max(report.ingest_millis, st.ingest_ms);
    report.kernel_millis = std::max(report.kernel_millis, st.kernel_ms);
    report.report_millis = std::max(report.report_millis, st.report_ms);
    report.scratch_peak_bytes = std::max(report.scratch_peak_bytes, st.bytes);
  }

  // Oracle accounting: real numbers when it was built (up front or on a
  // 2.2 flush), the predicted kind and zero bytes when the scan never
  // needed it.
  if (oracle_.built()) {
    report.oracle_kind = oracle_.get().kind();
    report.oracle_memory_bytes = oracle_.get().memory_bytes();
    report.oracle_build_millis = oracle_.build_millis();
  } else {
    report.oracle_kind = predicted_oracle_;
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
}

std::size_t LocDriver::map_bytes() const noexcept {
  return (wblock_.capacity() + wloc_.capacity() + posv_.capacity()) *
             sizeof(std::uint32_t) +
         topo_.capacity() * sizeof(NodeId);
}

std::size_t LocDriver::memory_bytes() const noexcept {
  return map_bytes() + csr_bytes_of(pred_) + csr_bytes_of(succ_) +
         groups_.memory_bytes();
}

}  // namespace ccmm
