// ccmm/trace/loc_driver.hpp
//
// The one driver of the per-location kernel (trace/loc_incremental.hpp).
// LC and the four dag-consistent models are defined location by
// location, so one set of LocStates decides both the postmortem and the
// online stream; the two differ only in where the Φ columns come from
// and how far the scan order is covered. Everything else lives here:
// the shared setup (LocDriver), one shard's chunk loop (LocShard), the
// batch schedule over shards (run) and the report fold (fold).
// large_check() is run() over the caller's Φ columns; a CheckSession
// advances one LocShard over [consumed, watermark) as events arrive and
// folds its reports with the same fold().
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/large_check.hpp"
#include "trace/loc_incremental.hpp"
#include "trace/loc_kernel.hpp"

namespace ccmm {

/// One unit of per-location work: a location, its dense Φ column
/// (nullptr = the all-⊥ column) and its writers in id order — a slice
/// of the LocationGroups arena.
struct LocTask {
  Location loc = 0;
  const std::vector<NodeId>* col = nullptr;
  std::span<const NodeId> writers;
};

/// What one shard measured: stage times summed over its locations, and
/// the scratch it held at its last finalize (arena peak + states +
/// staging buffer).
struct LocShardStats {
  double ingest_ms = 0.0;  // stage_chunk
  double kernel_ms = 0.0;  // LocState::advance
  double report_ms = 0.0;  // the last finalize
  std::size_t bytes = 0;
};

/// One shard: its locations' states, the report row each one fills, and
/// one scratch arena and staging buffer reused by all of them, so a
/// shard makes O(1) allocations however many locations it owns.
struct LocShard {
  std::vector<LocState> states;
  std::vector<std::size_t> rows;  // states[k] finalizes into out[rows[k]]
  LocArena arena;
  LocChunkStage staged;
  LocShardStats stats;

  /// Bind a new state to `task`; it starts at scan position 0.
  void add(const LocKernelCtx& ctx, const LocTask& task, std::size_t row);

  /// stage() then advance() every state from where it stopped up to
  /// scan position `p1`, chunk-major (`chunk` positions at a time) so a
  /// chunk stays hot while every location walks it. `after_chunk(end)`
  /// runs after each chunk.
  void advance_to(std::uint32_t p1, std::uint32_t chunk,
                  const std::function<void(std::uint32_t)>& after_chunk =
                      {});

  /// finalize_into every state (non-destructive: advance_to may
  /// continue afterwards); sets stats.report_ms and stats.bytes.
  void finalize(std::vector<LocationCheck>& out);
};

/// The shared setup: the lazy oracle (built up front only when its kind
/// is unpredictable), the scan order and its inverse, the composite-mask
/// expansion, the pred/succ CSRs, the location groups, the writer maps
/// and the LocKernelCtx every state reads.
class LocDriver {
 public:
  /// Events per chunk unless the caller asks otherwise: large enough
  /// that per-chunk bookkeeping is noise, small enough that a chunk of
  /// topo slots plus its pred edges stays cache-resident.
  static constexpr std::uint32_t kChunkNodes = 1u << 17;

  /// Set up for deciding `models` (clipped to kLargeCheckExt) on `c`,
  /// which must outlive the driver.
  LocDriver(const Computation& c, std::uint32_t models,
            const OracleOptions& oracle, std::optional<SimdLevel> simd);
  LocDriver(const LocDriver&) = delete;
  LocDriver& operator=(const LocDriver&) = delete;

  [[nodiscard]] const LocKernelCtx& ctx() const noexcept { return ctx_; }
  [[nodiscard]] std::uint32_t checked() const noexcept { return ctx_.checked; }
  /// The scan order: ids when topological, else the dag's canonical
  /// topological order.
  [[nodiscard]] const std::vector<NodeId>& topo() const { return topo_; }
  [[nodiscard]] const Csr& pred() const noexcept { return pred_; }
  [[nodiscard]] const LocationGroups& groups() const { return groups_; }

  /// The worklist for a stored observer: every written location (an
  /// absent column fails 2.3 there) plus every stored column with a
  /// non-⊥ entry (an unexpected observation must fail 2.1), sorted by
  /// location.
  [[nodiscard]] std::vector<LocTask> tasks_for(
      const ObserverFunction& phi) const;

  /// Decide `tasks` over the whole scan order on up to `max_shards`
  /// shards (at least one) and fold the report; report.locations[i] is
  /// tasks[i]'s verdict. `progress` as LargeCheckOptions::progress.
  void run(std::span<const LocTask> tasks, std::size_t max_shards,
           std::uint32_t chunk,
           const std::function<void(std::size_t, std::size_t)>& progress,
           LargeCheckReport& report) const;

  /// The report fold over finalized report.locations: accounting,
  /// stage maxima over `shards`, oracle, verdicts, satisfied, peak RSS
  /// and bytes per node. `stream_bytes` are the caller's own per-node
  /// arrays, added to aux_bytes next to the driver's. Leaves
  /// total_millis to the caller.
  void fold(LargeCheckReport& report, std::span<const LocShardStats> shards,
            std::size_t stream_bytes) const;

  /// Heap bytes of the setup (oracle excluded).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// The scan order, its inverse and the writer maps: aux_bytes.
  [[nodiscard]] std::size_t map_bytes() const noexcept;

  const Computation& c_;
  OracleOptions oracle_opts_;
  std::string predicted_oracle_;  // empty: kAuto's unpredictable probe
  LazyOracle oracle_;             // once_flag member: the driver pins it
  double setup_ms_ = 0.0;
  bool want_lc_ = false;
  bool want_masks_ = false;

  std::vector<NodeId> topo_;
  std::vector<std::uint32_t> posv_;  // node -> scan position (iff !iota)
  Csr pred_;
  Csr succ_;  // built only for the mask models' backward sweep
  LocationGroups groups_;
  std::vector<std::uint32_t> wblock_;
  std::vector<std::uint32_t> wloc_;
  LocKernelCtx ctx_;
};

}  // namespace ccmm
