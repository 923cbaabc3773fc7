// ccmm/trace/large_check.hpp
//
// Streaming post-mortem checking for large traces. The classic pipeline
// (CheckContext::prepare → contains_prepared) is exact but leans on the
// O(n²)-bit transitive closure and O(n·writers)-bit Φ⁻¹ block bitsets,
// which caps verify_execution at toy sizes. large_check() decides the
// same per-location-decomposable memberships — LC, the four dag
// consistency models NN/NW/WN/WW, freshness and WN⁺/NN⁺ — by streaming
// the computation in topological order through the per-location kernel
// (trace/loc_incremental.hpp):
//
//  * observer validity (Definition 2) with the precedence-oracle layer
//    (dag/precedence_oracle.hpp) instead of closure rows, its 2.2 point
//    queries batched 4096 at a time and skipped outright for
//    backward-pointing observations;
//  * LC by an incremental quotient Kahn frontier, with one O(n+m)
//    rebuild only for locations whose arrivals contradict it;
//  * NN/NW/WN/WW by per-node block masks in one forward and one
//    backward sweep per batch of 256 Φ⁻¹ blocks (the dag/sweep.hpp
//    kernels; see DESIGN.md for the derivation), swept only where LC
//    was not requested or fails — LC implies all four location by
//    location (Figure 1).
//
// large_check() is the per-location driver (trace/loc_driver.hpp) run
// over the whole scan order on the caller's Φ columns: locations packed
// onto O(threads) NUMA-placed shards, each staging and advancing its
// own locations chunk by chunk with ONE reusable scratch arena, so peak
// memory is O(n) words per shard, never O(n²) bits, and the report
// carries the measured bytes-per-node. The online CheckSession
// (trace/session_kernel.hpp) runs the same driver on one shard as
// events arrive and returns the same LargeCheckReport. Verdicts are
// pinned byte-identical to the prepared checkers by
// tests/test_large_check.cpp.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dag/precedence_oracle.hpp"
#include "models/suite.hpp"
#include "trace/loc_incremental.hpp"
#include "trace/trace.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ccmm {

// kLargeCheckAll / kLargeCheckPlus / kLargeCheckExt and LocationCheck
// moved to trace/loc_incremental.hpp with the per-location kernel; the
// names are re-exported through this include unchanged.

struct LargeCheckOptions {
  /// Which models to decide (subset of kLargeCheckExt).
  std::uint32_t models = kSuiteLC;
  /// Oracle selection for the validity point queries (kAuto: SP labels
  /// when the computation carries a parse, closure when small, chains
  /// otherwise).
  OracleOptions oracle;
  /// Shard per-location work across this pool (nullptr = global_pool()).
  ThreadPool* pool = nullptr;
  bool parallel = true;
  /// Force a kernel level for the mask sweeps (nullopt = the process
  /// dispatch from active_simd_level()). The scalar and SIMD kernels
  /// are bit-identical by construction; this exists so differential
  /// tests can run both in one process.
  std::optional<SimdLevel> simd;
  /// Events per chunk (0 = engine default, 1<<17). Small values exist
  /// for chunk-boundary fuzzing in tests; production callers should
  /// leave this alone.
  std::uint32_t chunk_nodes = 0;
  /// The CLI's live progress line: called with (positions consumed,
  /// averaged over the locations, total node count). Called on the
  /// caller's thread only, after each chunk of the shard that thread
  /// runs; the values strictly increase and the last call is (n, n).
  std::function<void(std::size_t, std::size_t)> progress;
};

struct LargeCheckReport {
  bool valid_observer = false;
  std::uint32_t checked = 0;    // the requested model mask
  std::uint32_t satisfied = 0;  // subset of `checked` that hold
  std::string detail;           // first failure across locations
  std::string oracle_kind;
  std::size_t oracle_memory_bytes = 0;
  double oracle_build_millis = 0.0;
  double total_millis = 0.0;
  std::vector<LocationCheck> locations;  // sorted by location

  // Data-plane accounting (the perf budget ISSUE 7 tracks): which
  // kernel level ran, how the per-location work was sharded, and the
  // bytes the check itself held — shared CSR edge copies plus the
  // grouping arena plus the widest per-shard scratch arena — divided
  // by the node count. peak_rss_bytes is the whole-process high-water
  // mark (getrusage), so it includes the computation and observer too.
  std::string simd;                      // "scalar" | "neon" | "avx2"
  std::size_t shards = 0;                // scratch arenas allocated
  std::size_t csr_bytes = 0;             // shared succ/pred edge copies
  std::size_t groups_bytes = 0;          // location-grouping arena
  std::size_t scratch_peak_bytes = 0;    // max per-shard arena + states
  std::size_t aux_bytes = 0;             // scan order, writer maps (and
                                         // a session's stream arrays)
  std::size_t peak_rss_bytes = 0;        // process peak RSS after check
  double bytes_per_node = 0.0;           // check-owned bytes / node

  // Stage breakdown of the streaming scan (--trace in ccmm_check).
  // Shards run concurrently and each stage is the max over shards, so
  // stages can sum to more than total_millis. In a CheckSession's
  // reports, ingest is feed()'s event validation and column fill plus
  // stage_chunk, kernel is LocState::advance, group build includes the
  // stream arrays, and total is the time spent inside the session.
  double ingest_millis = 0.0;       // trace decode + stage_chunk
  double group_build_millis = 0.0;  // grouping + CSRs + wblock map
  double kernel_millis = 0.0;       // LocState::advance over all chunks
  double report_millis = 0.0;       // finalize_into (the last report's)
  std::string numa;                 // topology summary ("1 node" etc.)

  /// Same meaning as MemoryModel::contains for the given suite bit:
  /// valid observer and no location violates the model.
  [[nodiscard]] bool in_model(std::uint32_t bit) const {
    return valid_observer && (checked & bit) != 0 && (satisfied & bit) != 0;
  }

  /// Multi-line human summary (overall verdicts + per-location table).
  [[nodiscard]] std::string to_string() const;
};

/// Decide the requested models for (c, phi) without materializing the
/// transitive closure. Agrees with validate_observer + the models'
/// contains() on every input (differentially tested).
[[nodiscard]] LargeCheckReport large_check(const Computation& c,
                                           const ObserverFunction& phi,
                                           const LargeCheckOptions& options
                                           = {});

/// The total observer a trace induces: every read observes its recorded
/// write (⊥ included — the machine really saw no write), every write
/// observes itself (condition 2.3 forces this), and every unrecorded
/// slot observes the last write to that location the trace ran strictly
/// before the node's event (⊥ if none). The completion is what makes
/// membership meaningful — the paper's Φ is total, and leaving
/// unrecorded slots at ⊥ would order every block after B_⊥'s stragglers
/// and fail LC even on a serial SC execution. Because the trace order
/// is a linear extension of the dag, the completed entries always
/// satisfy condition 2.2. With a pool, the per-location columns fill
/// in parallel on it (same observer either way).
[[nodiscard]] ObserverFunction observer_from_trace(const Computation& c,
                                                   const Trace& trace,
                                                   ThreadPool* pool = nullptr);

/// The prelude of every trace entry point: check `trace` against `c`
/// and build its observer, on `pool` (nullptr = global_pool()) when
/// `parallel`. On a mismatch: nullopt, and `error` says "trace does not
/// fit the computation: " and names the first mismatching event.
[[nodiscard]] std::optional<ObserverFunction> trace_observer(
    const Computation& c, const Trace& trace, bool parallel, ThreadPool* pool,
    std::string& error);

/// Trace entry point: sanity-check the trace against `c` (reporting the
/// first mismatching event on failure), build the trace observer, and
/// stream-check it.
[[nodiscard]] LargeCheckReport large_check_trace(const Computation& c,
                                                 const Trace& trace,
                                                 const LargeCheckOptions&
                                                     options = {});

}  // namespace ccmm
