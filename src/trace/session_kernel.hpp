// ccmm/trace/session_kernel.hpp
//
// The online checking session: the piece of ccmm_serve that turns the
// incremental per-location kernel (trace/loc_incremental.hpp) into a
// feed()/check()/finish() state machine over a live event stream.
//
// A CheckSession is the online twin of large_check_trace(): events
// arrive append-only as validated 32-byte binary records (in
// nondecreasing seq order — the stream IS the execution order), the
// observer columns fill incrementally with exactly the
// observer_from_trace() completion rules, and the session runs the
// same per-location driver as large_check() (trace/loc_driver.hpp) —
// same setup, same shard loop on one shard, same report fold — through
// a *watermark* on the driver's scan order:
//
//   scan order  = ids when topological, else dag().topological_order()
//                 — the SAME order large_check() scans, so verdicts,
//                 first-failure positions and witness strings are
//                 byte-identical to the batch postmortem, not merely
//                 equivalent;
//   watermark   = length of the longest arrived prefix of the scan
//                 order. Events can arrive in any linear extension;
//                 the kernel only consumes positions the stream has
//                 fully covered. On serial/SC-shaped streams the
//                 watermark tracks arrival exactly and nothing waits.
//
// What the session keeps for itself is the stream: event validation,
// the column fill with its carried last write, splicing in never-
// written read locations, the watermark and the retained events.
// feed() performs the incremental half of trace_consistent_with (one
// event per node, known nodes, predecessors already arrived, seq
// monotone); a violation makes the session sticky-failed and finish()
// reports the batch engine's "trace does not fit the computation"
// verdict. finish() on a complete stream returns a LargeCheckReport
// whose semantic fields (valid_observer / satisfied / detail / every
// per-location row) match `ccmm_check --trace` on the concatenated
// trace byte for byte — pinned by tests/test_serve.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/large_check.hpp"
#include "trace/loc_driver.hpp"
#include "trace/trace_binary.hpp"

namespace ccmm {

struct SessionOptions {
  /// Which models to decide (subset of kLargeCheckExt).
  std::uint32_t models = kSuiteLC;
  /// Oracle selection for the validity point queries.
  OracleOptions oracle;
  /// Force a mask-sweep kernel level (nullopt = process dispatch).
  std::optional<SimdLevel> simd;
  /// Keep every fed record: snapshot/restore replays the retained log
  /// through a fresh session, so serving turns it off for bulk streams
  /// that never snapshot.
  bool retain_events = false;
};

/// The O(1) mid-stream answer: which verdict bits are already certain.
/// `violated` only ever grows; a zero here is "nothing known yet", not
/// "holds" — holds needs a check() or finish() mask sweep.
struct SessionVerdict {
  bool valid = true;            // no validity failure seen so far
  std::uint32_t violated = 0;   // sticky violations, clipped to checked
  std::uint64_t events = 0;     // records accepted so far
  std::uint64_t consumed = 0;   // scan positions the kernel advanced
};

class CheckSession {
 public:
  /// The computation is copied into the session (a serving daemon owns
  /// its sessions outright; clients ship the computation in the open
  /// frame). Non-movable: LocStates hold pointers into the session.
  explicit CheckSession(Computation c, SessionOptions options = {});
  ~CheckSession();
  CheckSession(const CheckSession&) = delete;
  CheckSession& operator=(const CheckSession&) = delete;

  /// Append `count` records (nondecreasing seq, any linear extension of
  /// the dag). Returns false once the stream is rejected — the session
  /// is then sticky-failed and error() says why; further feeds are
  /// no-ops. Cost: O(count · stored-locations) column fill plus the
  /// kernel advance over newly covered scan positions.
  bool feed(const BinaryTraceEvent* events, std::size_t count);

  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t events_seen() const noexcept {
    return events_seen_;
  }
  /// Scan positions consumed by the kernel (== events_seen on in-order
  /// streams; lags behind it while the scan order waits for a hole).
  [[nodiscard]] std::uint64_t consumed() const noexcept { return watermark_; }
  [[nodiscard]] bool complete() const noexcept { return watermark_ == n_; }

  /// O(locations): fold the sticky per-location flags. Never touches
  /// the oracle or the sweep kernels — this is the per-flush verdict
  /// the daemon pushes after every batch.
  [[nodiscard]] SessionVerdict fast_verdict() const;

  /// Full verdict over exactly the consumed prefix (mask sweeps + LC
  /// quotient rebuilds where dirty). Non-destructive: feed() may
  /// continue afterwards. O(consumed) per call — an explicit request,
  /// not a per-batch cost.
  [[nodiscard]] LargeCheckReport check();

  /// Terminal verdict. Requires the stream to be complete (exactly one
  /// event per node); otherwise reports the batch engine's "trace does
  /// not fit the computation" failure. Idempotent; feed() after a
  /// complete finish() rejects (the stream has more events than nodes).
  [[nodiscard]] LargeCheckReport finish();

  [[nodiscard]] const Computation& computation() const noexcept;
  [[nodiscard]] const SessionOptions& options() const noexcept {
    return opts_;
  }
  /// The fed records, in arrival order — empty unless retain_events.
  [[nodiscard]] const std::vector<BinaryTraceEvent>& retained_events()
      const noexcept {
    return retained_;
  }
  /// Session-owned heap: columns, groups, CSRs, states, arena peak.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  struct Loc;  // one location's column and carried last write

  void fail_stream(std::string why);
  std::vector<NodeId>& extra_column(Location l);
  void fill_columns(const BinaryTraceEvent* events, std::size_t count);
  void advance_kernel();
  [[nodiscard]] std::size_t stream_bytes() const noexcept;
  LargeCheckReport make_report(bool require_complete);

  std::unique_ptr<Computation> c_;
  SessionOptions opts_;
  std::size_t n_ = 0;
  std::optional<LocDriver> driver_;  // setup, ctx and report fold

  // One shard of states; cols_[k] is shard_.states[k]'s column. Every
  // written location comes first, in location order (the batch
  // worklist); never-written read targets are appended when their
  // first recorded observation arrives (extras_: location -> index).
  LocShard shard_;
  std::vector<std::unique_ptr<Loc>> cols_;
  std::size_t nwritten_ = 0;
  std::map<Location, std::size_t> extras_;

  // Event -> written-location index resolution, precomputed per node so
  // the per-batch column fill never touches the op table.
  static constexpr std::uint32_t kNoLoc = 0xFFFFFFFFu;
  std::vector<std::uint32_t> nloc_of_;   // index into cols_
  std::vector<std::uint8_t> is_write_;

  std::vector<std::uint8_t> arrived_;
  std::uint64_t events_seen_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint32_t watermark_ = 0;  // arrived-prefix length in scan order
  std::string error_;

  std::vector<BinaryTraceEvent> retained_;

  double stream_setup_ms_ = 0.0;  // the per-node stream arrays
  double ingest_ms_ = 0.0;        // validation + column fill
  double active_ms_ = 0.0;  // total time spent inside feed()/check()
};

}  // namespace ccmm
