#include "trace/session_kernel.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "util/numa.hpp"
#include "util/resource.hpp"
#include "util/str.hpp"

namespace ccmm {
namespace {

using Clock = std::chrono::steady_clock;

double millis_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Mirror of large_check.cpp's oracle-kind prediction: the lazy oracle
/// reports the kind make_oracle would pick without building it; only
/// kAuto's chain-cover probe is unpredictable and builds eagerly. Kept
/// in lockstep by the byte-identity differential in test_serve.cpp.
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

/// One location's online state: the dense Φ column the session fills
/// from the stream plus the LocState consuming it. Written locations
/// are created up front (the batch task list); never-written read
/// targets splice in when their first recorded observation arrives.
struct CheckSession::Loc {
  Location loc = 0;
  std::vector<NodeId> col;
  std::span<const NodeId> writers;
  LocState state;
  // The write carried across batch boundaries by fill_columns. Lives
  // here, not in a states_-indexed side vector: extra_state_for()
  // splices into states_, and a parallel vector would need the same
  // shift at the same position to stay aligned.
  NodeId last_write = kBottom;
};

CheckSession::CheckSession(Computation c, SessionOptions options)
    : c_(std::make_unique<Computation>(std::move(c))),
      opts_(std::move(options)),
      n_(c_->node_count()) {
  const auto t0 = Clock::now();
  checked_ = opts_.models & kLargeCheckExt;

  // Lazy oracle, exactly as the batch engine builds it: condition 2.2
  // never queries backward-pointing observations, so a trace-shaped
  // stream never triggers the build.
  predicted_oracle_ = predicted_oracle_kind(*c_, opts_.oracle);
  const auto t_oracle = Clock::now();
  if (predicted_oracle_.empty()) {
    oracle_ = std::make_unique<LazyOracle>(
        make_oracle(c_->dag(), c_->sp_structure().get(), opts_.oracle));
    eager_oracle_ms_ = millis_since(t_oracle);
  } else {
    const Computation* cp = c_.get();
    const OracleOptions oopts = opts_.oracle;
    oracle_ = std::make_unique<LazyOracle>([cp, oopts] {
      return make_oracle(cp->dag(), cp->sp_structure().get(), oopts);
    });
  }

  // The batch scan order: ids when topological, else the dag's
  // canonical topological order. The watermark advances along THIS
  // order whatever order events arrive in, which is what makes every
  // first-failure position — and so every witness string — identical
  // to large_check() over the same records.
  topo_.resize(n_);
  if (c_->dag().ids_topological()) {
    for (std::uint32_t p = 0; p < n_; ++p) topo_[p] = p;
  } else {
    topo_ = c_->dag().topological_order();
    posv_.resize(n_);
    for (std::uint32_t p = 0; p < n_; ++p) posv_[topo_[p]] = p;
  }

  base_ = checked_ & kLargeCheckAll;
  if ((checked_ & kSuiteWNPlus) != 0) base_ |= kSuiteWN;
  if ((checked_ & kSuiteNNPlus) != 0) base_ |= kSuiteNN;
  want_fresh_ = (checked_ & kLargeCheckPlus) != 0;
  want_masks_ = (base_ & (kSuiteNN | kSuiteNW | kSuiteWN | kSuiteWW)) != 0;

  // pred is needed for stream validation (predecessors must have
  // arrived) even when no model wants it; succ only for the mask
  // models' backward sweep, as in the batch engine.
  pred_ = make_pred_csr(c_->dag());
  if (want_masks_) succ_ = make_succ_csr(c_->dag());

  groups_ = group_location_accesses(*c_);
  wblock_.assign(n_, 0);
  wloc_.assign(n_, 0);
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    const std::span<const NodeId> wr = groups_.writers(gi);
    const Location l = groups_.locs[gi];
    for (std::size_t i = 0; i < wr.size(); ++i) {
      wblock_[wr[i]] = static_cast<std::uint32_t>(i) + 1;
      wloc_[wr[i]] = l;
    }
  }

  kctx_ = LocKernelCtx{c_.get(),
                       oracle_.get(),
                       &topo_,
                       posv_.empty() ? nullptr : posv_.data(),
                       &pred_,
                       &succ_,
                       wblock_.data(),
                       wloc_.data(),
                       base_,
                       checked_,
                       want_fresh_,
                       opts_.simd.value_or(active_simd_level())};

  // Written locations become states up front, in location order — the
  // batch worklist. Columns start all-⊥ and fill as events arrive.
  std::size_t nwritten = 0;
  for (std::size_t gi = 0; gi < groups_.size(); ++gi)
    if (!groups_.writers(gi).empty()) ++nwritten;
  states_.reserve(nwritten);
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    const std::span<const NodeId> wr = groups_.writers(gi);
    if (wr.empty()) continue;
    auto st = std::make_unique<Loc>();
    st->loc = groups_.locs[gi];
    st->col.assign(n_, kBottom);
    st->writers = wr;
    st->state.init(kctx_, st->loc, &st->col, st->writers);
    states_.push_back(std::move(st));
  }

  // Node -> written-location index (kNoLoc for nops and accesses to
  // never-written locations), plus the write flag: the per-batch
  // column fill below runs without a single op-table probe.
  nloc_of_.assign(n_, kNoLoc);
  is_write_.assign(n_, 0);
  for (NodeId u = 0; u < n_; ++u) {
    const Op o = c_->op(u);
    if (o.is_nop()) continue;
    is_write_[u] = o.is_write() ? 1 : 0;
    const auto it = std::lower_bound(
        states_.begin(), states_.end(), o.loc,
        [](const std::unique_ptr<Loc>& s, Location l) { return s->loc < l; });
    if (it != states_.end() && (*it)->loc == o.loc)
      nloc_of_[u] =
          static_cast<std::uint32_t>(it - states_.begin());
  }

  arrived_.assign(n_, 0);
  group_build_ms_ = millis_since(t0);
  active_ms_ = group_build_ms_;
}

CheckSession::~CheckSession() = default;

const Computation& CheckSession::computation() const noexcept { return *c_; }

void CheckSession::fail_stream(std::string why) { error_ = std::move(why); }

CheckSession::Loc& CheckSession::extra_state_for(Location l) {
  auto it = std::lower_bound(
      states_.begin(), states_.end(), l,
      [](const std::unique_ptr<Loc>& s, Location loc) { return s->loc < loc; });
  if (it != states_.end() && (*it)->loc == l) return **it;
  auto st = std::make_unique<Loc>();
  st->loc = l;
  st->col.assign(n_, kBottom);
  st->state.init(kctx_, l, &st->col, st->writers);
  // Catch up to the kernel's current position: the column is all-⊥
  // over the consumed prefix (this location's first recorded
  // observation is arriving right now, so its scan position is at or
  // past the watermark), which is exactly what the batch scan saw.
  if (consumed_ > 0) st->state.advance(0, consumed_, arena_);
  // Splicing does not disturb nloc_of_: that maps into the written
  // prefix of the task list by location, and extras never carry
  // writers, so written indices are re-derived below.
  Loc& ref = *st;
  const std::size_t at = static_cast<std::size_t>(it - states_.begin());
  states_.insert(it, std::move(st));
  for (NodeId u = 0; u < n_; ++u)
    if (nloc_of_[u] != kNoLoc && nloc_of_[u] >= at) ++nloc_of_[u];
  return ref;
}

void CheckSession::fill_columns(const BinaryTraceEvent* events,
                                std::size_t count) {
  // One pass per written location carrying the last write — the exact
  // observer_from_trace() completion: recorded observations win,
  // writes self-observe, everything else sees the carried write.
  for (std::size_t si = 0; si < states_.size(); ++si) {
    Loc& s = *states_[si];
    if (s.writers.empty()) continue;  // extras fill from events directly
    std::vector<NodeId>& col = s.col;
    const std::uint32_t wi = static_cast<std::uint32_t>(si);
    NodeId last = s.last_write;
    for (std::size_t i = 0; i < count; ++i) {
      const BinaryTraceEvent& e = events[i];
      const NodeId u = e.node;
      if (nloc_of_[u] != wi) {
        if (last != kBottom) col[u] = last;
      } else if (is_write_[u] != 0) {
        col[u] = u;
        last = u;
      } else if (e.observed != 0xFFFFFFFFu) {
        col[u] = e.observed;
      }
    }
    s.last_write = last;
  }
  // Recorded observations at never-written locations still land in Φ
  // (they must fail 2.1 later, so they cannot be dropped here).
  for (std::size_t i = 0; i < count; ++i) {
    const BinaryTraceEvent& e = events[i];
    const NodeId u = e.node;
    if (nloc_of_[u] != kNoLoc || e.observed == 0xFFFFFFFFu) continue;
    const Op o = c_->op(u);
    if (!o.is_read()) continue;
    extra_state_for(o.loc).col[u] = e.observed;
  }
}

void CheckSession::advance_kernel() {
  while (watermark_ < n_ && arrived_[topo_[watermark_]] != 0) ++watermark_;
  if (watermark_ == consumed_) return;
  const auto t0 = Clock::now();
  for (const std::unique_ptr<Loc>& s : states_)
    s->state.advance(consumed_, watermark_, arena_);
  consumed_ = watermark_;
  kernel_ms_ += millis_since(t0);
}

bool CheckSession::feed(const BinaryTraceEvent* events, std::size_t count) {
  if (failed()) return false;
  if (count == 0) return true;
  const auto t0 = Clock::now();

  // Validation pass: the incremental half of trace_consistent_with.
  // Nothing is consumed unless the whole batch validates — a rejected
  // batch leaves the session sticky-failed, not half-applied.
  for (std::size_t i = 0; i < count; ++i) {
    const BinaryTraceEvent& e = events[i];
    const NodeId u = e.node;
    if (u >= n_) {
      fail_stream(format("event seq=%llu names unknown node %u",
                         static_cast<unsigned long long>(e.seq), e.node));
    } else if (e.observed != 0xFFFFFFFFu && e.observed >= n_) {
      fail_stream(format("event seq=%llu observes unknown node %u",
                         static_cast<unsigned long long>(e.seq), e.observed));
    } else if (e.reserved != 0) {
      fail_stream(format("event seq=%llu has a nonzero reserved field",
                         static_cast<unsigned long long>(e.seq)));
    } else if (events_seen_ + i > 0 && e.seq < last_seq_) {
      fail_stream(format(
          "event seq=%llu arrives after seq=%llu: online streams must be "
          "seq-ordered",
          static_cast<unsigned long long>(e.seq),
          static_cast<unsigned long long>(last_seq_)));
    } else if (arrived_[u] != 0) {
      fail_stream(format("node %u appears in more than one event", u));
    } else {
      // Name the smallest late predecessor so the message matches the
      // batch checker regardless of adjacency-list order.
      NodeId late = u;  // sentinel: u is never its own predecessor
      for (std::uint32_t k = pred_.head[u]; k < pred_.head[u + 1]; ++k) {
        const NodeId q = pred_.tgt[k];
        if (arrived_[q] == 0 && (late == u || q < late)) late = q;
      }
      if (late != u)
        fail_stream(format(
            "trace order flips dag edge %u -> %u (node %u ran first)", late,
            u, u));
    }
    if (failed()) {
      // Roll back this batch's arrival marks; the session is dead but
      // its error message should name the first offending event.
      for (std::size_t j = 0; j < i; ++j) arrived_[events[j].node] = 0;
      return false;
    }
    arrived_[u] = 1;
    last_seq_ = e.seq;
  }
  events_seen_ += count;

  if (opts_.retain_events)
    retained_.insert(retained_.end(), events, events + count);

  fill_columns(events, count);
  ingest_ms_ += millis_since(t0);
  advance_kernel();
  active_ms_ += millis_since(t0);
  return true;
}

SessionVerdict CheckSession::fast_verdict() const {
  SessionVerdict v;
  v.events = events_seen_;
  v.consumed = consumed_;
  if (failed()) {
    v.valid = false;
    return v;
  }
  std::uint32_t violated = 0;
  for (const std::unique_ptr<Loc>& s : states_) {
    if (s->state.validity_failed()) v.valid = false;
    if (s->state.lc_known_violated()) violated |= kSuiteLC;
    if (s->state.freshness_known_violated()) violated |= kSuiteFresh;
  }
  if ((violated & kSuiteFresh) != 0)
    violated |= kSuiteWNPlus | kSuiteNNPlus;
  v.violated = violated & checked_;
  return v;
}

LargeCheckReport CheckSession::make_report(bool require_complete) {
  const auto t0 = Clock::now();
  LargeCheckReport report;
  report.checked = checked_;
  if (failed() || (require_complete && events_seen_ != n_)) {
    // The batch engine's large_check_trace() failure shape: checked +
    // detail only. An incomplete stream reports the event-count
    // mismatch the concatenated trace would produce — without killing
    // the session, so a late finish() can still succeed.
    const std::string why =
        failed() ? error_
                 : format("trace has %zu events for %zu nodes",
                          static_cast<std::size_t>(events_seen_), n_);
    report.detail = "trace does not fit the computation: " + why;
    return report;
  }

  report.simd = simd_level_name(kctx_.simd);
  report.shards = 1;
  report.numa = numa_topology().to_string();
  report.csr_bytes = csr_bytes_of(succ_) + csr_bytes_of(pred_);
  report.groups_bytes = groups_.memory_bytes();
  report.aux_bytes =
      (wblock_.capacity() + wloc_.capacity() + posv_.capacity() +
       nloc_of_.capacity()) * sizeof(std::uint32_t) +
      topo_.capacity() * sizeof(NodeId) + is_write_.capacity() +
      arrived_.capacity();
  report.ingest_millis = ingest_ms_;
  report.group_build_millis = group_build_ms_;
  report.kernel_millis = kernel_ms_;

  report.locations.resize(states_.size());
  std::size_t state_bytes = 0;
  std::size_t column_bytes = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    states_[i]->state.finalize_into(report.locations[i], arena_);
    state_bytes += states_[i]->state.memory_bytes();
    column_bytes += states_[i]->col.capacity() * sizeof(NodeId);
  }
  report.report_millis = millis_since(t0);
  arena_.note_peak();
  report.scratch_peak_bytes = arena_.peak_bytes + state_bytes + column_bytes;

  if (oracle_->built()) {
    report.oracle_kind = oracle_->get().kind();
    report.oracle_memory_bytes = oracle_->get().memory_bytes();
    report.oracle_build_millis = predicted_oracle_.empty()
                                     ? eager_oracle_ms_
                                     : oracle_->build_millis();
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
  report.satisfied =
      report.valid_observer ? (report.checked & ~violated) : 0;
  report.peak_rss_bytes = current_peak_rss_bytes();
  if (n_ > 0)
    report.bytes_per_node =
        static_cast<double>(report.csr_bytes + report.groups_bytes +
                            report.scratch_peak_bytes * report.shards +
                            report.aux_bytes + report.oracle_memory_bytes) /
        static_cast<double>(n_);
  active_ms_ += millis_since(t0);
  report.total_millis = active_ms_;
  return report;
}

LargeCheckReport CheckSession::check() { return make_report(false); }

LargeCheckReport CheckSession::finish() { return make_report(true); }

std::size_t CheckSession::memory_bytes() const noexcept {
  std::size_t bytes =
      (wblock_.capacity() + wloc_.capacity() + posv_.capacity() +
       nloc_of_.capacity()) * sizeof(std::uint32_t) +
      topo_.capacity() * sizeof(NodeId) + is_write_.capacity() +
      arrived_.capacity() +
      retained_.capacity() * sizeof(BinaryTraceEvent) +
      csr_bytes_of(pred_) + csr_bytes_of(succ_) + groups_.memory_bytes() +
      arena_.peak_bytes;
  for (const std::unique_ptr<Loc>& s : states_)
    bytes += sizeof(Loc) + s->col.capacity() * sizeof(NodeId) +
             s->state.memory_bytes();
  return bytes;
}

}  // namespace ccmm
