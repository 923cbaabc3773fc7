#include "trace/session_kernel.hpp"

#include <algorithm>

#include "util/str.hpp"

namespace ccmm {

using Clock = std::chrono::steady_clock;

/// One location's Φ column as the stream fills it, plus the write
/// carried across batch boundaries by fill_columns.
struct CheckSession::Loc {
  std::vector<NodeId> col;
  NodeId last_write = kBottom;
};

CheckSession::CheckSession(Computation c, SessionOptions options)
    : c_(std::make_unique<Computation>(std::move(c))),
      opts_(std::move(options)),
      pool_(opts_.pool != nullptr ? opts_.pool : &global_pool()),
      n_(c_->node_count()) {
  const auto t0 = Clock::now();
  driver_.emplace(*c_, opts_.models, opts_.oracle, opts_.simd);
  const auto t_stream = Clock::now();

  // Written locations become states up front, in location order — the
  // batch worklist — packed onto shards by the batch rule. Each node
  // maps to its written location's index (kNoLoc for nops and accesses
  // to never-written locations), and writes are flagged: the per-batch
  // column fill runs without a single op-table probe.
  const LocationGroups& groups = driver_->groups();
  nloc_of_.assign(n_, kNoLoc);
  is_write_.assign(n_, 0);
  std::vector<LocTask> tasks;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const std::span<const NodeId> wr = groups.writers(gi);
    if (wr.empty()) continue;
    const auto si = static_cast<std::uint32_t>(cols_.size());
    Loc& s = *cols_.emplace_back(std::make_unique<Loc>());
    tasks.push_back(LocTask{groups.locs[gi], &s.col, wr});
    for (const NodeId u : groups.accessors(gi)) nloc_of_[u] = si;
    for (const NodeId u : wr) is_write_[u] = 1;
  }
  const std::vector<std::vector<std::size_t>> packing = driver_->pack(
      tasks, driver_->shard_count(tasks.size(), pool_->size()));
  shards_.resize(packing.size());
  for (std::size_t s = 0; s < packing.size(); ++s)
    for (const std::size_t i : packing[s]) {
      shards_[s].kernel.add(driver_->ctx(), tasks[i], i);
      shards_[s].fills.push_back(static_cast<std::uint32_t>(i));
    }
  // Columns start all-⊥. Each shard zero-fills its own on the pool:
  // n words per location are the bulk of a session's setup.
  pool_->fork_join(shards_.size(), [&](std::size_t s) {
    for (const std::uint32_t si : shards_[s].fills)
      cols_[si]->col.assign(n_, kBottom);
  });

  arrived_.assign(n_, 0);
  stream_setup_ms_ = millis_since(t_stream);
  active_ms_ = millis_since(t0);
}

CheckSession::~CheckSession() = default;

const Computation& CheckSession::computation() const noexcept { return *c_; }

void CheckSession::fail_stream(std::string why) { error_ = std::move(why); }

std::vector<NodeId>& CheckSession::extra_column(Location l) {
  const auto [it, fresh] = extras_.try_emplace(l, cols_.size());
  if (fresh) {
    // The new state starts at scan position 0 and the next advance
    // catches it up: its column is all-⊥ below the watermark (this
    // location's first recorded observation is arriving right now, so
    // its scan position is at or past the watermark), which is exactly
    // what the batch scan saw. Report rows stay sorted by location: the
    // new row takes l's rank, and every row at or past it, on every
    // shard, moves down.
    Loc& s = *cols_.emplace_back(std::make_unique<Loc>());
    s.col.assign(n_, kBottom);
    std::size_t rank = 0;
    std::size_t states = 0;
    for (const Shard& sh : shards_) {
      for (const LocState& st : sh.kernel.states)
        if (st.location() < l) ++rank;
      states += sh.kernel.states.size();
    }
    for (Shard& sh : shards_)
      for (std::size_t& row : sh.kernel.rows)
        if (row >= rank) ++row;
    Shard* target = nullptr;
    if (driver_->shard_count(states + 1, pool_->size()) > shards_.size()) {
      target = &shards_.emplace_back();
    } else {
      target = &*std::min_element(
          shards_.begin(), shards_.end(), [](const Shard& a, const Shard& b) {
            return a.kernel.states.size() < b.kernel.states.size();
          });
    }
    target->kernel.add(driver_->ctx(), LocTask{l, &s.col, {}}, rank);
  }
  return cols_[it->second]->col;
}

void CheckSession::fill_extra_columns(const BinaryTraceEvent* events,
                                      std::size_t count) {
  // Recorded observations at never-written locations still land in Φ
  // (they must fail 2.1 later, so they cannot be dropped here).
  for (std::size_t i = 0; i < count; ++i) {
    const BinaryTraceEvent& e = events[i];
    const NodeId u = e.node;
    if (nloc_of_[u] != kNoLoc || e.observed == 0xFFFFFFFFu) continue;
    const Op o = c_->op(u);
    if (!o.is_read()) continue;
    extra_column(o.loc)[u] = e.observed;
  }
}

void CheckSession::fill_columns(Shard& sh, const BinaryTraceEvent* events,
                                std::size_t count) {
  // One pass per written location carrying the last write — the exact
  // observer_from_trace() completion: recorded observations win,
  // writes self-observe, everything else sees the carried write.
  for (const std::uint32_t wi : sh.fills) {
    Loc& s = *cols_[wi];
    std::vector<NodeId>& col = s.col;
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
      const Csr& pred = driver_->pred();
      NodeId late = u;  // sentinel: u is never its own predecessor
      for (std::uint32_t k = pred.head[u]; k < pred.head[u + 1]; ++k) {
        const NodeId q = pred.tgt[k];
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

  // A throw past this point (an oracle the options ask for but the
  // computation cannot build, an allocation failure) leaves the shards
  // advanced to different points, so it kills the session like a
  // rejected batch rather than escaping to the caller.
  try {
    // Splices touch every shard's rows, so they happen before the
    // fan-out.
    fill_extra_columns(events, count);
    const std::vector<NodeId>& topo = driver_->topo();
    while (watermark_ < n_ && arrived_[topo[watermark_]] != 0) ++watermark_;
    ingest_ms_ += millis_since(t0);

    pool_->fork_join(shards_.size(), [&](std::size_t s) {
      Shard& sh = shards_[s];
      const auto tf = Clock::now();
      fill_columns(sh, events, count);
      sh.kernel.stats.ingest_ms += millis_since(tf);
      sh.kernel.advance_to(watermark_, LocDriver::kChunkNodes);
    });
  } catch (const std::exception& e) {
    fail_stream(format("checking the batch failed: %s", e.what()));
    return false;
  }
  active_ms_ += millis_since(t0);
  return true;
}

SessionVerdict CheckSession::fast_verdict() const {
  SessionVerdict v;
  v.events = events_seen_;
  v.consumed = watermark_;
  if (failed()) {
    v.valid = false;
    return v;
  }
  std::uint32_t violated = 0;
  for (const Shard& sh : shards_)
    for (const LocState& st : sh.kernel.states) {
      if (st.validity_failed()) v.valid = false;
      if (st.lc_known_violated()) violated |= kSuiteLC;
      if (st.freshness_known_violated()) violated |= kSuiteFresh;
    }
  if ((violated & kSuiteFresh) != 0)
    violated |= kSuiteWNPlus | kSuiteNNPlus;
  v.violated = violated & driver_->checked();
  return v;
}

LargeCheckReport CheckSession::make_report(bool require_complete) {
  const auto t0 = Clock::now();
  LargeCheckReport report;
  report.checked = driver_->checked();
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

  // Each shard finalizes into its own rows.
  report.locations.resize(cols_.size());
  pool_->fork_join(shards_.size(), [&](std::size_t s) {
    shards_[s].kernel.finalize(report.locations);
  });
  std::vector<LocShardStats> stats;
  stats.reserve(shards_.size());
  for (const Shard& sh : shards_) stats.push_back(sh.kernel.stats);
  driver_->fold(report, stats, stream_bytes());
  report.ingest_millis += ingest_ms_;
  report.group_build_millis += stream_setup_ms_;
  active_ms_ += millis_since(t0);
  report.total_millis = active_ms_;
  return report;
}

LargeCheckReport CheckSession::check() { return make_report(false); }

LargeCheckReport CheckSession::finish() { return make_report(true); }

std::size_t CheckSession::stream_bytes() const noexcept {
  std::size_t bytes = nloc_of_.capacity() * sizeof(std::uint32_t) +
                      is_write_.capacity() + arrived_.capacity();
  for (const std::unique_ptr<Loc>& s : cols_)
    bytes += s->col.capacity() * sizeof(NodeId);
  return bytes;
}

std::size_t CheckSession::memory_bytes() const noexcept {
  std::size_t bytes = driver_->memory_bytes() + stream_bytes() +
                      retained_.capacity() * sizeof(BinaryTraceEvent) +
                      cols_.size() * sizeof(Loc);
  for (const Shard& sh : shards_) {
    bytes += sh.kernel.arena.peak_bytes +
             sh.kernel.staged.blk.capacity() * sizeof(std::uint32_t) +
             sh.fills.capacity() * sizeof(std::uint32_t);
    for (const LocState& st : sh.kernel.states) bytes += st.memory_bytes();
  }
  return bytes;
}

}  // namespace ccmm
