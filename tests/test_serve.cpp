// The online-serving differential: a CheckSession fed the trace's
// binary records — in any chunking, in any linear-extension arrival
// order — must produce verdicts AND witness strings byte-identical to
// `ccmm_check --trace` (large_check_trace) on the concatenated trace.
// The second half drives the whole daemon: framing protocol, many
// concurrent clients, reconnects, snapshot/restore, backpressure and
// the /status endpoint, with the *Parallel* cases running under TSan.
#include "trace/session_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "exec/sc_memory.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "exec/schedule.hpp"
#include "exec/weak_memory.hpp"
#include "exec/workload.hpp"
#include "dag/generators.hpp"
#include "io/text.hpp"
#include "proc/random_program.hpp"
#include "serve/protocol.hpp"
#include "trace/large_check.hpp"
#include "trace/loc_driver.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

/// Execution-order binary records of a trace — what a serve client
/// puts on the wire (write_trace_binary's stable seq sort included).
std::vector<BinaryTraceEvent> records_of(const Trace& trace) {
  std::vector<std::uint32_t> order(trace.events.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return trace.events[a].seq < trace.events[b].seq;
                   });
  std::vector<BinaryTraceEvent> out(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const TraceEvent& e = trace.events[order[i]];
    out[i] = BinaryTraceEvent{e.seq, e.time, e.proc, e.node,
                              e.observed == kBottom
                                  ? 0xFFFFFFFFu
                                  : static_cast<std::uint32_t>(e.observed),
                              0};
  }
  return out;
}

/// Normalize seq to the sorted arrival order so corrupted streams stay
/// seq-ordered however we perturb them.
void renumber(std::vector<BinaryTraceEvent>& recs) {
  for (std::size_t i = 0; i < recs.size(); ++i) recs[i].seq = i;
}

/// Point some read events at other writes of their location — stale
/// ones violate models, forward ones exercise the oracle and the
/// validity scan. Mirrors test_loc_incremental's observer corruption
/// at the trace level.
void corrupt_records(const Computation& c, std::vector<BinaryTraceEvent>& recs,
                     Rng& rng, int flips) {
  for (int k = 0; k < flips; ++k) {
    const std::size_t i = rng.below(recs.size());
    const NodeId u = recs[i].node;
    if (!c.op(u).is_read()) continue;
    const std::vector<NodeId> ws = c.writers(c.op(u).loc);
    if (ws.empty()) continue;
    recs[i].observed = ws[rng.below(ws.size())];
  }
}

void expect_reports_identical(const LargeCheckReport& got,
                              const LargeCheckReport& want,
                              const std::string& ctx) {
  ASSERT_EQ(got.checked, want.checked) << ctx;
  ASSERT_EQ(got.valid_observer, want.valid_observer)
      << ctx << " got=" << got.detail << " want=" << want.detail;
  EXPECT_EQ(got.satisfied, want.satisfied) << ctx;
  EXPECT_EQ(got.detail, want.detail) << ctx;
  // Both paths fold through the same driver: the setup and oracle
  // accounting must agree too, not only the verdicts.
  EXPECT_EQ(got.oracle_kind, want.oracle_kind) << ctx;
  EXPECT_EQ(got.oracle_memory_bytes, want.oracle_memory_bytes) << ctx;
  EXPECT_EQ(got.simd, want.simd) << ctx;
  EXPECT_EQ(got.shards, want.shards) << ctx;
  EXPECT_EQ(got.csr_bytes, want.csr_bytes) << ctx;
  EXPECT_EQ(got.groups_bytes, want.groups_bytes) << ctx;
  ASSERT_EQ(got.locations.size(), want.locations.size()) << ctx;
  for (std::size_t i = 0; i < got.locations.size(); ++i) {
    EXPECT_EQ(got.locations[i].loc, want.locations[i].loc) << ctx;
    EXPECT_EQ(got.locations[i].valid, want.locations[i].valid) << ctx;
    EXPECT_EQ(got.locations[i].violated, want.locations[i].violated) << ctx;
    EXPECT_EQ(got.locations[i].writers, want.locations[i].writers) << ctx;
    EXPECT_EQ(got.locations[i].detail, want.locations[i].detail) << ctx;
  }
}

Trace trace_from_records(const Computation& c,
                         const std::vector<BinaryTraceEvent>& recs) {
  Trace t;
  t.events.resize(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    TraceEvent& e = t.events[i];
    e.seq = recs[i].seq;
    e.time = recs[i].time;
    e.proc = static_cast<ProcId>(recs[i].proc);
    e.node = static_cast<NodeId>(recs[i].node);
    e.op = recs[i].node < c.node_count() ? c.op(recs[i].node) : Op::nop();
    e.observed = static_cast<NodeId>(recs[i].observed);
  }
  return t;
}

/// Stream `recs` through a CheckSession in `chunk`-sized feeds and
/// demand the finish() report match the batch postmortem byte for
/// byte. With a `pool`, both run sharded on it; without one, the batch
/// runs serially. Returns the session's report.
LargeCheckReport expect_session_matches_batch(
    const Computation& c, const std::vector<BinaryTraceEvent>& recs,
    std::uint32_t models, std::size_t chunk, ThreadPool* pool = nullptr) {
  SessionOptions sopt;
  sopt.models = models;
  sopt.pool = pool;
  CheckSession session(c, sopt);
  for (std::size_t at = 0; at < recs.size(); at += chunk) {
    const std::size_t k = std::min(chunk, recs.size() - at);
    if (!session.feed(recs.data() + at, k)) break;
  }
  LargeCheckReport got = session.finish();

  LargeCheckOptions bopt;
  bopt.models = models;
  bopt.pool = pool;
  bopt.parallel = pool != nullptr;
  const LargeCheckReport want =
      large_check_trace(c, trace_from_records(c, recs), bopt);
  expect_reports_identical(
      got, want,
      "chunk=" + std::to_string(chunk) + " models=" + std::to_string(models) +
          (pool != nullptr ? " pool=" + std::to_string(pool->size()) : ""));

  // finish() is idempotent: the verdict is a pure function of the
  // consumed stream.
  expect_reports_identical(session.finish(), want, "refinish");
  return got;
}

TEST(CheckSession, SerialScStreamMatchesBatch) {
  Rng rng(11);
  proc::RandomCilkOptions opt;
  opt.target_ops = 3000;
  opt.nlocations = 8;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> recs = records_of(run_serial(c, mem).trace);
  for (const std::size_t chunk : {1u, 7u, 64u, 4096u})
    for (const std::uint32_t models : std::initializer_list<std::uint32_t>{
             kSuiteLC, kLargeCheckAll, kLargeCheckExt})
      expect_session_matches_batch(c, recs, models, chunk);
}

TEST(CheckSession, CorruptedStreamsMatchBatch) {
  // Stale and forward observations: violations, invalid observers and
  // oracle-consulting 2.2 pairs, all byte-compared against batch.
  Rng rng(23);
  proc::RandomCilkOptions opt;
  opt.target_ops = 2000;
  opt.nlocations = 5;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> base = records_of(run_serial(c, mem).trace);
  for (int round = 0; round < 6; ++round) {
    std::vector<BinaryTraceEvent> recs = base;
    corrupt_records(c, recs, rng, 2 + round);
    renumber(recs);
    for (const std::size_t chunk : {1u, 64u, 4096u})
      expect_session_matches_batch(c, recs, kLargeCheckExt, chunk);
  }
}

TEST(CheckSession, InterleavedScheduleStreamMatchesBatch) {
  // A multi-proc schedule: the arrival order is a nontrivial linear
  // extension, so the kernel's watermark lags arrival and the session
  // exercises the out-of-scan-order path.
  Rng rng(31);
  const Computation c = workload::random_ops(gen::random_dag(400, 0.03, rng),
                                             6, 0.4, 0.4, rng);
  WeakMemory mem(5);
  const Schedule s = greedy_schedule(c, 4);
  const std::vector<BinaryTraceEvent> base =
      records_of(run_execution(c, s, mem).trace);
  for (const std::size_t chunk : {1u, 7u, 64u})
    expect_session_matches_batch(c, base, kLargeCheckExt, chunk);
  std::vector<BinaryTraceEvent> bad = base;
  corrupt_records(c, bad, rng, 4);
  renumber(bad);
  for (const std::size_t chunk : {1u, 64u})
    expect_session_matches_batch(c, bad, kLargeCheckExt, chunk);
}

/// Retarget one read of `c` per location in `extras` (each
/// never-written), plant a recorded observation on each mid-stream,
/// and demand online ≡ batch. Each extra state's report row lands in
/// the location-sorted task list at a position determined by its
/// location, so callers pick them to land before, between or after the
/// written states.
void expect_extra_locations_match_batch(Computation c,
                                        std::vector<Location> extras) {
  std::vector<Op> ops;
  ops.reserve(c.node_count());
  for (NodeId u = 0; u < c.node_count(); ++u) ops.push_back(c.op(u));
  std::vector<NodeId> readers;
  for (NodeId u = 0; u < c.node_count() && readers.size() < extras.size();
       ++u)
    if (ops[u].is_read()) {
      ops[u] = Op::read(extras[readers.size()]);
      readers.push_back(u);
    }
  ASSERT_EQ(readers.size(), extras.size());
  c.set_ops(ops);
  ScMemory mem;
  std::vector<BinaryTraceEvent> recs = records_of(run_serial(c, mem).trace);
  std::size_t planted = 0;
  for (BinaryTraceEvent& r : recs)
    if (std::find(readers.begin(), readers.end(), r.node) != readers.end()) {
      r.observed = recs.front().node;  // any node: must fail 2.1
      ++planted;
    }
  ASSERT_EQ(planted, extras.size());
  renumber(recs);
  for (const std::size_t chunk : {1u, 64u})
    expect_session_matches_batch(c, recs, kLargeCheckExt, chunk);
}

TEST(CheckSession, NeverWrittenLocationObservationsMatchBatch) {
  // A recorded observation at a never-written location must spawn the
  // batch engine's extra all-⊥ column (always failing 2.1) online too.
  // Location 999 sorts after every written location: the splice lands
  // at the tail of the task list.
  Rng rng(41);
  const Computation c = workload::random_ops(gen::random_dag(120, 0.05, rng),
                                             4, 0.5, 0.1, rng);
  expect_extra_locations_match_batch(c, {Location{999}});
}

TEST(CheckSession, NeverWrittenLowLocationSplicesBeforeWrittenStates) {
  // The mirror case: the extra location sorts BEFORE every written
  // one, so the mid-stream splice moves every written location's
  // report row. Regression test for per-state bookkeeping going out of
  // alignment after a splice (out-of-bounds writes and wrong carried
  // last-writes).
  Rng rng(41);
  Computation c = workload::random_ops(gen::random_dag(120, 0.05, rng), 4,
                                       0.5, 0.1, rng);
  std::vector<Op> ops;
  ops.reserve(c.node_count());
  for (NodeId u = 0; u < c.node_count(); ++u) {
    Op o = c.op(u);
    if (!o.is_nop()) ++o.loc;  // free up Location 0
    ops.push_back(o);
  }
  c.set_ops(ops);
  expect_extra_locations_match_batch(c, {Location{0}});
}

TEST(CheckSession, TwoNeverWrittenLocationsSpliceInLocationOrder) {
  // Written locations become the odd ones; the first extra (4, on the
  // earliest retargeted read) lands between written locations, the
  // second (0) then lands before all of them and moves every row,
  // the first extra's included.
  Rng rng(43);
  Computation c = workload::random_ops(gen::random_dag(120, 0.05, rng), 4,
                                       0.5, 0.1, rng);
  std::vector<Op> ops;
  ops.reserve(c.node_count());
  for (NodeId u = 0; u < c.node_count(); ++u) {
    Op o = c.op(u);
    if (!o.is_nop()) o.loc = 2 * o.loc + 1;
    ops.push_back(o);
  }
  c.set_ops(ops);
  expect_extra_locations_match_batch(c, {Location{4}, Location{0}});
}

TEST(CheckSession, EagerOracleStreamMatchesBatch) {
  // kAuto on a computation with no SP parse above closure_threshold:
  // the oracle kind is unpredictable, so both paths build the oracle
  // up front and must report the same kind and bytes.
  Rng rng(71);
  const Computation c = workload::random_ops(
      gen::random_dag(2200, 0.002, rng), 6, 0.4, 0.4, rng);
  ASSERT_GT(c.node_count(), OracleOptions{}.closure_threshold);
  ASSERT_EQ(c.sp_structure(), nullptr);
  WeakMemory mem(5);
  const std::vector<BinaryTraceEvent> recs =
      records_of(run_execution(c, greedy_schedule(c, 4), mem).trace);
  const LargeCheckReport got =
      expect_session_matches_batch(c, recs, kLargeCheckExt, 512);
  EXPECT_FALSE(got.oracle_kind.empty());
  EXPECT_GT(got.oracle_memory_bytes, 0u);
}

TEST(CheckSession, MidStreamCheckAndFastVerdictAreConsistent) {
  Rng rng(53);
  proc::RandomCilkOptions opt;
  opt.target_ops = 1500;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  std::vector<BinaryTraceEvent> recs = records_of(run_serial(c, mem).trace);
  corrupt_records(c, recs, rng, 5);
  renumber(recs);

  SessionOptions sopt;
  sopt.models = kLargeCheckExt;
  CheckSession session(c, sopt);
  for (std::size_t at = 0; at < recs.size(); at += 97) {
    const std::size_t k = std::min<std::size_t>(97, recs.size() - at);
    ASSERT_TRUE(session.feed(recs.data() + at, k)) << session.error();
    // The fast verdict's sticky bits are a lower bound on the full
    // prefix verdict, and its validity flag matches exactly.
    const SessionVerdict fast = session.fast_verdict();
    const LargeCheckReport mid = session.check();
    EXPECT_EQ(fast.valid, mid.valid_observer);
    std::uint32_t mid_violated = 0;
    for (const LocationCheck& lc : mid.locations) mid_violated |= lc.violated;
    EXPECT_EQ(fast.violated & ~mid_violated, 0u);
    EXPECT_EQ(fast.events, session.events_seen());
  }
  const LargeCheckReport final_report = session.finish();
  LargeCheckOptions bopt;
  bopt.models = kLargeCheckExt;
  bopt.parallel = false;
  expect_reports_identical(
      final_report, large_check_trace(c, trace_from_records(c, recs), bopt),
      "after mid-stream checks");
}

TEST(CheckSession, RejectsInconsistentStreams) {
  Rng rng(61);
  proc::RandomCilkOptions opt;
  opt.target_ops = 200;
  opt.nlocations = 3;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> recs = records_of(run_serial(c, mem).trace);
  const std::size_t n = c.node_count();

  {  // duplicate node
    SessionOptions so;
    CheckSession s(c, so);
    ASSERT_TRUE(s.feed(recs.data(), 2));
    BinaryTraceEvent dup = recs[1];
    dup.seq = recs[2].seq;
    EXPECT_FALSE(s.feed(&dup, 1));
    EXPECT_NE(s.error().find("more than one event"), std::string::npos);
    const LargeCheckReport r = s.finish();
    EXPECT_FALSE(r.valid_observer);
    EXPECT_NE(r.detail.find("trace does not fit the computation"),
              std::string::npos);
  }
  {  // unknown node
    CheckSession s(c, {});
    BinaryTraceEvent bad = recs[0];
    bad.node = static_cast<std::uint32_t>(n + 7);
    EXPECT_FALSE(s.feed(&bad, 1));
    EXPECT_NE(s.error().find("unknown node"), std::string::npos);
  }
  {  // successor before its predecessor (flipped dag edge)
    NodeId child = kBottom;
    for (NodeId u = 0; u < n && child == kBottom; ++u)
      if (!c.dag().pred(u).empty()) child = u;
    ASSERT_NE(child, kBottom);
    CheckSession s(c, {});
    BinaryTraceEvent first{};
    first.seq = 0;
    first.node = child;
    first.observed = 0xFFFFFFFFu;
    EXPECT_FALSE(s.feed(&first, 1));
    EXPECT_NE(s.error().find("flips dag edge"), std::string::npos);
  }
  {  // seq going backwards
    std::vector<BinaryTraceEvent> renum = recs;
    renumber(renum);  // seq = 0,1,2,...
    CheckSession s(c, {});
    ASSERT_TRUE(s.feed(renum.data(), 3));
    BinaryTraceEvent back = renum[3];
    back.seq = 1;  // strictly before the last accepted seq (2)
    EXPECT_FALSE(s.feed(&back, 1));
    EXPECT_NE(s.error().find("seq-ordered"), std::string::npos);
  }
  {  // incomplete stream: batch's event-count mismatch, verbatim
    CheckSession s(c, {});
    ASSERT_TRUE(s.feed(recs.data(), recs.size() / 2));
    const LargeCheckReport r = s.finish();
    LargeCheckOptions bopt;
    bopt.parallel = false;
    Trace half = trace_from_records(c, recs);
    half.events.resize(recs.size() / 2);
    const LargeCheckReport want = large_check_trace(c, half, bopt);
    EXPECT_EQ(r.detail, want.detail);
    // ...and the session is still alive: completing it still works.
    ASSERT_TRUE(s.feed(recs.data() + recs.size() / 2,
                       recs.size() - recs.size() / 2));
    EXPECT_TRUE(s.finish().valid_observer);
  }
}

TEST(CheckSession, RetainedEventReplayReproducesVerdicts) {
  // The snapshot/restore substrate: replaying the retained log through
  // a fresh session lands in an identical state.
  Rng rng(71);
  proc::RandomCilkOptions opt;
  opt.target_ops = 800;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  std::vector<BinaryTraceEvent> recs = records_of(run_serial(c, mem).trace);
  corrupt_records(c, recs, rng, 3);
  renumber(recs);

  SessionOptions sopt;
  sopt.models = kLargeCheckExt;
  sopt.retain_events = true;
  CheckSession a(c, sopt);
  ASSERT_TRUE(a.feed(recs.data(), recs.size() / 3));

  CheckSession b(c, sopt);
  ASSERT_TRUE(b.feed(a.retained_events().data(), a.retained_events().size()));
  ASSERT_TRUE(a.feed(recs.data() + recs.size() / 3,
                     recs.size() - recs.size() / 3));
  ASSERT_TRUE(b.feed(recs.data() + recs.size() / 3,
                     recs.size() - recs.size() / 3));
  expect_reports_identical(b.finish(), a.finish(), "retained replay");
}

// ---------------------------------------------------------------------------
// Sharded sessions: from LocDriver::kShardMinNodes up, a session packs
// its locations onto one shard per pool worker, as the batch engine
// does. Every case runs on explicit pools of 1, 2 and 4 threads against
// the batch report on the same pool, so `shards` is compared too.

/// Three pools, so each case runs on one, two and four shards.
struct ShardPools {
  ThreadPool one{1};
  ThreadPool two{2};
  ThreadPool four{4};
  [[nodiscard]] std::array<ThreadPool*, 3> all() {
    return {&one, &two, &four};
  }
};

/// A random Cilk computation past the sharding threshold.
Computation sharded_computation(std::uint64_t seed, std::size_t nlocations) {
  Rng rng(seed);
  proc::RandomCilkOptions opt;
  opt.target_ops = 20'000;
  opt.nlocations = nlocations;
  Computation c = proc::random_cilk(opt, rng);
  EXPECT_GE(c.node_count(), LocDriver::kShardMinNodes);
  return c;
}

TEST(CheckSessionSharded, SerialScStreamMatchesBatch) {
  ShardPools pools;
  const Computation c = sharded_computation(311, 8);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> recs =
      records_of(run_serial(c, mem).trace);
  for (ThreadPool* pool : pools.all())
    for (const std::uint32_t models :
         std::initializer_list<std::uint32_t>{kSuiteLC, kLargeCheckExt}) {
      const LargeCheckReport got =
          expect_session_matches_batch(c, recs, models, 4096, pool);
      EXPECT_EQ(got.shards, std::min(pool->size(), got.locations.size()));
    }
  // Odd batch sizes cut chunks and fills at other points.
  expect_session_matches_batch(c, recs, kLargeCheckExt, 1000, &pools.four);
}

TEST(CheckSessionSharded, CorruptedStreamsMatchBatch) {
  ShardPools pools;
  const Computation c = sharded_computation(313, 6);
  Rng rng(317);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> base =
      records_of(run_serial(c, mem).trace);
  for (int round = 0; round < 3; ++round) {
    std::vector<BinaryTraceEvent> recs = base;
    corrupt_records(c, recs, rng, 3 + 2 * round);
    renumber(recs);
    for (ThreadPool* pool : pools.all())
      expect_session_matches_batch(c, recs, kLargeCheckExt, 4096, pool);
  }
}

TEST(CheckSessionSharded, InterleavedScheduleStreamMatchesBatch) {
  // A four-processor schedule: arrival runs ahead of the scan order, so
  // the watermark waits for holes while the shards advance.
  ShardPools pools;
  const Computation c = sharded_computation(331, 6);
  WeakMemory mem(5);
  const std::vector<BinaryTraceEvent> recs =
      records_of(run_execution(c, greedy_schedule(c, 4), mem).trace);
  {
    SessionOptions sopt;
    sopt.pool = &pools.four;
    CheckSession s(c, sopt);
    bool waited = false;
    for (std::size_t at = 0; at < recs.size(); at += 4096) {
      ASSERT_TRUE(s.feed(recs.data() + at,
                         std::min<std::size_t>(4096, recs.size() - at)));
      waited = waited || s.consumed() < s.events_seen();
    }
    EXPECT_TRUE(waited) << "the schedule never ran ahead of the scan order";
  }
  for (ThreadPool* pool : pools.all())
    expect_session_matches_batch(c, recs, kLargeCheckExt, 4096, pool);
}

/// The SC execution of `c` in id order (topological for a Cilk
/// computation): every read observes the last earlier write of its
/// location, so no observation points forward in the scan order and no
/// check has to build the precedence oracle.
std::vector<BinaryTraceEvent> id_order_records(const Computation& c) {
  std::map<Location, NodeId> last;
  std::vector<BinaryTraceEvent> recs(c.node_count());
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    std::uint32_t observed = 0xFFFFFFFFu;
    if (o.is_write()) {
      last[o.loc] = u;
      observed = u;
    } else if (o.is_read() && last.count(o.loc) != 0) {
      observed = last[o.loc];
    }
    recs[u] = BinaryTraceEvent{u, u, 0, u, observed, 0};
  }
  return recs;
}

TEST(CheckSessionSharded, NeverWrittenLocationSplicesOntoAnotherShard) {
  // Three written locations, moved up to free Location 0; the first
  // read past the middle of the stream is retargeted to Location 0 with
  // a recorded observation. Its state is spliced mid-stream ahead of
  // every written row: on four workers it opens a fourth shard, on two
  // it joins the shard holding one location (shard 1), and every row on
  // the other shards moves down.
  ShardPools pools;
  Computation c = sharded_computation(337, 3);
  const NodeId n = static_cast<NodeId>(c.node_count());
  std::vector<Op> ops;
  ops.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    Op o = c.op(u);
    if (!o.is_nop()) ++o.loc;
    ops.push_back(o);
  }
  NodeId reader = kBottom;
  for (NodeId u = n / 2; u < n && reader == kBottom; ++u)
    if (ops[u].is_read()) reader = u;
  ASSERT_NE(reader, kBottom);
  ops[reader] = Op::read(Location{0});
  // Relabelling keeps the dag, so its SP parse (and the cheap sp-order
  // oracle) still holds.
  const SpStructurePtr sp = c.sp_structure();
  c.set_ops(ops);
  c.set_sp_structure(sp);
  std::vector<BinaryTraceEvent> recs = id_order_records(c);
  recs[reader].observed = 0;  // any node: must fail 2.1
  for (ThreadPool* pool : pools.all()) {
    const LargeCheckReport got =
        expect_session_matches_batch(c, recs, kLargeCheckExt, 4096, pool);
    ASSERT_EQ(got.locations.size(), 4u);
    EXPECT_EQ(got.locations.front().loc, Location{0});
    EXPECT_EQ(got.shards, std::min<std::size_t>(pool->size(), 4));
  }
}

TEST(CheckSessionSharded, RejectedBatchRollsBackAndReportsTheBatchError) {
  ShardPools pools;
  const Computation c = sharded_computation(347, 8);
  ScMemory mem;
  std::vector<BinaryTraceEvent> recs = records_of(run_serial(c, mem).trace);
  renumber(recs);
  const std::size_t half = recs.size() / 2;
  // The stream repeats an already-arrived node in the middle of the
  // batch after `half`; the batch engine sees the whole stream.
  std::vector<BinaryTraceEvent> sent = recs;
  sent[half + 2048].node = recs[half - 1].node;
  const std::vector<BinaryTraceEvent> bad(sent.begin() + half,
                                          sent.begin() + half + 4096);
  for (ThreadPool* pool : pools.all()) {
    SessionOptions sopt;
    sopt.models = kLargeCheckExt;
    sopt.pool = pool;
    CheckSession s(c, sopt);
    ASSERT_TRUE(s.feed(recs.data(), half));
    const SessionVerdict before = s.fast_verdict();
    EXPECT_FALSE(s.feed(bad.data(), bad.size()));
    EXPECT_NE(s.error().find("more than one event"), std::string::npos)
        << s.error();
    EXPECT_EQ(s.events_seen(), half);
    EXPECT_EQ(s.consumed(), before.consumed);
    EXPECT_FALSE(s.feed(recs.data() + half, 1));  // sticky
    LargeCheckOptions bopt;
    bopt.models = kLargeCheckExt;
    bopt.pool = pool;
    expect_reports_identical(
        s.finish(), large_check_trace(c, trace_from_records(c, sent), bopt),
        "rejected batch pool=" + std::to_string(pool->size()));
  }
}

TEST(CheckSessionSharded, SnapshotRestoreMatchesBatch) {
  ShardPools pools;
  const Computation c = sharded_computation(349, 8);
  Rng rng(353);
  ScMemory mem;
  std::vector<BinaryTraceEvent> recs = records_of(run_serial(c, mem).trace);
  corrupt_records(c, recs, rng, 5);
  renumber(recs);
  const std::size_t third = recs.size() / 3;
  for (ThreadPool* pool : pools.all()) {
    SessionOptions sopt;
    sopt.models = kLargeCheckExt;
    sopt.retain_events = true;
    sopt.pool = pool;
    CheckSession a(c, sopt);
    for (std::size_t at = 0; at < third; at += 4096)
      ASSERT_TRUE(a.feed(recs.data() + at, std::min<std::size_t>(
                                               4096, third - at)));
    const std::string blob = serve::encode_snapshot(a);
    serve::SnapshotImage img = serve::decode_snapshot(
        reinterpret_cast<const unsigned char*>(blob.data()), blob.size());
    img.options.pool = pool;  // process-local: not part of the image
    CheckSession b(io::read_computation(img.computation_text), img.options);
    ASSERT_TRUE(b.feed(img.events.data(), img.events.size()));
    for (CheckSession* s : {&a, &b})
      ASSERT_TRUE(s->feed(recs.data() + third, recs.size() - third));
    LargeCheckOptions bopt;
    bopt.models = kLargeCheckExt;
    bopt.pool = pool;
    const LargeCheckReport want =
        large_check_trace(c, trace_from_records(c, recs), bopt);
    const std::string ctx = " pool=" + std::to_string(pool->size());
    expect_reports_identical(b.finish(), want, "restored" + ctx);
    expect_reports_identical(a.finish(), want, "snapshot source" + ctx);
  }
}

TEST(CheckSessionSharded, OneShardRunsInlineAndSubmitsNothing) {
  // The session alone submits nothing; the batch run on the same pool
  // afterwards (its observer fill is a parallel_for) may.
  const auto expect_inline = [](const Computation& c, ThreadPool& pool) {
    ScMemory mem;
    const std::vector<BinaryTraceEvent> recs =
        records_of(run_serial(c, mem).trace);
    SessionOptions sopt;
    sopt.models = kLargeCheckExt;
    sopt.pool = &pool;
    CheckSession s(c, sopt);
    for (std::size_t at = 0; at < recs.size(); at += 4096)
      ASSERT_TRUE(s.feed(recs.data() + at,
                         std::min<std::size_t>(4096, recs.size() - at)));
    const LargeCheckReport got = s.finish();
    EXPECT_EQ(got.shards, 1u);
    EXPECT_EQ(pool.submitted(), 0u);
    LargeCheckOptions bopt;
    bopt.models = kLargeCheckExt;
    bopt.pool = &pool;
    expect_reports_identical(
        got, large_check_trace(c, trace_from_records(c, recs), bopt),
        "one shard pool=" + std::to_string(pool.size()));
  };
  {  // Below the sharding threshold, on a four-worker pool.
    ThreadPool pool(4);
    Rng rng(359);
    proc::RandomCilkOptions opt;
    opt.target_ops = 3000;
    opt.nlocations = 8;
    const Computation c = proc::random_cilk(opt, rng);
    ASSERT_LT(c.node_count(), LocDriver::kShardMinNodes);
    expect_inline(c, pool);
  }
  {  // CCMM_THREADS=1: a one-worker pool, past the threshold.
    const char* prev = std::getenv("CCMM_THREADS");
    const std::string saved = prev != nullptr ? prev : "";
    ::setenv("CCMM_THREADS", "1", 1);
    ThreadPool pool;  // sized from the environment
    if (prev != nullptr)
      ::setenv("CCMM_THREADS", saved.c_str(), 1);
    else
      ::unsetenv("CCMM_THREADS");
    ASSERT_EQ(pool.size(), 1u);
    expect_inline(sharded_computation(367, 8), pool);
  }
}

/// id_order_records(c) with one read retargeted to observe the last
/// write of its location, later in the scan order: condition 2.2 must
/// consult the precedence oracle for it.
std::vector<BinaryTraceEvent> forward_observation_records(
    const Computation& c) {
  std::map<Location, NodeId> last_write;
  for (NodeId u = 0; u < c.node_count(); ++u)
    if (c.op(u).is_write()) last_write[c.op(u).loc] = u;
  std::vector<BinaryTraceEvent> recs = id_order_records(c);
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    const auto it = last_write.find(o.loc);
    if (o.is_read() && it != last_write.end() && it->second > u) {
      recs[u].observed = it->second;
      return recs;
    }
  }
  ADD_FAILURE() << "no read precedes a write of its location";
  return recs;
}

TEST(CheckSessionSharded, KernelFailureKillsTheSessionNotTheCaller) {
  // Forcing the SP-order oracle on a computation with no SP parse
  // throws the first time condition 2.2 needs the oracle, on whichever
  // shard and thread holds that location: feed() reports it, and the
  // session is dead rather than half-advanced.
  ShardPools pools;
  Computation c = sharded_computation(383, 8);
  c.set_sp_structure(nullptr);
  const std::vector<BinaryTraceEvent> recs = forward_observation_records(c);
  for (ThreadPool* pool : pools.all()) {
    SessionOptions sopt;
    sopt.models = kLargeCheckExt;
    sopt.oracle.choice = OracleChoice::kSpOrder;
    sopt.pool = pool;
    CheckSession s(c, sopt);
    bool fed = true;
    for (std::size_t at = 0; fed && at < recs.size(); at += 4096)
      fed = s.feed(recs.data() + at,
                   std::min<std::size_t>(4096, recs.size() - at));
    EXPECT_FALSE(fed) << "pool=" << pool->size();
    EXPECT_NE(s.error().find("SP-order oracle requires an SP parse"),
              std::string::npos)
        << s.error();
    EXPECT_FALSE(s.fast_verdict().valid);
    EXPECT_FALSE(s.feed(recs.data(), 1));  // sticky
    const LargeCheckReport r = s.finish();
    EXPECT_FALSE(r.valid_observer);
    EXPECT_NE(r.detail.find("SP-order oracle"), std::string::npos)
        << r.detail;
  }
}

TEST(CheckSessionParallel, FourSessionsFedConcurrentlyOnOnePool) {
  // The TSan case: four sharded sessions, each fed from its own thread,
  // fan out to one shared pool at once.
  ThreadPool pool(4);
  const Computation c = sharded_computation(373, 8);
  Rng rng(379);
  ScMemory mem;
  const std::vector<BinaryTraceEvent> base =
      records_of(run_serial(c, mem).trace);
  std::vector<std::vector<BinaryTraceEvent>> streams(4, base);
  std::vector<LargeCheckReport> want;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    corrupt_records(c, streams[k], rng, static_cast<int>(2 * k));
    renumber(streams[k]);
    LargeCheckOptions bopt;
    bopt.models = kLargeCheckExt;
    bopt.pool = &pool;
    want.push_back(
        large_check_trace(c, trace_from_records(c, streams[k]), bopt));
  }
  std::vector<LargeCheckReport> got(streams.size());
  std::vector<std::thread> feeders;
  for (std::size_t k = 0; k < streams.size(); ++k)
    feeders.emplace_back([&, k] {
      SessionOptions sopt;
      sopt.models = kLargeCheckExt;
      sopt.pool = &pool;
      CheckSession s(c, sopt);
      const std::vector<BinaryTraceEvent>& recs = streams[k];
      for (std::size_t at = 0; at < recs.size(); at += 2048) {
        if (!s.feed(recs.data() + at,
                    std::min<std::size_t>(2048, recs.size() - at)))
          break;
        (void)s.fast_verdict();
      }
      got[k] = s.finish();
    });
  for (std::thread& t : feeders) t.join();
  for (std::size_t k = 0; k < streams.size(); ++k)
    expect_reports_identical(got[k], want[k],
                             "concurrent session " + std::to_string(k));
}

// ---------------------------------------------------------------------------
// The daemon: protocol framing, concurrent clients, reconnects,
// snapshot/restore, backpressure, /status. POSIX sockets only.

#if defined(__unix__) || defined(__APPLE__)

/// A running server on a fresh unix socket, torn down with the test.
struct TestServer {
  explicit TestServer(serve::ServerOptions o = {}) {
    static std::atomic<int> counter{0};
    path = ::testing::TempDir() +
           "ccmm_serve_t" + std::to_string(counter.fetch_add(1)) + ".sock";
    o.listen = "unix:" + path;
    server = std::make_unique<serve::Server>(std::move(o));
    server->start();
  }
  ~TestServer() {
    server->stop();
    ::unlink(path.c_str());
  }
  [[nodiscard]] std::string addr() const { return "unix:" + path; }

  std::string path;
  std::unique_ptr<serve::Server> server;
};

/// The shared fixture workload: a corrupted interleaved execution, so
/// verdicts carry real violations and witnesses.
struct Workload {
  Computation c;
  std::vector<BinaryTraceEvent> recs;
  LargeCheckReport batch;
};

Workload make_workload(std::uint64_t seed, std::size_t ops,
                       std::uint32_t models, int flips) {
  Rng rng(seed);
  proc::RandomCilkOptions opt;
  opt.target_ops = ops;
  opt.nlocations = 8;
  Workload w{proc::random_cilk(opt, rng), {}, {}};
  ScMemory mem;
  w.recs = records_of(run_serial(w.c, mem).trace);
  corrupt_records(w.c, w.recs, rng, flips);
  renumber(w.recs);
  LargeCheckOptions bopt;
  bopt.models = models;
  bopt.parallel = false;
  w.batch = large_check_trace(w.c, trace_from_records(w.c, w.recs), bopt);
  return w;
}

TEST(Serve, EndToEndMatchesBatchAcrossChunkSizes) {
  const Workload w = make_workload(71, 2000, kLargeCheckExt, 4);
  for (const serve::ServerOptions& base :
       {serve::ServerOptions{}, [] {
          serve::ServerOptions o;
          o.kernel_offload = false;  // 1-core inline mode
          return o;
        }()}) {
    TestServer ts(base);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{64},
                                    std::size_t{4096}}) {
      serve::ClientOptions copts;
      copts.session.models = kLargeCheckExt;
      copts.batch_events = chunk;
      serve::ServeClient client(ts.addr(), copts);
      client.open(w.c);
      EXPECT_EQ(client.node_count(), w.c.node_count());
      client.feed(w.recs);
      const SessionVerdict v = client.verdict();
      EXPECT_EQ(v.events, w.recs.size());
      expect_reports_identical(client.finish(), w.batch,
                               "serve chunk=" + std::to_string(chunk));
      client.close_session();
    }
    EXPECT_EQ(ts.server->session_count(), 0u);
  }
}

TEST(Serve, MidStreamCheckMatchesBatchPrefix) {
  const Workload w = make_workload(72, 1500, kLargeCheckExt, 3);
  TestServer ts;
  serve::ClientOptions copts;
  copts.session.models = kLargeCheckExt;
  serve::ServeClient client(ts.addr(), copts);
  client.open(w.c);
  const std::size_t half = w.recs.size() / 2;
  client.feed(w.recs.data(), half);
  // The serve-side check() equals a local session's check() on the
  // same prefix (itself differentially pinned against batch prefixes
  // in the CheckSession tests above).
  SessionOptions sopt;
  sopt.models = kLargeCheckExt;
  CheckSession local(w.c, sopt);
  ASSERT_TRUE(local.feed(w.recs.data(), half));
  expect_reports_identical(client.check(), local.check(), "mid check");
  client.feed(w.recs.data() + half, w.recs.size() - half);
  expect_reports_identical(client.finish(), w.batch, "after mid check");
}

TEST(Serve, ReconnectAttachResumesTheSession) {
  const Workload w = make_workload(73, 1500, kLargeCheckExt, 4);
  TestServer ts;
  std::uint64_t id = 0;
  const std::size_t third = w.recs.size() / 3;
  {
    serve::ClientOptions copts;
    copts.session.models = kLargeCheckExt;
    serve::ServeClient client(ts.addr(), copts);
    id = client.open(w.c);
    client.feed(w.recs.data(), third);
    client.flush();
    (void)client.verdict();  // drain: everything applied server-side
  }  // connection drops; the session must survive
  EXPECT_EQ(ts.server->session_count(), 1u);
  {
    serve::ServeClient client(ts.addr());
    client.attach(id);
    EXPECT_EQ(client.node_count(), w.c.node_count());
    client.feed(w.recs.data() + third, w.recs.size() - third);
    expect_reports_identical(client.finish(), w.batch, "post attach");
    client.close_session();
  }
  EXPECT_EQ(ts.server->session_count(), 0u);
}

TEST(Serve, SnapshotRestoreReproducesVerdicts) {
  const Workload w = make_workload(74, 1200, kLargeCheckExt, 4);
  TestServer ts;
  serve::ClientOptions copts;
  copts.session.models = kLargeCheckExt;
  copts.session.retain_events = true;
  serve::ServeClient client(ts.addr(), copts);
  client.open(w.c);
  const std::size_t half = w.recs.size() / 2;
  client.feed(w.recs.data(), half);
  client.flush();
  const std::string blob = client.snapshot();
  ASSERT_GT(blob.size(), 8u);

  // Restore on the SAME server: an independent session that must reach
  // the identical final report.
  {
    serve::ServeClient other(ts.addr());
    const std::uint64_t rid = other.restore(blob);
    EXPECT_NE(rid, client.session_id());
    other.feed(w.recs.data() + half, w.recs.size() - half);
    expect_reports_identical(other.finish(), w.batch, "restore same server");
    other.close_session();
  }
  // Restore on a FRESH server (migration).
  {
    TestServer ts2;
    serve::ServeClient other(ts2.addr());
    other.restore(blob);
    other.feed(w.recs.data() + half, w.recs.size() - half);
    expect_reports_identical(other.finish(), w.batch, "restore migration");
  }
  // The original session is unaffected.
  client.feed(w.recs.data() + half, w.recs.size() - half);
  expect_reports_identical(client.finish(), w.batch, "snapshot source");
}

TEST(Serve, RejectedStreamsReportTheBatchError) {
  const Workload w = make_workload(75, 800, kSuiteLC, 0);
  TestServer ts;
  serve::ServeClient client(ts.addr());
  client.open(w.c);

  // Flip a dag edge: stream an event whose predecessor never arrived.
  std::vector<BinaryTraceEvent> bad = w.recs;
  std::reverse(bad.begin(), bad.end());
  renumber(bad);
  client.feed(bad);
  try {
    (void)client.verdict();
    FAIL() << "verdict on a rejected stream must throw";
  } catch (const serve::ServeError& e) {
    EXPECT_TRUE(e.stream_rejected());
    EXPECT_NE(std::string(e.what()).find("trace order flips"),
              std::string::npos)
        << e.what();
  }
  // finish() still answers, with the batch engine's error report.
  LargeCheckOptions bopt;
  bopt.models = kSuiteLC;
  bopt.parallel = false;
  const LargeCheckReport want =
      large_check_trace(w.c, trace_from_records(w.c, bad), bopt);
  expect_reports_identical(client.finish(), want, "rejected stream");
}

TEST(Serve, ProtocolErrorPaths) {
  TestServer ts;
  {
    serve::ServeClient client(ts.addr());
    EXPECT_THROW((void)client.attach(999999), serve::ServeError);
  }
  {
    // kEvents with no session.
    serve::ServeClient client(ts.addr());
    BinaryTraceEvent e{};
    client.feed(&e, 1);
    EXPECT_THROW((void)client.verdict(), serve::ServeError);
  }
  {
    // Snapshot without retain_events.
    const Workload w = make_workload(76, 200, kSuiteLC, 0);
    serve::ServeClient client(ts.addr());
    client.open(w.c);
    EXPECT_THROW((void)client.snapshot(), serve::ServeError);
  }
}

TEST(Serve, MalformedOpenTextIsAnErrorReplyNotACrash) {
  const Workload w = make_workload(78, 600, kSuiteLC, 2);
  TestServer ts;
  serve::ServeClient live(ts.addr());
  live.open(w.c);
  const std::size_t half = w.recs.size() / 2;
  live.feed(w.recs.data(), half);
  live.flush();
  // Each of these reached an assertion or a wild write on the shard's
  // kernel thread; `nodes 0` then `op 0` took the whole daemon down.
  for (const char* text :
       {"computation\nnodes 0\nop 0 W 1\nend\n",
        "computation\nnodes 2\nedge 1 1\nend\n",
        "computation\nnodes 5\nedge 0 4\nnodes 2\nend\n"}) {
    const net::Fd fd = net::connect_to(net::Addr::parse(ts.addr()));
    serve::OpenRequest req;
    req.computation_text = text;
    const std::string payload = serve::encode_open(req);
    serve::write_frame(fd.get(), serve::FrameType::kOpen, 0, payload.data(),
                       payload.size());
    serve::FrameHeader h;
    std::vector<unsigned char> reply;
    ASSERT_TRUE(serve::read_frame(fd.get(), h, reply, 1u << 20)) << text;
    EXPECT_EQ(h.type, serve::FrameType::kError) << text;
    const std::string msg(reply.begin(), reply.end());
    EXPECT_NE(msg.find("ccmm text parse error, line"), std::string::npos)
        << msg;
  }
  // The session opened before keeps serving, and new ones still open.
  live.feed(w.recs.data() + half, w.recs.size() - half);
  expect_reports_identical(live.finish(), w.batch, "after malformed opens");
  serve::ServeClient fresh(ts.addr());
  fresh.open(w.c);
  fresh.feed(w.recs);
  expect_reports_identical(fresh.finish(), w.batch, "fresh session");
}

TEST(Serve, KernelFailureIsAnErrorReplyNotACrash) {
  // A computation with no SP parse (a random dag, not a Cilk program),
  // opened with the SP-order oracle forced: the kernel throws once 2.2
  // needs the oracle. That used to escape the kernel thread and abort
  // the daemon; now the batch is rejected and everything else keeps
  // going.
  Rng rng(389);
  const Computation c = workload::random_ops(gen::random_dag(300, 0.03, rng),
                                             4, 0.4, 0.4, rng);
  ASSERT_EQ(c.sp_structure(), nullptr);
  const Workload w = make_workload(79, 600, kSuiteLC, 2);
  TestServer ts;
  serve::ServeClient live(ts.addr());
  live.open(w.c);
  const std::size_t half = w.recs.size() / 2;
  live.feed(w.recs.data(), half);
  live.flush();
  serve::ClientOptions copt;
  copt.session.oracle.choice = OracleChoice::kSpOrder;
  serve::ServeClient forced(ts.addr(), copt);
  forced.open(c);
  forced.feed(forward_observation_records(c));
  try {
    (void)forced.verdict();
    FAIL() << "a batch the kernel threw on must be rejected";
  } catch (const serve::ServeError& e) {
    EXPECT_TRUE(e.stream_rejected());
    EXPECT_NE(std::string(e.what()).find("SP-order oracle"),
              std::string::npos)
        << e.what();
  }
  // The session opened before keeps serving, and new ones still open.
  live.feed(w.recs.data() + half, w.recs.size() - half);
  expect_reports_identical(live.finish(), w.batch, "after a kernel failure");
  serve::ServeClient fresh(ts.addr());
  fresh.open(w.c);
  fresh.feed(w.recs);
  expect_reports_identical(fresh.finish(), w.batch, "fresh session");
}

TEST(Serve, StatusOverProtocolAndHttp) {
  const Workload w = make_workload(77, 400, kSuiteLC, 0);
  TestServer ts;
  serve::ServeClient client(ts.addr());
  client.open(w.c);
  client.feed(w.recs);
  (void)client.finish();

  const std::string status = client.status();
  EXPECT_NE(status.find("ccmm_serve status"), std::string::npos);
  EXPECT_NE(status.find("events_ingested: " +
                        std::to_string(w.recs.size())),
            std::string::npos)
      << status;

  // Raw HTTP GET on the same socket.
  net::Fd http = net::connect_to(net::Addr::parse(ts.addr()));
  const std::string req = "GET /status HTTP/1.0\r\n\r\n";
  net::write_all(http.get(), req.data(), req.size());
  std::string page;
  char buf[4096];
  for (;;) {
    const ssize_t k = ::read(http.get(), buf, sizeof buf);
    if (k <= 0) break;
    page.append(buf, static_cast<std::size_t>(k));
  }
  EXPECT_NE(page.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(page.find("ccmm_serve status"), std::string::npos);
}

TEST(Serve, BackpressureBoundsInFlightBatches) {
  // A tiny in-flight cap with the kernel offloaded: the shard must
  // throttle the connection instead of queueing without bound, and the
  // stream must still complete byte-identically.
  const Workload w = make_workload(78, 2000, kSuiteLC, 2);
  serve::ServerOptions sopt;
  sopt.max_pending_batches = 2;
  TestServer ts(sopt);
  serve::ClientOptions copts;
  copts.batch_events = 16;  // many small batches -> deep pipelining
  serve::ServeClient client(ts.addr(), copts);
  client.open(w.c);
  client.feed(w.recs);
  expect_reports_identical(client.finish(), w.batch, "backpressure");
}

TEST(Serve, ParallelManyClientsMatchBatch) {
  // The TSan target: concurrent sessions across shards, every final
  // report diffed against the batch engine.
  const Workload w = make_workload(79, 1000, kLargeCheckExt, 3);
  serve::ServerOptions sopt;
  sopt.shards = 2;
  TestServer ts(sopt);
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int s = 0; s < kSessionsPerThread; ++s) {
          serve::ClientOptions copts;
          copts.session.models = kLargeCheckExt;
          copts.batch_events = 64 + 97 * static_cast<std::size_t>(t);
          serve::ServeClient client(ts.addr(), copts);
          client.open(w.c);
          client.feed(w.recs);
          const LargeCheckReport got = client.finish();
          if (got.satisfied != w.batch.satisfied ||
              got.detail != w.batch.detail ||
              got.valid_observer != w.batch.valid_observer)
            failures.fetch_add(1);
          client.close_session();
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ts.server->session_count(), 0u);
  EXPECT_GE(ts.server->stats().sessions_opened.load(),
            static_cast<std::uint64_t>(kThreads * kSessionsPerThread));
}

#endif  // POSIX

}  // namespace
}  // namespace ccmm
