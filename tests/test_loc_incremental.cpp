// Differential tests for the incremental per-location kernel
// (trace/loc_incremental.hpp): after consuming any prefix of the event
// stream, finalize_into must produce verdicts byte-identical — valid,
// violated mask, AND detail string — to a fresh state that consumed
// the same prefix in one batch advance, both built by the production
// setup and driven by the production shard loop (trace/loc_driver.hpp).
// The engine-level chunk fuzz
// then pins that large_check's verdicts are independent of the chunk
// size the stream was cut into, the *Parallel* tests run the sharded
// engine under TSan, and the lattice-gate differential (run over the
// same universes and programs) pins that skipping the mask sweeps
// where LC holds changes no mask verdict.
#include "trace/loc_incremental.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <utility>

#include "dag/generators.hpp"
#include "dag/sweep.hpp"
#include "enumerate/sampling.hpp"
#include "enumerate/universe.hpp"
#include "exec/sc_memory.hpp"
#include "exec/weak_memory.hpp"
#include "exec/workload.hpp"
#include "proc/random_program.hpp"
#include "trace/large_check.hpp"
#include "trace/loc_driver.hpp"
#include "trace/session_kernel.hpp"
#include "trace/trace_binary.hpp"
#include "util/rng.hpp"

namespace ccmm {
namespace {

/// The production setup — the LocDriver large_check and CheckSession
/// share (scan order, CSRs, grouping, writer maps, lazy oracle, kernel
/// ctx) — and its worklist for `phi`, for driving LocShards directly.
struct KernelHarness {
  LocDriver driver;
  std::vector<LocTask> tasks;

  KernelHarness(const Computation& c, const ObserverFunction& phi)
      : driver(c, kLargeCheckExt, {}, SimdLevel::kScalar),
        tasks(driver.tasks_for(phi)) {}
};

/// Consume the stream in `chunk`-sized advances, and after EVERY chunk
/// compare the incremental verdict against a fresh shard that consumed
/// the same prefix in one batch call.
void expect_prefix_equivalence(const Computation& c,
                               const ObserverFunction& phi,
                               std::uint32_t chunk) {
  const KernelHarness h(c, phi);
  const auto n = static_cast<std::uint32_t>(c.node_count());
  for (const LocTask& t : h.tasks) {
    LocShard inc;
    inc.add(h.driver.ctx(), t, 0);
    for (std::uint32_t p0 = 0; p0 < n; p0 += chunk) {
      const std::uint32_t p1 = std::min(n, p0 + chunk);
      inc.advance_to(p1, chunk);

      LocShard batch;
      batch.add(h.driver.ctx(), t, 0);
      batch.advance_to(p1, p1);

      std::vector<LocationCheck> a(1);
      std::vector<LocationCheck> b(1);
      inc.finalize(a);
      batch.finalize(b);
      ASSERT_EQ(a[0].valid, b[0].valid)
          << "loc " << t.loc << " prefix " << p1 << ": " << a[0].detail
          << " vs " << b[0].detail;
      EXPECT_EQ(a[0].violated, b[0].violated)
          << "loc " << t.loc << " prefix " << p1;
      EXPECT_EQ(a[0].detail, b[0].detail)
          << "loc " << t.loc << " prefix " << p1;
      EXPECT_EQ(a[0].writers, b[0].writers);
    }
  }
}

/// Corrupt a few observer entries: arbitrary targets (⊥, random nodes,
/// unwritten locations) drive the 2.1/2.2/2.3 failure paths and the
/// model-violating quotients.
ObserverFunction corrupt(const Computation& c, ObserverFunction phi,
                         Rng& rng) {
  const std::size_t n = c.node_count();
  if (n == 0) return phi;
  const std::vector<Location> locs = c.written_locations();
  for (int k = 0; k < 2; ++k) {
    const Location l = locs.empty() || rng.chance(0.2)
                           ? Location{7}
                           : locs[rng.below(locs.size())];
    const auto u = static_cast<NodeId>(rng.below(n));
    const NodeId v =
        rng.chance(0.3) ? kBottom : static_cast<NodeId>(rng.below(n));
    phi.set(l, u, v);
  }
  return phi;
}

/// The lattice gate's differential: a mask-only request sweeps every
/// valid location, while kLargeCheckAll sweeps only where LC fails.
/// Since LC implies NN, NW, WN and WW location by location, the
/// per-location mask bits must agree.
constexpr std::uint32_t kMaskModels = kSuiteNN | kSuiteNW | kSuiteWN | kSuiteWW;

void expect_mask_bits_equal(const LargeCheckReport& swept,
                            const LargeCheckReport& gated) {
  ASSERT_EQ(swept.valid_observer, gated.valid_observer);
  ASSERT_EQ(swept.locations.size(), gated.locations.size());
  for (std::size_t i = 0; i < swept.locations.size(); ++i) {
    const LocationCheck& a = swept.locations[i];
    const LocationCheck& b = gated.locations[i];
    EXPECT_EQ(a.loc, b.loc);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.violated & kMaskModels, b.violated & kMaskModels)
        << "loc " << a.loc << ": " << a.detail << " vs " << b.detail;
  }
  EXPECT_EQ(swept.satisfied & kMaskModels, gated.satisfied & kMaskModels);
}

void expect_gate_matches_sweep(const Computation& c,
                               const ObserverFunction& phi) {
  LargeCheckOptions sweep;
  sweep.models = kMaskModels;
  sweep.parallel = false;
  LargeCheckOptions gate = sweep;
  gate.models = kLargeCheckAll;
  expect_mask_bits_equal(large_check(c, phi, sweep),
                         large_check(c, phi, gate));
}

TEST(LocIncremental, PrefixMatchesBatchOnExhaustiveUniverses) {
  // Every (computation, valid observer) pair of the small universes the
  // repo's other differentials sweep, at chunk sizes that put the
  // boundaries everywhere.
  UniverseSpec one;
  one.max_nodes = 4;
  one.nlocations = 1;
  UniverseSpec two;
  two.max_nodes = 3;
  two.nlocations = 2;
  for (const UniverseSpec& spec : {one, two}) {
    for_each_pair(spec,
                  [&](const Computation& c, const ObserverFunction& phi) {
                    for (const std::uint32_t chunk : {1u, 2u, 3u})
                      expect_prefix_equivalence(c, phi, chunk);
                    expect_gate_matches_sweep(c, phi);
                    return true;
                  });
  }
}

TEST(LocIncremental, PrefixMatchesBatchOnExhaustiveSixNodeComputations) {
  // Exhaustive computations up to 6 nodes (nop-free, ≤2 writers per
  // location keeps the sweep in seconds); observers are sampled —
  // alternating valid and corrupted — since the full pair universe at
  // this size is astronomically large.
  UniverseSpec spec;
  spec.max_nodes = 6;
  spec.nlocations = 1;
  spec.include_nop = false;
  spec.max_writes_per_location = 2;
  Rng rng(2026);
  std::size_t i = 0;
  for_each_computation(spec, [&](const Computation& c) {
    ObserverFunction phi = random_observer(c, rng);
    if (++i % 2 != 0) phi = corrupt(c, std::move(phi), rng);
    expect_prefix_equivalence(c, phi, i % 2 == 0 ? 2 : 3);
    expect_gate_matches_sweep(c, phi);
    return true;
  });
}

TEST(LocIncremental, PrefixMatchesBatchOnGeneratedPrograms) {
  Rng rng(97);
  std::vector<std::pair<Computation, ObserverFunction>> instances;
  {
    const Computation c = workload::random_ops(gen::random_dag(60, 0.1, rng),
                                               5, 0.45, 0.45, rng);
    WeakMemory mem(3);
    const Schedule s = greedy_schedule(c, 3);
    auto phi = run_execution(c, s, mem).phi;
    instances.emplace_back(c, phi);
    instances.emplace_back(c, corrupt(c, std::move(phi), rng));
  }
  {
    proc::RandomCilkOptions opt;
    opt.target_ops = 80;
    opt.nlocations = 4;
    const Computation c = proc::random_cilk(opt, rng);
    WeakMemory mem(7);
    const Schedule s = greedy_schedule(c, 2);
    instances.emplace_back(c, run_execution(c, s, mem).phi);
  }
  {
    const Computation c = workload::random_ops(
        gen::layered({5, 7, 7, 5}, 0.3, rng), 6, 0.4, 0.4, rng);
    ScMemory mem;
    auto phi = run_serial(c, mem).phi;
    instances.emplace_back(c, corrupt(c, std::move(phi), rng));
  }
  for (const auto& [c, phi] : instances) {
    for (const std::uint32_t chunk : {1u, 7u, 64u})
      expect_prefix_equivalence(c, phi, chunk);
    expect_gate_matches_sweep(c, phi);
  }
}

TEST(LocIncremental, EngineChunkFuzzMatchesDefault) {
  // The public engine must produce identical reports however the
  // stream is cut: options.chunk_nodes fuzzes the pipeline's chunking
  // across the sizes the incremental kernel's batching cares about.
  Rng rng(113);
  std::vector<std::pair<Computation, ObserverFunction>> instances;
  {
    proc::RandomCilkOptions opt;
    opt.target_ops = 3000;
    opt.nlocations = 8;
    const Computation c = proc::random_cilk(opt, rng);
    ScMemory mem;
    auto phi = run_serial(c, mem).phi;
    instances.emplace_back(c, phi);
    instances.emplace_back(c, corrupt(c, std::move(phi), rng));
  }
  {
    const Computation c = workload::random_ops(
        gen::random_dag(500, 0.02, rng), 10, 0.4, 0.4, rng);
    WeakMemory mem(5);
    const Schedule s = greedy_schedule(c, 4);
    instances.emplace_back(c, run_execution(c, s, mem).phi);
  }
  for (const auto& [c, phi] : instances) {
    LargeCheckOptions base;
    base.models = kLargeCheckExt;
    base.parallel = false;
    const LargeCheckReport want = large_check(c, phi, base);
    for (const std::uint32_t chunk : {1u, 7u, 64u, 4096u}) {
      LargeCheckOptions opt = base;
      opt.chunk_nodes = chunk;
      const LargeCheckReport got = large_check(c, phi, opt);
      ASSERT_EQ(got.valid_observer, want.valid_observer) << chunk;
      EXPECT_EQ(got.satisfied, want.satisfied) << chunk;
      EXPECT_EQ(got.detail, want.detail) << chunk;
      ASSERT_EQ(got.locations.size(), want.locations.size());
      for (std::size_t i = 0; i < got.locations.size(); ++i) {
        EXPECT_EQ(got.locations[i].valid, want.locations[i].valid);
        EXPECT_EQ(got.locations[i].violated, want.locations[i].violated);
        EXPECT_EQ(got.locations[i].detail, want.locations[i].detail);
      }
    }
  }
}

TEST(LocIncrementalParallel, ShardedMatchesSerial) {
  // Big enough to clear the sharding threshold, with a pool of its own
  // so the test runs several shards even on single-core CI; runs under
  // TSan in the sanitizer job. The corrupted variant puts validity
  // failures and violations on some shards and not others; the
  // 1024-location shape (few events per location) has every shard
  // stage hundreds of locations per chunk.
  ThreadPool pool(4);
  Rng rng(131);
  for (const auto& [ops, nlocations] :
       {std::pair{40'000, 8}, std::pair{20'000, 1024}}) {
    proc::RandomCilkOptions opt;
    opt.target_ops = ops;
    opt.nlocations = nlocations;
    const Computation c = proc::random_cilk(opt, rng);
    ScMemory mem;
    const ObserverFunction clean = run_serial(c, mem).phi;
    const ObserverFunction bad = corrupt(c, ObserverFunction(clean), rng);
    for (const ObserverFunction* phi : {&clean, &bad}) {
      LargeCheckOptions par;
      par.models = kLargeCheckExt;
      par.pool = &pool;
      par.chunk_nodes = 1 << 12;  // many chunks per shard
      LargeCheckOptions seq = par;
      seq.parallel = false;
      const LargeCheckReport a = large_check(c, *phi, par);
      const LargeCheckReport b = large_check(c, *phi, seq);
      EXPECT_GT(a.shards, 1u) << nlocations;
      EXPECT_EQ(b.shards, 1u);
      ASSERT_EQ(a.valid_observer, b.valid_observer) << a.detail;
      EXPECT_EQ(a.satisfied, b.satisfied);
      EXPECT_EQ(a.detail, b.detail);
      ASSERT_EQ(a.locations.size(), b.locations.size());
      for (std::size_t i = 0; i < a.locations.size(); ++i) {
        EXPECT_EQ(a.locations[i].loc, b.locations[i].loc);
        EXPECT_EQ(a.locations[i].valid, b.locations[i].valid);
        EXPECT_EQ(a.locations[i].violated, b.locations[i].violated);
        EXPECT_EQ(a.locations[i].detail, b.locations[i].detail);
      }
    }
  }
}

TEST(LocIncrementalParallel, ProgressIsMonotoneOnTheCallerThread) {
  Rng rng(139);
  proc::RandomCilkOptions opt;
  opt.target_ops = 40'000;
  opt.nlocations = 8;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const ObserverFunction phi = run_serial(c, mem).phi;
  const std::size_t n = c.node_count();

  ThreadPool pool(4);
  LargeCheckOptions lopt;
  lopt.models = kLargeCheckAll;
  lopt.pool = &pool;
  lopt.chunk_nodes = 1 << 12;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  bool on_caller = true;
  lopt.progress = [&](std::size_t done, std::size_t total) {
    on_caller = on_caller && std::this_thread::get_id() == caller;
    calls.emplace_back(done, total);
  };
  const LargeCheckReport r = large_check(c, phi, lopt);
  EXPECT_GT(r.shards, 1u);
  EXPECT_TRUE(on_caller);
  ASSERT_GE(calls.size(), 2u);  // some chunk-level report, then the end
  EXPECT_EQ(calls.back(), std::make_pair(n, n));
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].second, n);
    if (i > 0) {
      EXPECT_GT(calls[i].first, calls[i - 1].first) << i;
    }
  }
}

TEST(LocIncremental, LatticeGateMatchesSweepInSessionFinish) {
  // The online driver shares finalize_into: a session deciding all
  // five models must report the same mask bits as a mask-only one.
  Rng rng(223);
  const Computation c = workload::random_ops(gen::random_dag(400, 0.03, rng),
                                             6, 0.4, 0.4, rng);
  WeakMemory mem(5);
  const Trace t = run_execution(c, greedy_schedule(c, 4), mem).trace;
  std::vector<BinaryTraceEvent> recs;
  for (const TraceEvent& e : t.events)
    recs.push_back(BinaryTraceEvent{
        e.seq, e.time, e.proc, e.node,
        e.observed == kBottom ? 0xFFFFFFFFu
                              : static_cast<std::uint32_t>(e.observed),
        0});
  std::stable_sort(recs.begin(), recs.end(),
                   [](const BinaryTraceEvent& a, const BinaryTraceEvent& b) {
                     return a.seq < b.seq;
                   });
  const auto finish = [&](std::uint32_t models) {
    SessionOptions sopt;
    sopt.models = models;
    CheckSession session(c, sopt);
    EXPECT_TRUE(session.feed(recs.data(), recs.size())) << session.error();
    return session.finish();
  };
  const LargeCheckReport swept = finish(kMaskModels);
  const LargeCheckReport gated = finish(kLargeCheckAll);
  ASSERT_TRUE(gated.valid_observer) << gated.detail;
  EXPECT_TRUE(std::any_of(gated.locations.begin(), gated.locations.end(),
                          [](const LocationCheck& l) {
                            return (l.violated & kSuiteLC) != 0;
                          }))
      << "the weak execution should break LC somewhere";
  expect_mask_bits_equal(swept, gated);
}

TEST(LocIncremental, LazyOracleBuildsOnlyWhenQueried) {
  // A serial trace observer points every observation backwards, so the
  // position filter discharges all 2.2 checks and the oracle is never
  // built; a forward-pointing corruption forces the build.
  Rng rng(151);
  proc::RandomCilkOptions opt;
  opt.target_ops = 3000;
  opt.nlocations = 4;
  const Computation c = proc::random_cilk(opt, rng);
  ScMemory mem;
  const ObserverFunction phi = run_serial(c, mem).phi;
  LargeCheckOptions lopt;
  lopt.models = kSuiteLC;
  const LargeCheckReport clean = large_check(c, phi, lopt);
  EXPECT_EQ(clean.oracle_kind, "sp-order");
  EXPECT_EQ(clean.oracle_memory_bytes, 0u);
  EXPECT_EQ(clean.oracle_build_millis, 0.0);

  // Point an early read at the LAST writer of its location: the pair
  // survives the position filter and must consult the oracle.
  ObserverFunction fwd = phi;
  const std::vector<Location> locs = c.written_locations();
  ASSERT_FALSE(locs.empty());
  bool planted = false;
  for (const Location l : locs) {
    const std::vector<NodeId> ws = c.writers(l);
    if (ws.size() < 2) continue;
    for (NodeId u = 0; u < c.node_count() && !planted; ++u) {
      const Op o = c.op(u);
      if (o.is_read() && o.loc == l && u < ws.back()) {
        fwd.set(l, u, ws.back());
        planted = true;
      }
    }
    if (planted) break;
  }
  ASSERT_TRUE(planted);
  const LargeCheckReport forced = large_check(c, fwd, lopt);
  EXPECT_EQ(forced.oracle_kind, "sp-order");
  EXPECT_GT(forced.oracle_memory_bytes, 0u);
}

}  // namespace
}  // namespace ccmm
