// perfbench/src/inputs.hpp
//
// Seeded input generation. Everything here runs before a timed region.
//
//  * Fork/join computations from proc::random_cilk, with the trace of
//    their serial execution against ScMemory (run_serial).
//  * A planted stale read: one read redirected to an older write of its
//    location that a newer write separates from it in the dag.
//  * Seeded (C, Φ) pairs in the bench_checkers shapes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/observer.hpp"
#include "exec/sim_machine.hpp"
#include "trace/trace_binary.hpp"
#include "util/rng.hpp"

namespace perfbench {

[[nodiscard]] ccmm::Computation make_cilk(std::size_t target_ops,
                                          std::size_t nlocations,
                                          ccmm::Rng& rng);

/// The trace of the serial SC execution of `c` (run_serial on ScMemory).
[[nodiscard]] ccmm::Trace sc_trace(const ccmm::Computation& c);

struct StaleRead {
  ccmm::NodeId read = ccmm::kBottom;
  ccmm::NodeId observed = ccmm::kBottom;  // the older write
  ccmm::NodeId newer = ccmm::kBottom;     // a write between the two
  ccmm::Location loc = 0;
  std::size_t position = 0;               // index of the read in the trace
};

/// Redirect one read of `trace` to a write w' of its location such that
/// w' ≺ w ≺ read for another write w of that location. The paper's
/// Q-dag definitions then reject the pair in WW (hence in WN, NW, NN and
/// LC) on that location; every other location keeps its SC columns.
/// Throws when the computation has no such read.
StaleRead plant_stale_read(const ccmm::Computation& c, ccmm::Trace& trace,
                           ccmm::Rng& rng);

[[nodiscard]] std::vector<ccmm::BinaryTraceEvent> to_records(
    const ccmm::Trace& trace);

/// A computation text file plus its binary trace with a planted stale
/// read, as `ccmm_lint instance.txt --trace t.tbin` reads them, cached
/// by (size, seed).
struct TraceFiles {
  CachedInputs inputs;
  std::string instance;  // path of the computation text
  std::string tbin;      // path of the binary trace
  std::size_t events = 0;
  StaleRead stale;
};

[[nodiscard]] TraceFiles trace_files(const Options& opts,
                                     std::size_t target_ops,
                                     std::size_t nlocations);

/// Parse the computation text `repeats` times (the set-up the CLI pays
/// once per instance) under `io.read_computation` spans; returns the
/// last parse and stores the median parse time.
[[nodiscard]] ccmm::Computation parse_instance(const std::string& path,
                                               int repeats, Tracer& tracer,
                                               double* median_s);

/// Digest of a computation (ops and edges) for the run record.
[[nodiscard]] std::uint64_t digest_computation(const ccmm::Computation& c,
                                               std::uint64_t h);
[[nodiscard]] std::uint64_t digest_records(
    const std::vector<ccmm::BinaryTraceEvent>& recs, std::uint64_t h);

/// Observer shapes of the classification pairs (bench_checkers): a
/// member runs every checker, a WW-breaking one stops at the first
/// scan, an SC-breaking one passes cheap checks and searches.
enum class Shape : std::uint8_t { kMember = 0, kWwBreaking = 1, kScBreaking = 2 };
inline constexpr const char* kShapeNames[3] = {"member", "ww_breaking",
                                               "sc_breaking"};

struct ClassifyPair {
  ccmm::Computation c;
  ccmm::ObserverFunction phi;
  Shape shape = Shape::kMember;
  /// The six built-in bits from six independent legacy contains()
  /// calls (SC through the budgeted search).
  std::uint32_t legacy_mask = 0;
  bool legacy_sc_exhausted = false;
};

/// Budget of every serialization search in the bounded workload.
inline constexpr std::size_t kSearchBudget = 20'000;

/// One pair of `nodes` nodes in `shape`.
[[nodiscard]] ClassifyPair make_pair(std::size_t nodes, Shape shape,
                                     ccmm::Rng& rng);
/// Fill legacy_mask / legacy_sc_exhausted.
void legacy_classify(ClassifyPair& p);

}  // namespace perfbench
