#include "inputs.hpp"

#include <fstream>
#include <stdexcept>

#include "core/last_writer.hpp"
#include "dag/generators.hpp"
#include "dag/topsort.hpp"
#include "exec/sc_memory.hpp"
#include "exec/workload.hpp"
#include "io/text.hpp"
#include "models/location_consistency.hpp"
#include "models/qdag.hpp"
#include "models/sequential_consistency.hpp"
#include "models/suite.hpp"
#include "proc/random_program.hpp"

namespace perfbench {

using namespace ccmm;

Computation make_cilk(std::size_t target_ops, std::size_t nlocations,
                      Rng& rng) {
  proc::RandomCilkOptions opt;
  opt.target_ops = target_ops;
  opt.nlocations = nlocations;
  return proc::random_cilk(opt, rng);
}

Trace sc_trace(const Computation& c) {
  ScMemory memory;
  return run_serial(c, memory).trace;
}

StaleRead plant_stale_read(const Computation& c, Trace& trace, Rng& rng) {
  const std::size_t n = trace.events.size();
  const std::size_t start = n == 0 ? 0 : rng.below(n);
  // Walk back from a read along predecessor edges: the first write of
  // its location met is w, the next one w' — a path w' … w … read, so
  // w' ≺ w ≺ read.
  constexpr std::size_t kMaxSteps = 1 << 16;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t pos = (start + k) % n;
    const TraceEvent& e = trace.events[pos];
    if (!e.op.is_read()) continue;
    const Location l = e.op.loc;
    NodeId u = e.node;
    NodeId newer = kBottom;
    for (std::size_t step = 0; step < kMaxSteps; ++step) {
      const auto& preds = c.dag().pred(u);
      if (preds.empty()) break;
      u = preds[rng.below(preds.size())];
      if (!c.op(u).writes(l)) continue;
      if (newer == kBottom) {
        newer = u;
        continue;
      }
      trace.events[pos].observed = u;
      return StaleRead{e.node, u, newer, l, pos};
    }
  }
  throw std::runtime_error("no read with two ordered writes before it");
}

std::vector<BinaryTraceEvent> to_records(const Trace& trace) {
  std::vector<BinaryTraceEvent> recs(trace.events.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    recs[i] = BinaryTraceEvent{
        e.seq, e.time, e.proc, e.node,
        e.observed == kBottom ? 0xFFFFFFFFu
                              : static_cast<std::uint32_t>(e.observed),
        0};
  }
  return recs;
}

TraceFiles trace_files(const Options& opts, std::size_t target_ops,
                       std::size_t nlocations) {
  const std::string key = "cilk-v1-ops" + std::to_string(target_ops) +
                          "-locs" + std::to_string(nlocations) +
                          "-stale-seed" + std::to_string(opts.seed);
  TraceFiles out;
  out.inputs = cached_inputs(
      opts.work_dir / "inputs", key, {"instance.txt", "trace.tbin", "meta.txt"},
      [&](const std::filesystem::path& dir) {
        Rng rng(opts.seed * 0x9e3779b97f4a7c15ull + target_ops * 31 +
                nlocations);
        const Computation c = make_cilk(target_ops, nlocations, rng);
        Trace trace = sc_trace(c);
        std::ofstream meta(dir / "meta.txt");
        meta << "events " << trace.events.size() << "\n";
        const StaleRead s = plant_stale_read(c, trace, rng);
        meta << "stale " << s.read << " " << s.observed << " " << s.newer
             << " " << s.loc << " " << s.position << "\n";
        std::ofstream(dir / "instance.txt") << io::write_computation(c);
        std::ofstream tbin(dir / "trace.tbin", std::ios::binary);
        write_trace_binary(trace, tbin);
      });
  out.instance = (out.inputs.dir / "instance.txt").string();
  out.tbin = (out.inputs.dir / "trace.tbin").string();
  std::ifstream meta(out.inputs.dir / "meta.txt");
  std::string word;
  bool has_stale = false;
  while (meta >> word) {
    if (word == "events") {
      meta >> out.events;
    } else if (word == "stale") {
      has_stale = true;
      meta >> out.stale.read >> out.stale.observed >> out.stale.newer >>
          out.stale.loc >> out.stale.position;
    }
  }
  if (out.events == 0 || !has_stale)
    throw std::runtime_error("malformed inputs meta in " +
                             out.inputs.dir.string());
  return out;
}

Computation parse_instance(const std::string& path, int repeats,
                           Tracer& tracer, double* median_s) {
  std::vector<double> times;
  Computation c;
  for (int i = 0; i < repeats; ++i) {
    c = Computation();  // the previous parse is freed before timing
    Scope s(tracer, "io.read_computation", static_cast<std::uint64_t>(i));
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    c = io::read_computation(in);
    times.push_back(s.stop());
  }
  *median_s = median(times);
  return c;
}

std::uint64_t digest_computation(const Computation& c, std::uint64_t h) {
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const Op o = c.op(u);
    h = fnv1a(&o, sizeof o, h);
    const auto& preds = c.dag().pred(u);
    h = fnv1a(preds.data(), preds.size() * sizeof(NodeId), h);
  }
  return h;
}

std::uint64_t digest_records(const std::vector<BinaryTraceEvent>& recs,
                             std::uint64_t h) {
  return fnv1a(recs.data(), recs.size() * sizeof(BinaryTraceEvent), h);
}

ClassifyPair make_pair(std::size_t nodes, Shape shape, Rng& rng) {
  const Dag d = gen::random_dag(nodes, 8.0 / static_cast<double>(nodes), rng);
  ClassifyPair p;
  p.c = workload::random_ops(d, 4, 0.4, 0.4, rng);
  p.shape = shape;
  const Computation& c = p.c;
  c.dag().ensure_closure();
  if (shape != Shape::kScBreaking) {
    // Last writer of a random topological sort: an SC execution.
    p.phi = last_writer(c, greedy_random_topological_sort(c.dag(), rng));
    if (shape == Shape::kWwBreaking) {
      // Redirect one read to the earlier write of a write-sandwich
      // x ≺ w ≺ u: still a valid observer, outside WW.
      bool planted = false;
      for (NodeId u = static_cast<NodeId>(c.node_count());
           u-- > 0 && !planted;) {
        const Op o = c.op(u);
        if (!o.is_read()) continue;
        const auto writers = c.writers(o.loc);
        for (const NodeId x : writers) {
          if (!c.precedes(x, u)) continue;
          for (const NodeId w : writers)
            if (c.precedes(x, w) && c.precedes(w, u)) {
              p.phi.set(o.loc, u, x);
              planted = true;
              break;
            }
          if (planted) break;
        }
      }
      // No sandwich in this dag: keep it a member, labelled as such.
      if (!planted) p.shape = Shape::kMember;
    }
    return p;
  }
  // Per-location independent sorts: usually outside SC.
  p.phi = ObserverFunction(c.node_count());
  for (const Location l : c.written_locations()) {
    const auto t = greedy_random_topological_sort(c.dag(), rng);
    const ObserverFunction w = last_writer(c, t);
    for (NodeId u = 0; u < c.node_count(); ++u)
      if (w.get(l, u) != kBottom) p.phi.set(l, u, w.get(l, u));
  }
  return p;
}

void legacy_classify(ClassifyPair& p) {
  ScOptions sc;
  sc.budget = kSearchBudget;
  std::uint32_t mask = 0;
  const SearchStatus st = sc_check_with(p.c, p.phi, sc).status;
  if (st == SearchStatus::kYes) mask |= kSuiteSC;
  p.legacy_sc_exhausted = st == SearchStatus::kExhausted;
  if (location_consistent(p.c, p.phi)) mask |= kSuiteLC;
  if (qdag_consistent(p.c, p.phi, DagPred::kNN)) mask |= kSuiteNN;
  if (qdag_consistent(p.c, p.phi, DagPred::kNW)) mask |= kSuiteNW;
  if (qdag_consistent(p.c, p.phi, DagPred::kWN)) mask |= kSuiteWN;
  if (qdag_consistent(p.c, p.phi, DagPred::kWW)) mask |= kSuiteWW;
  p.legacy_mask = mask;
}

}  // namespace perfbench
